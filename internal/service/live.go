package service

import (
	"errors"
	"net/http"

	"github.com/holisticim/holisticim"
)

// handleMutateGraph applies an edge batch to a registered graph
// (POST /v1/graphs/{name}/edges). The batch is atomic — either every op
// is valid and the graph advances one version, or a 400 names the first
// offending op and nothing changes. On success the name's generation has
// moved on — no cached result or job of the old content is reachable —
// and its sketches are repaired before Mutate returns, so the response is
// written only once every sketch on the name is at its version.
func (s *Server) handleMutateGraph(w http.ResponseWriter, r *http.Request) {
	if !s.admit(w, r) {
		return
	}
	name := r.PathValue("name")
	var req MutateRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	if len(req.Ops) == 0 {
		writeError(w, http.StatusBadRequest, "empty edge batch")
		return
	}
	if len(req.Ops) > maxMutationOps {
		writeError(w, http.StatusBadRequest,
			"batch of %d ops exceeds the cap %d", len(req.Ops), maxMutationOps)
		return
	}
	ops := make([]holisticim.EdgeOp, len(req.Ops))
	for i, o := range req.Ops {
		ops[i] = holisticim.EdgeOp{
			Op:   holisticim.EdgeOpKind(o.Op),
			From: o.From,
			To:   o.To,
			P:    o.P,
			Phi:  o.Phi,
			W:    o.W,
		}
	}
	res, repairs, err := s.reg.Mutate(r.Context(), name, ops, holisticim.ApplyOptions{RebalanceLT: req.RebalanceLT})
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, ErrGraphNotFound) {
			status = http.StatusNotFound
		}
		writeError(w, status, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, MutateResponse{
		Graph:    name,
		Version:  res.Version,
		Nodes:    res.Nodes,
		Arcs:     res.Arcs,
		Applied:  res.Applied,
		Dirty:    res.Dirty,
		Repaired: repairs,
	})
}

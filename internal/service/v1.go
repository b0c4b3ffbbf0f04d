package service

// This file is the whole /v1 selection/estimation surface. Every route
// here is a translation at the HTTP edge: a v1 request becomes the
// QueryRequest /v2/query would have carried, runs through the same
// execution path (answerQuery, runSync, the one job namespace), and the
// resulting QueryResponse is rendered back in the v1 shape. Nothing in
// this file plans, executes, caches or queues.
//
// The v1 routes go once nothing in the tree posts to them. Today the
// callers are the serve-read benchmark's v1select op, scripts/loadtest.sh,
// the imserver docs and the router's /v1 proxy routes; the benchmark op
// has to be retired first, in a change of its own.

import (
	"net/http"

	"github.com/holisticim/holisticim"
)

// SelectRequest asks for a k-seed selection on a registered graph.
// TimeoutMS, when positive, bounds the selection's wall-clock time: the
// job fails with a deadline error — retaining the partial seed prefix —
// once it expires. The timeout is a request-lifecycle knob, not part of
// the result identity, so it is excluded from the fingerprint (a request
// attaching to an in-flight job shares that job's timeout).
type SelectRequest struct {
	Graph     string  `json:"graph"`
	Algorithm string  `json:"algorithm"`
	K         int     `json:"k"`
	Options   Options `json:"options"`
	TimeoutMS int     `json:"timeout_ms,omitempty"`
}

// queryRequest is the one-member select query the request stands for.
func (r SelectRequest) queryRequest() QueryRequest {
	return QueryRequest{
		Graph:     r.Graph,
		Task:      string(holisticim.TaskSelect),
		Algorithm: r.Algorithm,
		K:         r.K,
		Options:   r.Options,
		TimeoutMS: r.TimeoutMS,
	}
}

// SelectResponse answers POST /v1/select, GET /v1/jobs/{id} and DELETE
// /v1/jobs/{id} (and reports the build job of POST /v1/sketches). A
// cache hit carries the result inline with State "done" and no JobID;
// otherwise JobID points at the (possibly shared) computation. While a
// job runs, SeedsDone/K report live per-seed progress; a canceled or
// timed-out job may still carry the partial result its selector
// returned.
type SelectResponse struct {
	JobID     string        `json:"job_id,omitempty"`
	State     JobState      `json:"state"`
	Cached    bool          `json:"cached,omitempty"`
	Deduped   bool          `json:"deduped,omitempty"`
	Sketch    bool          `json:"sketch,omitempty"` // served synchronously from an RR-sketch index
	SeedsDone int           `json:"seeds_done"`
	K         int           `json:"k,omitempty"`
	Error     string        `json:"error,omitempty"`
	Result    *SelectResult `json:"result,omitempty"`
}

// selectResponseOf renders a query response in the v1 shape: the same
// job id, state and flags, the seed budget k the v2 shape has no field
// for, and the answer's sole selection (batch and estimate answers have
// no v1 rendering and report state and progress only).
func selectResponseOf(q QueryResponse, k int) SelectResponse {
	return SelectResponse{
		JobID:     q.JobID,
		State:     q.State,
		Cached:    q.Cached,
		Deduped:   q.Deduped,
		Sketch:    q.Sketch,
		SeedsDone: q.SeedsDone,
		K:         k,
		Error:     q.Error,
		Result:    q.Answer.soleResult(),
	}
}

// EstimateRequest asks for a spread estimate of one seed set, answered
// synchronously on the request path.
type EstimateRequest struct {
	Graph   string  `json:"graph"`
	Seeds   []int32 `json:"seeds"`
	Options Options `json:"options"`
}

// queryRequest is the one-member estimate query the request stands for.
func (r EstimateRequest) queryRequest() QueryRequest {
	return QueryRequest{
		Graph:   r.Graph,
		Task:    string(holisticim.TaskEstimate),
		Seeds:   r.Seeds,
		Options: r.Options,
	}
}

func (s *Server) routesV1() {
	s.handle("POST /v1/select", s.handleSelect)
	s.handle("GET /v1/jobs/{id}", s.handleJob)
	s.handle("DELETE /v1/jobs/{id}", s.handleJob)
	s.handle("POST /v1/estimate", s.handleEstimate)
}

// handleSelect is POST /v2/query for a one-member select, in v1 shapes.
func (s *Server) handleSelect(w http.ResponseWriter, r *http.Request) {
	var req SelectRequest
	if !s.admit(w, r) || !decodeJSON(w, r, &req) {
		return
	}
	if resp, status, ok := s.answerQuery(w, r, req.queryRequest()); ok {
		writeJSON(w, status, selectResponseOf(resp, req.K))
	}
}

// handleJob is GET/DELETE /v2/jobs/{id} in the v1 shape. Both prefixes
// address the one job namespace, so either can poll or cancel any job.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	if snap, status, ok := s.jobSnapshot(w, r); ok {
		writeJSON(w, status, selectResponseOf(queryResponseOf(snap), snap.K))
	}
}

// handleEstimate answers a one-member estimate query synchronously — the
// request context bounds it, so a client that disconnects stops paying
// for simulations it will never read — under the tighter synchronous
// budget cap, and renders the member in the v1 shape.
func (s *Server) handleEstimate(w http.ResponseWriter, r *http.Request) {
	var req EstimateRequest
	if !s.admit(w, r) || !decodeJSON(w, r, &req) {
		return
	}
	p, aerr := s.prepareQuery(req.queryRequest(), s.cfg.MaxEstimateRuns)
	if aerr != nil {
		s.writeAPIError(w, aerr)
		return
	}
	qa, err := s.runSync(r.Context(), p)
	if err != nil {
		writeError(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	res := *qa.Members[0].Estimate
	res.TookMS = qa.TookMS
	writeJSON(w, http.StatusOK, res)
}

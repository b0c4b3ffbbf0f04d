package service

// This file is what is left of the /v1 query surface: POST /v1/select.
// It is a translation at the HTTP edge: the request becomes the one-member
// QueryRequest /v2/query would have carried, runs through the same
// execution path (answerQuery, the one job namespace), and the resulting
// QueryResponse is rendered back in the v1 shape. Nothing in this file
// plans, executes, caches or queues. Estimates and job polling are
// /v2/query and /v2/jobs/{id} only.
//
// The route stays while the serve-read benchmark's v1select op posts to
// it, and goes when that op is retired in a change to the benchmark alone.
// SelectResponse outlives it: POST /v1/sketches reports its build job in
// that shape.

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

// SelectResponse answers POST /v1/select and reports the build job of
// POST /v1/sketches. A cache hit carries the result inline with State
// "done" and no JobID; otherwise JobID points at the (possibly shared)
// computation, polled on /v2/jobs/{id}. A canceled or timed-out job may
// still carry the partial result its selector returned.
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

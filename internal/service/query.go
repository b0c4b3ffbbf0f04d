package service

// This file is the one execution path of the serving stack and its
// native /v2 surface: POST /v2/query (single and batch, plan included in
// every response), job status/cancel and NDJSON/SSE progress streaming
// (GET /v2/jobs/{id}/events). POST /v1/select in v1.go translates onto
// the same path.

import (
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"time"

	"github.com/holisticim/holisticim"
	"github.com/holisticim/holisticim/internal/admission"
)

// toQueryAnswer maps a library Answer onto the wire form. Estimate
// members report whether their own plan step was sketch-served.
func toQueryAnswer(p *preparedQuery, ans holisticim.Answer) *QueryAnswer {
	qa := &QueryAnswer{
		Task:    string(p.q.Task),
		Plan:    ans.Plan,
		Members: make([]QueryMember, 0, len(ans.Members)),
		TookMS:  float64(ans.Took) / float64(time.Millisecond),
	}
	for i, m := range ans.Members {
		qm := QueryMember{K: m.K, Seeds: m.Seeds}
		if m.Result != nil {
			qm.Result = toSelectResult(*m.Result)
		}
		if m.Estimate != nil {
			sketchServed := i < len(ans.Plan.Steps) && ans.Plan.Steps[i].Backend == holisticim.BackendSketch
			e := toEstimateResult(*m.Estimate, p.q.Options.Lambda, sketchServed)
			qm.Estimate = &e
		}
		qa.Members = append(qa.Members, qm)
	}
	return qa
}

// queryResponseOf renders a job snapshot in the v2 shape.
func queryResponseOf(snap JobSnapshot) QueryResponse {
	resp := QueryResponse{
		JobID:       snap.ID,
		State:       snap.State,
		SeedsDone:   snap.SeedsDone,
		Members:     snap.Members,
		MembersDone: snap.MembersDone,
		Plan:        snap.Plan,
		Answer:      snap.Payload,
	}
	if snap.Err != nil {
		resp.Error = snap.Err.Error()
	}
	return resp
}

// doneResponse renders an answer that needed no job: complete, with the
// plan it was (or would have been) served under.
func doneResponse(p *preparedQuery, qa *QueryAnswer) QueryResponse {
	return QueryResponse{
		State: StateDone, Plan: &p.plan,
		SeedsDone: seedsDoneOf(qa), Members: len(qa.Members), MembersDone: len(qa.Members),
		Answer: qa,
	}
}

// seedsDoneOf is the largest seed count selected across a completed
// answer's members (estimate answers report zero).
func seedsDoneOf(qa *QueryAnswer) int {
	max := 0
	for _, m := range qa.Members {
		if m.Result != nil && len(m.Result.Seeds) > max {
			max = len(m.Result.Seeds)
		}
	}
	return max
}

// handleQuery serves POST /v2/query.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req QueryRequest
	if !s.admit(w, r) || !decodeJSON(w, r, &req) {
		return
	}
	if resp, status, ok := s.answerQuery(w, r, req); ok {
		writeJSON(w, status, resp)
	}
}

// answerQuery is the one execution path behind every query surface:
// prepare and plan → sketch-only plans answer synchronously with the plan
// inline → cache hit → async job on the shared worker pool, deduplicated
// and cached by Query.Fingerprint. It returns the response and its HTTP
// status for the calling edge to render in its own shape; on a refusal
// it has already written the error envelope and reports ok=false.
func (s *Server) answerQuery(w http.ResponseWriter, r *http.Request, req QueryRequest) (resp QueryResponse, status int, ok bool) {
	p, aerr := s.prepareQuery(req)
	if aerr != nil {
		s.writeAPIError(w, aerr)
		return resp, 0, false
	}
	p.priority = admission.Demote(p.priority, r.Header.Get(admission.PriorityHeader))

	if p.plan.SketchOnly() {
		qa, err := s.runSync(r.Context(), p)
		if err != nil {
			writeError(w, http.StatusServiceUnavailable, "%v", err)
			return resp, 0, false
		}
		resp = doneResponse(p, qa)
		resp.Sketch = true
		return resp, http.StatusOK, true
	}

	if qa, hit := s.cache.Get(p.key); hit {
		resp = doneResponse(p, qa)
		resp.Cached = true
		return resp, http.StatusOK, true
	}

	job, created, err := s.submitQueryJob(p)
	if err != nil {
		s.writeSubmitError(w, err, p.priority)
		return resp, 0, false
	}
	resp = queryResponseOf(job.Snapshot())
	resp.Deduped = !created
	return resp, http.StatusAccepted, true
}

// submitQueryJob enqueues a prepared query as an async job running the
// planner end to end (s.queryFn), reporting per-seed progress for select
// tasks and per-member progress for estimates, and caching the answer on
// success under the generation-fenced fingerprint key. It is the only
// place a query job is submitted.
func (s *Server) submitQueryJob(p *preparedQuery) (*Job, bool, error) {
	selecting := p.q.Task == holisticim.TaskSelect
	fn := func(ctx context.Context, report func(int)) (*QueryAnswer, error) {
		if !p.deadline.IsZero() {
			var cancel context.CancelFunc
			ctx, cancel = context.WithDeadline(ctx, p.deadline)
			defer cancel()
		}
		q := p.q // per-job copy: callbacks must not leak into shared state
		if selecting {
			q.Options.Progress = func(seedIdx int, seed holisticim.NodeID, elapsed time.Duration) {
				report(seedIdx + 1)
			}
		} else {
			q.OnMember = func(member int, m holisticim.Member) {
				report(member + 1)
			}
		}
		start := time.Now()
		ans, err := s.queryFn(ctx, p.g, q)
		if err != nil {
			if len(ans.Members) > 0 {
				// Retain the members completed (or partially selected)
				// before the stop for status polling.
				return toQueryAnswer(p, ans), err
			}
			return nil, err
		}
		s.queries.Add(1)
		s.observeBackend(p.planBackend(), time.Since(start).Seconds())
		if selecting {
			s.selections.Add(1)
		}
		payload := toQueryAnswer(p, ans)
		s.cache.Add(p.key, payload)
		return payload, nil
	}
	// The job record outlives fn (it is retained for polling), so it gets
	// its own copy of the plan: a pointer into p would pin p — and the
	// graph snapshot it holds — for as long as the record lives.
	plan := p.plan
	spec := JobSpec{
		Key: p.key, Members: len(plan.Steps), Plan: &plan,
		Priority:    p.priority,
		ExpectedRun: time.Duration(s.costs.Estimate(p.planBackend()) * float64(time.Second)),
		Deadline:    p.deadline,
	}
	if selecting {
		// Per-seed progress is reported against the largest budget.
		spec.MemberKs = p.q.Ks
		for _, k := range p.q.Ks {
			spec.K = max(spec.K, k)
		}
	}
	return s.jobs.Submit(spec, fn)
}

// handleQueryJob serves GET and DELETE /v2/jobs/{id}, cancelling the
// job first on DELETE. Cancelling is idempotent (repeating it answers 200
// with the job's current state), but a job that already completed
// answers 409: its outcome can no longer be revoked. Unknown ids answer
// 404.
func (s *Server) handleQueryJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var job *Job
	var ok bool
	status := http.StatusOK
	if r.Method == http.MethodDelete {
		var accepted bool
		if job, accepted, ok = s.jobs.Cancel(id); ok && !accepted {
			status = http.StatusConflict
		}
	} else {
		job, ok = s.jobs.Get(id)
	}
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", id)
		return
	}
	writeJSON(w, status, queryResponseOf(job.Snapshot()))
}

// eventsPollInterval paces the event stream's progress snapshots.
const eventsPollInterval = 25 * time.Millisecond

// handleQueryEvents streams a job's progress as NDJSON (one QueryResponse
// per line) or, when the client asks with Accept: text/event-stream, as
// SSE `data:` events. A new event is emitted whenever the job's state or
// progress changes, and a final event carries the terminal state with
// the answer; the stream then ends. Polling GET /v2/jobs/{id} and this
// stream see the same snapshots.
func (s *Server) handleQueryEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	job, ok := s.jobs.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", id)
		return
	}
	sse := strings.Contains(r.Header.Get("Accept"), "text/event-stream")
	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)

	var last string
	emit := func(final bool) bool {
		resp := queryResponseOf(job.Snapshot())
		if !final {
			// Progress events stay light: the answer rides only the final
			// event, mirroring how a poller would read it once.
			resp.Answer = nil
		}
		b, err := json.Marshal(resp)
		if err != nil {
			return false
		}
		if string(b) == last {
			return true
		}
		last = string(b)
		if sse {
			if _, err := w.Write([]byte("data: ")); err != nil {
				return false
			}
		}
		if _, err := w.Write(append(b, '\n')); err != nil {
			return false
		}
		if sse {
			if _, err := w.Write([]byte{'\n'}); err != nil {
				return false
			}
		}
		if flusher != nil {
			flusher.Flush()
		}
		return true
	}

	// A job that is already terminal streams exactly one final event.
	select {
	case <-job.Done():
		emit(true)
		return
	default:
	}
	if !emit(false) {
		return
	}
	ticker := time.NewTicker(eventsPollInterval)
	defer ticker.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-job.Done():
			emit(true)
			return
		case <-ticker.C:
			if !emit(false) {
				return
			}
		}
	}
}

package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"time"

	"github.com/holisticim/holisticim"
	"github.com/holisticim/holisticim/internal/admission"
	"github.com/holisticim/holisticim/internal/obs"
)

const maxBodyBytes = 1 << 20 // JSON request bodies are tiny; cap at 1 MiB

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeError answers with the uniform JSON error envelope
// {"error": {"code", "message", "request_id"}} every handler shares.
// The status→code mapping is obs.ErrorCode — one mapping for the
// service layer, the cluster router and the request logger. The
// request id comes off the response header the obs middleware set
// before the handler ran, so the envelope needs no plumbing.
func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, ErrorResponse{Error: ErrorBody{
		Code:      obs.ErrorCode(status),
		Message:   fmt.Sprintf(format, args...),
		RequestID: w.Header().Get(obs.RequestIDHeader),
	}})
}

// apiError carries a status-coded validation failure from the shared
// query-preparation path to the handler that surfaces it.
type apiError struct {
	status int
	msg    string
}

func (e *apiError) Error() string { return e.msg }

func errf(status int, format string, args ...any) *apiError {
	return &apiError{status: status, msg: fmt.Sprintf(format, args...)}
}

func (s *Server) writeAPIError(w http.ResponseWriter, err *apiError) {
	writeError(w, err.status, "%s", err.msg)
}

// writeSubmitError maps a job-admission failure onto the wire: queue-full
// is 429 (the client should back off and retry), past-deadline and
// shutting-down are 503 (retrying this replica immediately won't help).
// Both carry Retry-After — scoped to the job's service class, so an
// interactive client shed during a batch flood is told to retry soon —
// letting a router distinguish overload (worth failing over) from a
// request that could never have made its deadline.
func (s *Server) writeSubmitError(w http.ResponseWriter, err error, prio admission.Priority) {
	if hint := s.jobs.RetryAfterHintFor(prio); hint > 0 {
		w.Header().Set("Retry-After", fmt.Sprintf("%d", int(hint.Seconds())))
	}
	status := http.StatusServiceUnavailable
	if errors.Is(err, ErrQueueFull) {
		status = http.StatusTooManyRequests
	}
	writeError(w, status, "%v", err)
}

// admit is the front door of every work-inducing handler: it spends one
// token from the caller's rate-limit bucket and, when the bucket is
// empty, answers 429 with the uniform envelope and a Retry-After naming
// when a token accrues. Read-only surfaces (job polling, listings,
// health) are never gated — a throttled client can still observe the
// work it already submitted.
func (s *Server) admit(w http.ResponseWriter, r *http.Request) bool {
	client := admission.ClientID(r)
	ok, retry := s.limiter.Allow(client, time.Now())
	if ok {
		return true
	}
	if retry < time.Second {
		retry = time.Second // Retry-After is integral seconds; never emit 0
	}
	w.Header().Set("Retry-After", fmt.Sprintf("%d", int(retry.Round(time.Second).Seconds())))
	writeError(w, http.StatusTooManyRequests,
		"client %q exceeded its request rate; retry in %s", client, retry.Round(time.Second))
	return false
}

func decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeError(w, http.StatusBadRequest, "invalid request body: %v", err)
		return false
	}
	return true
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReadyz is the readiness probe: 200 once configured snapshots /
// the store manifest are warm-loaded, 503 while still cold-loading or
// draining for shutdown. Liveness (/healthz) stays 200 throughout — a
// cold replica is alive, just not routable.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if !s.ready.Load() {
		writeError(w, http.StatusServiceUnavailable, "not ready: warm-load incomplete or draining")
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

// handleClusterInfo serves GET /v1/cluster/info: the replica's
// self-description for routers — loaded artifacts by fingerprint,
// readiness, manifest sync point and job-queue pressure.
func (s *Server) handleClusterInfo(w http.ResponseWriter, r *http.Request) {
	queued, running := s.jobs.Depth()
	info := ClusterInfo{
		Advertise:       s.cfg.Advertise,
		Ready:           s.ready.Load(),
		ManifestVersion: s.manifestVersion.Load(),
		QueueDepth:      queued,
		Running:         running,
		Shed:            s.jobs.Shed(),
		Graphs:          []ClusterGraphInfo{},
		Sketches:        []ClusterSketchInfo{},
	}
	for _, g := range s.reg.List() {
		info.Graphs = append(info.Graphs, ClusterGraphInfo{
			Name: g.Name, Fingerprint: g.Fingerprint, Version: g.Version,
		})
	}
	for _, sk := range s.reg.ListSketches() {
		info.Sketches = append(info.Sketches, ClusterSketchInfo{
			ID:               sk.ID,
			Graph:            sk.Graph,
			Model:            sk.Model,
			Epsilon:          sk.Epsilon,
			Seed:             sk.Seed,
			GraphFingerprint: sk.GraphFingerprint,
			GraphVersion:     sk.GraphVersion,
		})
	}
	writeJSON(w, http.StatusOK, info)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

func (s *Server) handleListGraphs(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"graphs": s.reg.List()})
}

func (s *Server) handleAddGraph(w http.ResponseWriter, r *http.Request) {
	if !s.admit(w, r) {
		return
	}
	var spec GraphSpec
	if !decodeJSON(w, r, &spec) {
		return
	}
	if spec.Nodes > maxGraphNodes || spec.effectiveArcs() > maxGraphArcs {
		writeError(w, http.StatusBadRequest,
			"graph too large: max %d nodes / %d arcs", maxGraphNodes, maxGraphArcs)
		return
	}
	if err := s.reg.Build(spec, s.cfg.AllowPathLoad); err != nil {
		switch {
		case errors.Is(err, ErrGraphExists):
			writeError(w, http.StatusConflict, "%v", err)
		case errors.Is(err, ErrRegistryFull):
			writeError(w, http.StatusTooManyRequests, "%v; names cannot be rebound", err)
		case errors.Is(err, ErrPathLoadDisabled):
			writeError(w, http.StatusForbidden, "%v", err)
		default:
			writeError(w, http.StatusBadRequest, "%v", err)
		}
		return
	}
	info, err := s.reg.Info(spec.Name)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, http.StatusCreated, info)
}

func (s *Server) handleGraphStats(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	st, err := s.reg.Stats(name, statsSamples, 1)
	if err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// preparedQuery is the outcome of the shared admission path every
// selection/estimation surface runs: the resolved graph and rebind
// generation, the normalized library Query with any matching registered
// sketch attached, the planner's routing decision, and the
// generation-fenced cache/dedup key.
type preparedQuery struct {
	g    *holisticim.Graph
	q    holisticim.Query // normalized: task, objective, Ks and defaults resolved
	plan Plan
	key  string
	// priority is the query's service class, derived from the worst
	// backend across the plan's steps (one cold member makes the whole
	// job batch); a client's X-Priority header may demote it further.
	priority admission.Priority
	timeout  time.Duration
	// deadline is the absolute completion bound derived from timeout at
	// admission time: the clock starts when the request is accepted, not
	// when a worker picks the job up, so time spent queued counts — and
	// the job manager can shed jobs that would expire while queued.
	deadline time.Time
}

// clampWorkers resolves a request's workers field to [1, GOMAXPROCS],
// non-positive meaning all of it. Workers is a speed knob — it cannot change
// an answer or a sample — so a client's wish is cut to this process's
// parallelism rather than left to size goroutine pools and their O(n)
// scratch: Monte-Carlo runs, RR sampling and score sweeps all read it.
func clampWorkers(workers int) int {
	if max := runtime.GOMAXPROCS(0); workers <= 0 || workers > max {
		return max
	}
	return workers
}

// prepareQuery validates req against the registry, attaches the matching
// registered sketch (the planner decides whether it serves), plans the
// query and applies the service's admission caps. One MC budget cap,
// maxMCRuns, bounds selects and estimates alike; sketch-served estimates
// are exempt from a budget they never spend.
func (s *Server) prepareQuery(req QueryRequest) (*preparedQuery, *apiError) {
	q, qerr := req.Query().Normalized()
	o := q.Options
	// One registry read pins the graph, its generation — folded into the
	// cache/dedup key, so work on this instance is unreachable once the
	// name moves on, even if a job re-caches afterwards — and the sketch
	// for the resolved (RR semantics, ε, seed), canonicalized as the
	// builder keys it. Whether it serves is the planner's call.
	e, sk, err := s.reg.lookup(req.Graph, sketchKey{o.Model.RRSemantics(), o.Epsilon, o.Seed})
	if err != nil {
		return nil, errf(http.StatusNotFound, "%v", err)
	}
	if req.TimeoutMS < 0 {
		return nil, errf(http.StatusBadRequest, "negative timeout_ms %d", req.TimeoutMS)
	}
	if qerr != nil {
		return nil, errf(http.StatusBadRequest, "%v", qerr)
	}
	q.Options.Workers = clampWorkers(q.Options.Workers)
	if sk != nil {
		q.Options.Sketch = sk.idx
	}

	plan, err := holisticim.PlanQuery(e.g, q)
	if err != nil {
		return nil, errf(http.StatusBadRequest, "%v", err)
	}
	if members := len(plan.Steps); members > maxQueryMembers {
		return nil, errf(http.StatusBadRequest,
			"batch of %d members exceeds the cap %d", members, maxQueryMembers)
	}

	// Validate the defaults-resolved budget, not the raw field: omitted
	// mc_runs resolves to the paper's 10000, which must still fit.
	switch q.Task {
	case holisticim.TaskSelect:
		if o.MCRuns > maxMCRuns {
			return nil, errf(http.StatusBadRequest,
				"mc_runs %d exceeds the selection cap %d", o.MCRuns, maxMCRuns)
		}
	case holisticim.TaskEstimate:
		if !plan.SketchOnly() && o.MCRuns > maxMCRuns {
			return nil, errf(http.StatusBadRequest,
				"mc_runs %d exceeds the estimate cap %d", o.MCRuns, maxMCRuns)
		}
	}

	p := &preparedQuery{
		g:       e.g,
		q:       q,
		plan:    plan,
		key:     queryKey(req.Graph, q, e.gen),
		timeout: time.Duration(req.TimeoutMS) * time.Millisecond,
	}
	for _, step := range plan.Steps {
		p.priority = admission.Worst(p.priority, admission.ForBackend(string(step.Backend)))
	}
	if p.timeout > 0 {
		p.deadline = time.Now().Add(p.timeout)
	}
	return p, nil
}

// queryKey is the canonical cache/deduplication key for a query against
// a registered graph: the graph name pins the topology, Query.Fingerprint
// the work, and gen (when the name was ever rebound or mutated) fences
// out results computed against superseded content. Nothing drops those:
// no new request can reach their keys, so they age out of the LRU.
func queryKey(graph string, q holisticim.Query, gen uint64) string {
	key := fmt.Sprintf("graph=%s;%s", graph, q.Fingerprint())
	if gen > 0 {
		key = fmt.Sprintf("%s;gen=%d", key, gen)
	}
	return key
}

// runSync executes a sketch-only plan on the request path, under the
// request context plus the per-request timeout: milliseconds instead of a
// sampling job. It serves nothing else; Monte Carlo and cold sampling
// always run as jobs. Sync answers stay out of the result cache: a
// sketch-backed and a cold run may pick different (equally valid) seeds,
// and one fingerprint must never alias the two.
func (s *Server) runSync(ctx context.Context, p *preparedQuery) (*QueryAnswer, error) {
	if p.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, p.timeout)
		defer cancel()
	}
	start := time.Now()
	ans, err := s.queryFn(ctx, p.g, p.q)
	if err != nil {
		return nil, err
	}
	if p.q.Task == holisticim.TaskSelect {
		s.sketchHits.Add(1)
	} else {
		s.sketchEstimates.Add(1)
	}
	s.observeBackend(p.planBackend(), time.Since(start).Seconds())
	return toQueryAnswer(p, ans), nil
}

func (s *Server) handleListSketches(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"sketches": s.reg.ListSketches()})
}

func (s *Server) handleSketchInfo(w http.ResponseWriter, r *http.Request) {
	info, err := s.reg.DescribeSketch(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

// handleDeleteSketch evicts a sketch. Unlike graphs, sketch ids can be
// rebound: the id fully determines the deterministic sample, so a
// rebuilt sketch is interchangeable with the evicted one.
func (s *Server) handleDeleteSketch(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !s.reg.EvictSketch(id) {
		writeError(w, http.StatusNotFound, "%v: %q", ErrSketchNotFound, id)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"evicted": id})
}

// handleBuildSketch runs a sketch build as an async job on the shared
// worker pool, deduplicated by the canonical sketch id.
func (s *Server) handleBuildSketch(w http.ResponseWriter, r *http.Request) {
	if !s.admit(w, r) {
		return
	}
	var spec SketchSpec
	if !decodeJSON(w, r, &spec) {
		return
	}
	// Canonicalize the key through the library's single canonicalization
	// helper — the same one Options.withDefaults and the sketch builder
	// resolve through — so `{}` and a spelled-out default spec share one
	// sketch and the three sites cannot drift.
	model := holisticim.ModelKind(spec.Model)
	key := sketchKey{model.RRSemantics(), holisticim.CanonicalEpsilon(spec.Epsilon), holisticim.CanonicalSeed(spec.Seed)}
	e, sk, err := s.reg.lookup(spec.Graph, key)
	if err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	g := e.g
	if spec.Model != "" {
		if _, err := holisticim.NewModel(g, model); err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
	}
	if spec.Epsilon < 0 || spec.Epsilon > 1 {
		writeError(w, http.StatusBadRequest, "epsilon %v out of (0,1]", spec.Epsilon)
		return
	}
	if spec.BuildK < 0 || int64(spec.BuildK) > int64(g.NumNodes()) {
		writeError(w, http.StatusBadRequest, "invalid build_k=%d for graph with %d nodes", spec.BuildK, g.NumNodes())
		return
	}
	if sk != nil {
		writeError(w, http.StatusConflict, "%v: %q", ErrSketchExists, sk.id)
		return
	}
	maxSets := spec.MaxSets
	if maxSets <= 0 || maxSets > maxSketchSets {
		maxSets = maxSketchSets
	}

	opts := holisticim.SketchOptions{
		Model:   model,
		Epsilon: key.epsilon,
		Seed:    key.seed,
		BuildK:  spec.BuildK,
		Workers: clampWorkers(spec.Workers),
		MaxSets: maxSets,
	}
	graphName, version := spec.Graph, e.info.Version
	jobKey := "sketchbuild:" + SketchID(graphName, key.semantics, key.epsilon, key.seed)
	// Sketch builds are heavyweight index construction: batch class, so
	// a build can never queue ahead of serving work.
	job, created, err := s.jobs.Submit(JobSpec{Key: jobKey, Priority: admission.Batch}, func(ctx context.Context, report func(int)) (*QueryAnswer, error) {
		start := time.Now()
		idx, err := holisticim.BuildSketch(ctx, g, opts)
		if err != nil {
			return nil, err
		}
		// Later batches repair from the version stamped here. The sketch
		// registers only while g is still the name's snapshot; a batch
		// landing after that inherits and repairs it.
		idx.SetGraphVersion(version)
		if _, err := s.reg.AddSketch(graphName, idx); err != nil {
			return nil, err
		}
		// A build answers as a one-member summary, so job pollers on either
		// prefix see it like any other finished job.
		st := idx.Stats()
		took := float64(time.Since(start)) / float64(time.Millisecond)
		return &QueryAnswer{
			Task: string(holisticim.TaskSelect),
			Members: []QueryMember{{Result: &SelectResult{
				Algorithm: "sketch-build",
				TookMS:    took,
				Metrics: map[string]float64{
					"sets":         float64(st.Sets),
					"memory_bytes": float64(st.MemoryBytes),
				},
			}}},
			TookMS: took,
		}, nil
	})
	if err != nil {
		s.writeSubmitError(w, err, admission.Batch)
		return
	}
	snap := job.Snapshot()
	resp := selectResponseOf(queryResponseOf(snap), snap.K)
	resp.Deduped = !created
	writeJSON(w, http.StatusAccepted, resp)
}

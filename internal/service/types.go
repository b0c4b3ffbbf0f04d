// Package service implements the long-lived HTTP serving layer for the
// holisticim library: a registry of immutable, shareable graphs and
// RR-sketch indexes, an asynchronous job manager that runs work off the
// request path with single-flight deduplication, and an LRU answer cache.
//
// Query → Plan → Answer is the only thing the package executes, queues,
// caches and snapshots. A request decodes into a QueryRequest (the wire
// form of holisticim.Query); Query.Normalized infers its task, objective
// and defaults; the planner routes it; and every outcome — synchronous,
// cached, queued or polled — is a *QueryAnswer:
//
//	admit → prepare (normalize, attach sketch, plan, caps)
//	      → sketch-only plan? → run on the request path (state "done")
//	      → cache hit?        → respond synchronously (state "done")
//	      → in-flight?        → attach to the running job (deduped)
//	      → otherwise         → enqueue a job, respond 202 with its id
//
// POST /v2/query is that path's native surface, and GET/DELETE
// /v2/jobs/{id} polls and cancels its jobs. POST /v1/select is a
// request/response translation over it, confined to v1.go; it owns no
// execution, cache or job code. The cache and dedup key is
// Query.Fingerprint fenced by the graph name and rebind generation, so an
// equivalent /v1/select and /v2/query share entries and jobs.
//
// Selections — even the paper's scalable EaSyIM/OSIM, let alone TIM+/IMM
// whose RR-set indexes are expensive to build — and Monte-Carlo estimates
// are far too costly to run per request, so nothing in this package ever
// blocks an HTTP handler on one; only plans a prebuilt sketch fully
// serves run on the request path.
//
// Every job runs under its own cancellable context: DELETE on a job
// cancels it queued or running (freeing its worker slot promptly, since
// every selector honors context cancellation), an optional timeout_ms
// request field bounds a job's wall-clock time, job status reports live
// seeds_done/members_done progress, and server shutdown cancels
// in-flight work instead of draining it.
package service

import (
	"github.com/holisticim/holisticim"
)

// Options mirrors holisticim.Options with JSON tags. The zero value picks
// the paper's defaults everywhere, exactly like the library type.
type Options struct {
	Model       string  `json:"model,omitempty"`
	PathLength  int     `json:"path_length,omitempty"`
	Lambda      float64 `json:"lambda,omitempty"`
	Epsilon     float64 `json:"epsilon,omitempty"`
	MCRuns      int     `json:"mc_runs,omitempty"`
	Seed        uint64  `json:"seed,omitempty"`
	Workers     int     `json:"workers,omitempty"`
	TIMThetaCap int     `json:"tim_theta_cap,omitempty"`
}

func (o Options) toLib() holisticim.Options {
	return holisticim.Options{
		Model:       holisticim.ModelKind(o.Model),
		PathLength:  o.PathLength,
		Lambda:      o.Lambda,
		Epsilon:     o.Epsilon,
		MCRuns:      o.MCRuns,
		Seed:        o.Seed,
		Workers:     o.Workers,
		TIMThetaCap: o.TIMThetaCap,
	}
}

// Plan aliases the library's execution plan so serving types can embed
// it directly: the planner's decision is part of the wire format.
type Plan = holisticim.Plan

// ErrorBody is the payload of the uniform JSON error envelope. Code is a
// stable machine-readable slug derived from the HTTP status
// (bad_request, not_found, method_not_allowed, conflict, forbidden,
// too_many_requests, unavailable, internal); Message is human-readable.
// RequestID echoes the X-Request-ID the failed request carried, so an
// error a client reports can be matched to the server's log lines.
type ErrorBody struct {
	Code      string `json:"code"`
	Message   string `json:"message"`
	RequestID string `json:"request_id,omitempty"`
}

// ErrorResponse is the envelope every non-2xx response carries:
// {"error": {"code": "...", "message": "..."}}.
type ErrorResponse struct {
	Error ErrorBody `json:"error"`
}

// SelectResult is the JSON form of a selection. Partial marks a result
// cut short by cancellation or a timeout: Seeds holds the prefix chosen
// before the stop.
type SelectResult struct {
	Algorithm string             `json:"algorithm"`
	Seeds     []int32            `json:"seeds"`
	TookMS    float64            `json:"took_ms"`
	Metrics   map[string]float64 `json:"metrics,omitempty"`
	Partial   bool               `json:"partial,omitempty"`
}

// JobState is the lifecycle of an async job.
type JobState string

// Job lifecycle states.
const (
	StatePending  JobState = "pending"
	StateRunning  JobState = "running"
	StateDone     JobState = "done"
	StateFailed   JobState = "failed"
	StateCanceled JobState = "canceled"
)

// EstimateResult is the JSON form of a spread estimate. The opinion
// fields are meaningful under the opinion-aware models (oi-ic, oi-lt,
// oc). Sketch marks an estimate answered from an opinion-weighted
// RR-sketch index instead of Monte Carlo — Runs then reports the RR-set
// count the estimate was computed over.
type EstimateResult struct {
	Sketch                 bool    `json:"sketch,omitempty"`
	Runs                   int     `json:"runs"`
	Spread                 float64 `json:"spread"`
	OpinionSpread          float64 `json:"opinion_spread"`
	PositiveSpread         float64 `json:"positive_spread"`
	NegativeSpread         float64 `json:"negative_spread"`
	EffectiveOpinionSpread float64 `json:"effective_opinion_spread"`
	Lambda                 float64 `json:"lambda"`
	TookMS                 float64 `json:"took_ms"`
}

// QueryRequest is the one typed request POST /v2/query serves: a task
// ("select" | "estimate", inferred when omitted), an algorithm or
// objective, one (K / Seeds) or many (Ks / SeedSets) members, Options
// and an optional per-job timeout. Batch members execute against shared
// state — one RR collection or sketch order serves every k ≤ max(ks).
type QueryRequest struct {
	Graph     string    `json:"graph"`
	Task      string    `json:"task,omitempty"`
	Algorithm string    `json:"algorithm,omitempty"`
	Objective string    `json:"objective,omitempty"`
	K         int       `json:"k,omitempty"`
	Ks        []int     `json:"ks,omitempty"`
	Seeds     []int32   `json:"seeds,omitempty"`
	SeedSets  [][]int32 `json:"seed_sets,omitempty"`
	Options   Options   `json:"options"`
	TimeoutMS int       `json:"timeout_ms,omitempty"`
}

// Query maps the wire request onto the library's Query, un-normalized:
// callers read the task, objective and defaults it will run under from
// Query.Normalized, never from the raw fields.
func (r QueryRequest) Query() holisticim.Query {
	q := holisticim.Query{
		Task:      holisticim.Task(r.Task),
		Algorithm: holisticim.Algorithm(r.Algorithm),
		Objective: holisticim.Objective(r.Objective),
		K:         r.K,
		Ks:        r.Ks,
		Options:   r.Options.toLib(),
	}
	switch {
	case len(r.SeedSets) > 0:
		q.SeedSets = r.SeedSets
	case r.Seeds != nil:
		q.SeedSets = [][]int32{r.Seeds}
	}
	return q
}

// QueryMember is one completed member of a QueryAnswer: a selection for
// one k, or an estimate for one seed set.
type QueryMember struct {
	K        int             `json:"k,omitempty"`
	Seeds    []int32         `json:"seeds,omitempty"` // estimate input
	Result   *SelectResult   `json:"result,omitempty"`
	Estimate *EstimateResult `json:"estimate,omitempty"`
}

// QueryAnswer is the JSON form of a completed (possibly partial) query:
// the executed plan and one member per request member, in request order.
// It is the single payload type of jobs, job snapshots and the cache.
type QueryAnswer struct {
	Task    string        `json:"task"`
	Plan    Plan          `json:"plan"`
	Members []QueryMember `json:"members"`
	TookMS  float64       `json:"took_ms"`
}

// soleResult is the selection of a one-member select answer — the only
// shape the v1 SelectResponse renders — or nil for every other answer
// (or none).
func (a *QueryAnswer) soleResult() *SelectResult {
	if a != nil && a.Task == string(holisticim.TaskSelect) && len(a.Members) == 1 {
		return a.Members[0].Result
	}
	return nil
}

// QueryResponse answers POST /v2/query, GET/DELETE /v2/jobs/{id} and
// each event of GET /v2/jobs/{id}/events. A sketch-served or cached
// query carries the Answer inline with state "done" and no JobID;
// otherwise JobID points at the (possibly shared) computation. While a
// job runs, SeedsDone and MembersDone/Members report live progress.
type QueryResponse struct {
	JobID       string       `json:"job_id,omitempty"`
	State       JobState     `json:"state"`
	Cached      bool         `json:"cached,omitempty"`
	Deduped     bool         `json:"deduped,omitempty"`
	Sketch      bool         `json:"sketch,omitempty"` // served synchronously from an RR-sketch index
	Plan        *Plan        `json:"plan,omitempty"`
	SeedsDone   int          `json:"seeds_done"`
	Members     int          `json:"members,omitempty"`
	MembersDone int          `json:"members_done"`
	Error       string       `json:"error,omitempty"`
	Answer      *QueryAnswer `json:"answer,omitempty"`
}

// toEstimateResult maps a library Estimate onto the wire form at the
// resolved λ.
func toEstimateResult(est holisticim.Estimate, lambda float64, sketch bool) EstimateResult {
	return EstimateResult{
		Sketch:                 sketch,
		Runs:                   est.Runs,
		Spread:                 est.Spread,
		OpinionSpread:          est.OpinionSpread,
		PositiveSpread:         est.PositiveSpread,
		NegativeSpread:         est.NegativeSpread,
		EffectiveOpinionSpread: est.EffectiveOpinionSpread(lambda),
		Lambda:                 lambda,
	}
}

// GraphInfo summarizes a registered graph for GET /v1/graphs.
type GraphInfo struct {
	Name        string `json:"name"`
	Nodes       int32  `json:"nodes"`
	Arcs        int64  `json:"arcs"`
	Source      string `json:"source"`
	MemoryBytes int64  `json:"memory_bytes"`
	// Fingerprint is the graph's 64-bit content hash (topology + model
	// parameters) in hex — the identity a cluster store manifest and
	// sketch snapshots pin artifacts to.
	Fingerprint string `json:"fingerprint"`
	// Version is the graph version of the current snapshot: 0 for
	// a never-mutated graph, incremented by every applied edge batch
	// (POST /v1/graphs/{name}/edges). An operator Replace resets it — the
	// lineage restarts with the new content.
	Version uint64 `json:"version"`
}

// GraphStats extends GraphInfo with the Table-2 style statistics computed
// on demand by GET /v1/graphs/{name}.
type GraphStats struct {
	GraphInfo
	AvgOutDegree      float64 `json:"avg_out_degree"`
	MaxOutDegree      int32   `json:"max_out_degree"`
	MaxInDegree       int32   `json:"max_in_degree"`
	EffectiveDiameter float64 `json:"effective_diameter"`
	Reachable         float64 `json:"reachable"`
	MeanEdgeProb      float64 `json:"mean_edge_prob"`
}

// GraphSpec describes a graph to register via POST /v1/graphs: either a
// server-local file (Path) or a synthetic generator ("ba" or "rmat"),
// followed by optional edge-parameter and opinion assignment.
type GraphSpec struct {
	Name string `json:"name"`
	// Path loads an edge-list or binary graph file from the server's
	// filesystem (requires the server to allow path loading).
	Path string `json:"path,omitempty"`
	// Generator is "ba" (Barabási–Albert; Nodes, EdgesPerNode) or "rmat"
	// (R-MAT; Nodes, Arcs, Undirected).
	Generator    string `json:"generator,omitempty"`
	Nodes        int32  `json:"nodes,omitempty"`
	EdgesPerNode int    `json:"edges_per_node,omitempty"`
	Arcs         int64  `json:"arcs,omitempty"`
	Undirected   bool   `json:"undirected,omitempty"`
	Seed         uint64 `json:"seed,omitempty"`

	// Prob sets a uniform influence probability p(u,v); WeightedCascade
	// sets p(u,v)=1/|In(v)| instead; Trivalency samples p from
	// {0.1,0.01,0.001}. At most one may be set; none keeps loaded values.
	Prob            *float64 `json:"prob,omitempty"`
	WeightedCascade bool     `json:"weighted_cascade,omitempty"`
	Trivalency      bool     `json:"trivalency,omitempty"`
	// Phi sets a uniform interaction probability ϕ(u,v).
	Phi *float64 `json:"phi,omitempty"`
	// Opinions samples node opinions: "uniform", "normal" or "polarized".
	// Interactions ϕ are also sampled unless Phi pins them.
	Opinions string `json:"opinions,omitempty"`
}

// effectiveEdgesPerNode is the BA attachment count the generator will
// actually use; the single source of truth for both the size pre-check
// and the build itself.
func (s GraphSpec) effectiveEdgesPerNode() int {
	if s.EdgesPerNode <= 0 {
		return 3
	}
	return s.EdgesPerNode
}

// effectiveArcs estimates the arc count the spec will materialize, for
// admission control: BA emits both directions of every attachment, and
// undirected R-MAT expands each sampled edge to two arcs.
func (s GraphSpec) effectiveArcs() int64 {
	switch {
	case s.Generator == "ba":
		return 2 * int64(s.Nodes) * int64(s.effectiveEdgesPerNode())
	case s.Generator == "rmat" && s.Undirected:
		return 2 * s.Arcs
	default:
		return s.Arcs
	}
}

// EdgeOpSpec is one edge operation of a mutation batch: "add" (the arc
// must be absent; omitted parameters default to zero), "remove" (must
// exist) or "reweight" (must exist; at least one parameter set, omitted
// ones keep their values). Parameters are pointers so a reweight can
// distinguish "set to zero" from "keep current".
type EdgeOpSpec struct {
	Op   string   `json:"op"`
	From int32    `json:"from"`
	To   int32    `json:"to"`
	P    *float64 `json:"p,omitempty"`
	Phi  *float64 `json:"phi,omitempty"`
	W    *float64 `json:"w,omitempty"`
}

// MutateRequest is the body of POST /v1/graphs/{name}/edges: a batch of
// edge operations applied atomically — either every op is valid and the
// graph advances one version, or the error names the first offending op
// and nothing changes. RebalanceLT re-derives w(u,v)=1/indeg(v) for
// every in-edge of each touched target after the batch.
type MutateRequest struct {
	Ops         []EdgeOpSpec `json:"ops"`
	RebalanceLT bool         `json:"rebalance_lt,omitempty"`
}

// MutateResponse reports an applied batch: the new graph version,
// the new snapshot's shape, and the dirty nodes (targets of the batch's
// operations) that drive incremental sketch repair.
type MutateResponse struct {
	Graph   string  `json:"graph"`
	Version uint64  `json:"version"`
	Nodes   int32   `json:"nodes"`
	Arcs    int64   `json:"arcs"`
	Applied int     `json:"applied"`
	Dirty   []int32 `json:"dirty"`
	// Repaired counts the name's sketches repaired to Version before this
	// response (one whose repair failed was evicted instead).
	Repaired int `json:"repaired"`
}

// SketchSpec asks POST /v1/sketches to build an RR-sketch index over a
// registered graph. The build runs as an async job on the shared worker
// pool; the resulting index is keyed by (graph, RR semantics of model,
// epsilon, seed) and serves the /v1/select fast path.
type SketchSpec struct {
	Graph string `json:"graph"`
	// Model picks the RR-set semantics via its family: "lt" and "oi-lt"
	// sample reverse live-edge walks, "oc" samples the same walks while
	// recording per-set root-opinion weights (serving opinion-aware
	// estimates and opinion-coverage selection), everything else
	// (default "ic") reverse IC worlds.
	Model   string  `json:"model,omitempty"`
	Epsilon float64 `json:"epsilon,omitempty"` // default 0.1
	Seed    uint64  `json:"seed,omitempty"`    // default 1
	BuildK  int     `json:"build_k,omitempty"` // default 50
	Workers int     `json:"workers,omitempty"` // default GOMAXPROCS
	// MaxSets caps the index size; clamped to the server's fixed cap of
	// 2M sets either way.
	MaxSets int `json:"max_sets,omitempty"`
}

// SketchInfo summarizes a registered sketch for GET /v1/sketches.
type SketchInfo struct {
	ID          string  `json:"id"`
	Graph       string  `json:"graph"`
	Model       string  `json:"model"` // RR semantics: "ic", "lt" or "oc"
	Epsilon     float64 `json:"epsilon"`
	Seed        uint64  `json:"seed"`
	BuildK      int     `json:"build_k"`
	Sets        int     `json:"sets"`
	OrderLen    int     `json:"order_len"` // memoized greedy prefix
	Selects     int64   `json:"selects"`
	Extensions  int64   `json:"extensions"`
	MemoryBytes int64   `json:"memory_bytes"`
	// GraphVersion is the graph version the sample is synchronized to;
	// compare against the graph's version to see repair lag.
	GraphVersion uint64 `json:"graph_version"`
	// GraphFingerprint is the content hash (hex) of the graph instance the
	// sample is currently synchronized to.
	GraphFingerprint string `json:"graph_fingerprint"`
}

// ClusterGraphInfo is one loaded graph as advertised by
// GET /v1/cluster/info: just the identity a router needs to decide
// whether this replica can serve the graph's traffic.
type ClusterGraphInfo struct {
	Name        string `json:"name"`
	Fingerprint string `json:"fingerprint"`
	Version     uint64 `json:"version"`
}

// ClusterSketchInfo is one loaded sketch as advertised by
// GET /v1/cluster/info. GraphFingerprint pins the sample to the exact
// graph content it serves.
type ClusterSketchInfo struct {
	ID               string  `json:"id"`
	Graph            string  `json:"graph"`
	Model            string  `json:"model"`
	Epsilon          float64 `json:"epsilon"`
	Seed             uint64  `json:"seed"`
	GraphFingerprint string  `json:"graph_fingerprint"`
	GraphVersion     uint64  `json:"graph_version"`
}

// ClusterInfo is the self-description replicas serve on
// GET /v1/cluster/info: what is loaded (by fingerprint), whether the
// replica finished warm-loading, how far its store watcher has synced,
// and how much job-queue pressure it is under. Routers poll it for
// readiness and manifest freshness, the two fields their ranking reads;
// the load fields are for operators and the router's own
// /v1/cluster/info view.
type ClusterInfo struct {
	// Advertise is the address the replica wants routed traffic sent to
	// (the -advertise flag); empty when the operator did not set one.
	Advertise string `json:"advertise,omitempty"`
	Ready     bool   `json:"ready"`
	// ManifestVersion is the version of the last store manifest this
	// replica fully warm-loaded (0 when it is not watching a store).
	ManifestVersion uint64 `json:"manifest_version"`
	// QueueDepth / Running / Shed describe job-pool pressure: queued jobs,
	// jobs currently executing, and admissions rejected (queue-full or
	// past-deadline) since start.
	QueueDepth int                 `json:"queue_depth"`
	Running    int                 `json:"running"`
	Shed       int64               `json:"shed"`
	Graphs     []ClusterGraphInfo  `json:"graphs"`
	Sketches   []ClusterSketchInfo `json:"sketches"`
}

// ServerStats reports serving counters for GET /v1/stats.
type ServerStats struct {
	Graphs int `json:"graphs"`
	// QueriesRun counts query jobs run to completion, whichever surface
	// submitted them — /v1/select jobs are query jobs and count too (cache
	// hits, deduplicated submissions and synchronous sketch-served queries
	// do not).
	QueriesRun    int64 `json:"queries_run"`
	CacheSize     int   `json:"cache_size"`
	CacheHits     int64 `json:"cache_hits"`
	CacheMisses   int64 `json:"cache_misses"`
	JobsSubmitted int64 `json:"jobs_submitted"`
	JobsDeduped   int64 `json:"jobs_deduped"`
	JobsCanceled  int64 `json:"jobs_canceled"`
	// JobsShed counts admissions rejected by load shedding: queue-full
	// (429) plus past-deadline (503) refusals and jobs dropped at dequeue
	// because their deadline expired while queued. QueueDepth and
	// JobsRunning snapshot the pool's current pressure.
	JobsShed    int64 `json:"jobs_shed"`
	QueueDepth  int   `json:"queue_depth"`
	JobsRunning int   `json:"jobs_running"`
	// QueueDepthByPriority breaks QueueDepth down by service class
	// (interactive / standard / batch); RequestsThrottled counts
	// requests refused by the per-client rate limiter (429s before any
	// job was considered) and RateClients the tracked client buckets.
	QueueDepthByPriority map[string]int `json:"queue_depth_by_priority,omitempty"`
	RequestsThrottled    int64          `json:"requests_throttled"`
	RateClients          int            `json:"rate_clients"`
	SelectionsRun        int64          `json:"selections_run"`
	// Sketch registry metrics: indexes held, RR sets across them, their
	// memory footprint, completed builds/loads, how many select queries
	// the sketch fast path answered synchronously and how many estimate
	// queries an opinion-weighted ("oc") sketch served without Monte
	// Carlo. GraphReplacements counts operator reloads that rebound a
	// graph name (each fenced the name's cached results by a new
	// generation and kept only the sketches matching the new content).
	Sketches           int   `json:"sketches"`
	SketchSets         int64 `json:"sketch_sets"`
	SketchMemoryBytes  int64 `json:"sketch_memory_bytes"`
	SketchBuilds       int64 `json:"sketch_builds"`
	SketchFastPathHits int64 `json:"sketch_fastpath_hits"`
	SketchEstimateHits int64 `json:"sketch_estimate_hits"`
	GraphReplacements  int64 `json:"graph_replacements"`
	// Live-graph metrics: applied edge batches, completed incremental
	// sketch repairs, RR sets resampled across them, and repairs that
	// failed (each failure evicts its sketch).
	GraphMutations       int64 `json:"graph_mutations"`
	SketchRepairs        int64 `json:"sketch_repairs"`
	SketchRepairedSets   int64 `json:"sketch_repaired_sets"`
	SketchRepairFailures int64 `json:"sketch_repair_failures"`
}

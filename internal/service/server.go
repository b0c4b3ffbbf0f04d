package service

import (
	"context"
	"log/slog"
	"net/http"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"github.com/holisticim/holisticim"
	"github.com/holisticim/holisticim/internal/admission"
	"github.com/holisticim/holisticim/internal/obs"
)

// Admission caps. Each bounds a size a request controls; none is
// configurable. The registry enforces the graph and sketch caps itself,
// under its lock, so concurrent registrations cannot race past them.
const (
	statsSamples    = 16         // BFS samples behind GET /v1/graphs/{name}
	maxMCRuns       = 1_000_000  // mc_runs of a select, or of an estimate a sketch does not serve
	maxGraphs       = 64         // registered graphs; POST /v1/graphs never rebinds a name
	maxGraphNodes   = 5_000_000  // nodes of a POST /v1/graphs generator spec
	maxGraphArcs    = 50_000_000 // arcs of a POST /v1/graphs generator spec
	maxSketches     = 16         // registered RR-sketch indexes, across all graphs
	maxSketchSets   = 2_000_000  // RR sets per sketch: builds stop there
	maxQueryMembers = 64         // members of one /v2/query batch
	maxMutationOps  = 100_000    // edge ops of one POST /v1/graphs/{name}/edges batch
)

// Config sizes a Server. Zero values pick serving defaults.
type Config struct {
	// Workers bounds concurrent selection computations (default 2).
	// Selections are themselves internally parallel, so a small pool is
	// usually right.
	Workers int
	// QueueCap bounds queued-but-not-started jobs (default 64); beyond
	// it job submissions are shed with 429 + Retry-After.
	QueueCap int
	// CacheSize bounds the LRU result cache (default 256 entries).
	CacheSize int
	// MaxJobs bounds retained job records (default 1024).
	MaxJobs int
	// AllowPathLoad lets POST /v1/graphs load server-local files. Off by
	// default: untrusted clients should not read the server's filesystem.
	AllowPathLoad bool
	// RateRPS, when positive, turns on per-client admission control: each
	// client (X-Client-ID header, else remote address) gets a token
	// bucket refilled at RateRPS requests per second, and work-inducing
	// requests beyond it answer 429 + Retry-After. 0 (the default)
	// disables rate limiting.
	RateRPS float64
	// RateBurst is each client's bucket capacity — how many requests an
	// idle client may fire back to back (default: RateRPS).
	RateBurst float64
	// RateClients bounds the per-client bucket table; the least recently
	// seen client is evicted past it (default 4096).
	RateClients int
	// ColdStart makes the server report NOT ready on GET /readyz until
	// SetReady(true) is called — set it when startup warm-loads snapshots
	// or a store manifest, so a load balancer never routes to a replica
	// that would answer 404 for graphs it is still loading. Liveness
	// (GET /healthz) is unaffected.
	ColdStart bool
	// Advertise is the address this replica tells routers to reach it at,
	// echoed in GET /v1/cluster/info.
	Advertise string
	// Metrics receives the server's metric families and backs GET
	// /metrics. Nil gets a private registry, so embedding callers and
	// tests need no setup; binaries pass one in to add process-level
	// families beside the serving ones.
	Metrics *obs.Registry
	// Logger receives structured request and serving logs. Nil discards
	// (tests stay quiet); binaries pass the shared component logger.
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 64
	}
	if c.CacheSize <= 0 {
		c.CacheSize = 256
	}
	if c.MaxJobs <= 0 {
		c.MaxJobs = 1024
	}
	return c
}

// Server wires the graph registry, job manager and result cache behind an
// http.Handler. Construct with New, register graphs via Registry() or the
// API, then serve Handler().
type Server struct {
	cfg      Config
	reg      *Registry
	jobs     *Manager
	cache    *Cache
	mux      *http.ServeMux
	patterns []string // registered mux patterns, for 405 probing and conformance
	metrics  *obs.Registry
	logger   *slog.Logger
	queryDur *obs.HistogramVec // im_query_duration_seconds{backend}

	// limiter is the per-client admission gate (nil when RateRPS is
	// unset: a nil Limiter admits everything). costs predicts job run
	// times per backend, fed by the same observations as queryDur, and
	// drives deadline-aware shedding at submission time.
	limiter *admission.Limiter
	costs   *admission.CostModel

	// queryFn plans and executes one query (holisticim.Run) — every
	// computation the server performs goes through it; tests substitute
	// stubs to control timing without real computations.
	queryFn func(ctx context.Context, g *holisticim.Graph, q holisticim.Query) (holisticim.Answer, error)

	selections      atomic.Int64 // actual (non-cached, non-deduped) selections run
	queries         atomic.Int64 // query jobs run to completion (either surface)
	sketchHits      atomic.Int64 // select requests served by the sketch fast path
	sketchEstimates atomic.Int64 // estimate queries served by a sketch

	ready           atomic.Bool   // /readyz gate; see Config.ColdStart
	manifestVersion atomic.Uint64 // last fully warm-loaded store manifest version
}

// New returns a ready-to-serve Server with an empty registry.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		reg:     NewRegistry(),
		jobs:    NewManager(cfg.Workers, cfg.QueueCap, cfg.MaxJobs),
		cache:   NewCache(cfg.CacheSize),
		queryFn: holisticim.Run,
		limiter: admission.NewLimiter(admission.LimiterConfig{
			RPS: cfg.RateRPS, Burst: cfg.RateBurst, MaxClients: cfg.RateClients,
		}),
		costs: admission.NewCostModel(),
	}
	// A cold-starting replica flips ready only once its snapshots (or the
	// store manifest) are fully warm-loaded; everything else is ready the
	// moment it can serve.
	s.ready.Store(!cfg.ColdStart)
	s.metrics = cfg.Metrics
	if s.metrics == nil {
		s.metrics = obs.NewRegistry()
	}
	s.logger = cfg.Logger
	if s.logger == nil {
		s.logger = obs.Nop()
	}
	s.initObservability()
	s.mux = http.NewServeMux()
	s.routes()
	return s
}

// SetReady flips the /readyz gate: a cold-starting replica calls
// SetReady(true) once warm-loading finished; Shutdown flips it back so
// load balancers drain the replica before the listener closes.
func (s *Server) SetReady(ready bool) { s.ready.Store(ready) }

// Ready reports the /readyz gate.
func (s *Server) Ready() bool { return s.ready.Load() }

// SetManifestVersion records the store manifest version the replica's
// watcher last fully loaded, advertised via GET /v1/cluster/info so
// routers can prefer manifest-fresh replicas.
func (s *Server) SetManifestVersion(v uint64) { s.manifestVersion.Store(v) }

// Registry exposes the graph and sketch registry for startup preloading.
func (s *Server) Registry() *Registry { return s.reg }

// Sketches is Registry, kept for callers that preload snapshots through
// it (LoadSnapshot).
func (s *Server) Sketches() *Registry { return s.reg }

// Handler returns the root http.Handler: the mux wrapped so that
// not-found and method-mismatch responses carry the same JSON error
// envelope as every handler, with a correct Allow header on 405s, all
// behind the obs middleware (request ids, request metrics and logs).
func (s *Server) Handler() http.Handler {
	root := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if _, pattern := s.mux.Handler(r); pattern == "" {
			if allowed := obs.AllowedMethods(s.mux, r); len(allowed) > 0 {
				w.Header().Set("Allow", strings.Join(allowed, ", "))
				writeError(w, http.StatusMethodNotAllowed,
					"method %s not allowed for %s", r.Method, r.URL.Path)
			} else {
				writeError(w, http.StatusNotFound, "no route for %s %s", r.Method, r.URL.Path)
			}
			return
		}
		s.mux.ServeHTTP(w, r)
	})
	mw := obs.HTTPConfig{
		Logger:   s.logger,
		Registry: s.metrics,
		Route:    s.routeLabel,
		Quiet:    []string{"/healthz", "/readyz", "/metrics"},
	}
	return mw.Middleware(root)
}

// routeLabel maps a request onto its mux pattern's path — the bounded
// route label of the request metrics. (http.Request.Pattern needs Go
// 1.23; probing the mux works on the module's declared 1.22.)
func (s *Server) routeLabel(r *http.Request) string {
	_, pattern := s.mux.Handler(r)
	if pattern == "" {
		return ""
	}
	if _, path, ok := strings.Cut(pattern, " "); ok {
		return path
	}
	return pattern
}

// Routes returns every registered mux pattern ("METHOD /path"), sorted —
// the source of truth for the route-conformance test.
func (s *Server) Routes() []string {
	out := append([]string(nil), s.patterns...)
	sort.Strings(out)
	return out
}

// Close cancels all in-flight selections and stops the worker pool once
// they unwind — shutdown no longer drains heavyweight jobs to completion.
func (s *Server) Close() { s.jobs.Close() }

// Shutdown drains the server gracefully: the /readyz gate flips to
// not-ready immediately (so pollers stop routing here), new job
// submissions are refused with ErrShuttingDown, queued-but-unstarted jobs
// are canceled, and running jobs get until ctx's deadline to finish
// before being canceled too. The HTTP listener itself is the caller's to
// drain (http.Server.Shutdown); this covers everything behind it.
func (s *Server) Shutdown(ctx context.Context) error {
	s.ready.Store(false)
	return s.jobs.Shutdown(ctx)
}

// SelectionsRun returns how many selections were actually computed (cache
// hits and deduplicated submissions do not count).
func (s *Server) SelectionsRun() int64 { return s.selections.Load() }

// Stats snapshots the serving counters.
func (s *Server) Stats() ServerStats {
	skCount, skSets, skBytes, skBuilds := s.reg.SketchTotals()
	queued, running := s.jobs.Depth()
	depths := s.jobs.DepthByPriority()
	byPriority := make(map[string]int, admission.NumPriorities)
	for p, d := range depths {
		byPriority[admission.Priority(p).String()] = d
	}
	return ServerStats{
		RequestsThrottled:    s.limiter.Throttled(),
		RateClients:          s.limiter.Clients(),
		QueueDepthByPriority: byPriority,
		Graphs:               s.reg.Len(),
		QueriesRun:           s.queries.Load(),
		CacheSize:            s.cache.Len(),
		CacheHits:            s.cache.Hits(),
		CacheMisses:          s.cache.Misses(),
		JobsSubmitted:        s.jobs.Submitted(),
		JobsDeduped:          s.jobs.Deduped(),
		JobsCanceled:         s.jobs.Canceled(),
		JobsShed:             s.jobs.Shed(),
		QueueDepth:           queued,
		JobsRunning:          running,
		SelectionsRun:        s.selections.Load(),
		Sketches:             skCount,
		SketchSets:           skSets,
		SketchMemoryBytes:    skBytes,
		SketchBuilds:         skBuilds,
		SketchFastPathHits:   s.sketchHits.Load(),
		SketchEstimateHits:   s.sketchEstimates.Load(),
		GraphReplacements:    s.reg.replacements.Load(),
		GraphMutations:       s.reg.mutations.Load(),
		SketchRepairs:        s.reg.repairs.Load(),
		SketchRepairedSets:   s.reg.repairedSets.Load(),
		SketchRepairFailures: s.reg.repairsFailed.Load(),
	}
}

// handle registers a pattern on the mux and records it for Routes().
func (s *Server) handle(pattern string, h http.HandlerFunc) {
	s.mux.HandleFunc(pattern, h)
	s.patterns = append(s.patterns, pattern)
}

func (s *Server) routes() {
	s.handle("GET /healthz", s.handleHealthz)
	s.handle("GET /readyz", s.handleReadyz)
	s.handle("GET /metrics", s.handleMetrics)
	s.handle("GET /v1/cluster/info", s.handleClusterInfo)
	s.handle("GET /v1/stats", s.handleStats)
	s.handle("GET /v1/graphs", s.handleListGraphs)
	s.handle("POST /v1/graphs", s.handleAddGraph)
	s.handle("GET /v1/graphs/{name}", s.handleGraphStats)
	s.handle("POST /v1/graphs/{name}/edges", s.handleMutateGraph)
	s.handle("GET /v1/sketches", s.handleListSketches)
	s.handle("POST /v1/sketches", s.handleBuildSketch)
	s.handle("GET /v1/sketches/{id}", s.handleSketchInfo)
	s.handle("DELETE /v1/sketches/{id}", s.handleDeleteSketch)
	s.handle("POST /v1/select", s.handleSelect)
	s.handle("POST /v2/query", s.handleQuery)
	s.handle("GET /v2/jobs/{id}", s.handleQueryJob)
	s.handle("DELETE /v2/jobs/{id}", s.handleQueryJob)
	s.handle("GET /v2/jobs/{id}/events", s.handleQueryEvents)
}

func toSelectResult(res holisticim.Result) *SelectResult {
	return &SelectResult{
		Algorithm: res.Algorithm,
		Seeds:     res.Seeds,
		TookMS:    float64(res.Took) / float64(time.Millisecond),
		Metrics:   res.Metrics,
		Partial:   res.Partial,
	}
}

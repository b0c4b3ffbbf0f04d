package service

import (
	"log/slog"
	"net/http"

	"github.com/holisticim/holisticim/internal/admission"
	"github.com/holisticim/holisticim/internal/obs"
)

// initObservability registers the server's metric families. Counters
// the serving layer already tracks in its own atomics (they also back
// /v1/stats) surface as scrape-time func metrics, so the two surfaces
// can never disagree; only latency distributions are new state.
func (s *Server) initObservability() {
	m := s.metrics

	// Graph registry.
	m.GaugeFunc("im_graphs", "Graphs currently registered.",
		func() float64 { return float64(s.reg.Len()) })
	m.CounterFunc("im_graph_replacements_total",
		"Graph names rebound to new content by operator reloads.",
		func() float64 { return float64(s.reg.replacements.Load()) })
	m.CounterFunc("im_graph_mutations_total",
		"Edge mutation batches applied (POST /v1/graphs/{name}/edges).",
		func() float64 { return float64(s.reg.mutations.Load()) })

	// Answers: done query jobs keep answering their key until evicted.
	m.GaugeFunc("im_cache_entries", "Done query jobs answering their key.",
		func() float64 { n, _ := s.jobs.answerStats(); return float64(n) })
	m.CounterFunc("im_cache_hits_total", "Queries answered by a done job.",
		func() float64 { return float64(s.cacheHits.Load()) })
	m.CounterFunc("im_cache_misses_total",
		"Queries that reached the job manager without a done answer.",
		func() float64 { return float64(s.cacheMisses.Load()) })
	m.CounterFunc("im_cache_evictions_total",
		"Done query jobs evicted by the job-record cap.",
		func() float64 { _, n := s.jobs.answerStats(); return float64(n) })

	// Job manager.
	m.CounterFunc("im_jobs_submitted_total", "Jobs accepted by the manager.",
		func() float64 { return float64(s.jobs.Submitted()) })
	m.CounterFunc("im_jobs_deduped_total",
		"Submissions that attached to an in-flight job.",
		func() float64 { return float64(s.jobs.Deduped()) })
	m.CounterFunc("im_jobs_canceled_total", "Jobs that reached the canceled state.",
		func() float64 { return float64(s.jobs.Canceled()) })
	m.CounterFunc("im_jobs_shed_total",
		"Submissions refused by load shedding (queue-full, past-deadline).",
		func() float64 { return float64(s.jobs.Shed()) })
	m.GaugeFunc("im_jobs_queue_depth", "Jobs queued awaiting a worker.",
		func() float64 { q, _ := s.jobs.Depth(); return float64(q) })
	m.GaugeFunc("im_jobs_running", "Jobs currently executing.",
		func() float64 { _, r := s.jobs.Depth(); return float64(r) })
	waitHist := m.Histogram("im_job_queue_wait_seconds",
		"Time jobs spent queued before a worker picked them up.", nil)
	runHist := m.Histogram("im_job_run_seconds",
		"Wall time of job executions (selections, builds).", nil)
	s.jobs.SetDurationObservers(waitHist.Observe, runHist.Observe)

	// Admission control & QoS. The labeled families are scrape-time
	// views over the manager's per-class counters, so /v1/stats and
	// /metrics can never disagree.
	depthVec := m.GaugeFuncVec("im_jobs_queue_depth_by_priority",
		"Jobs queued awaiting a worker, by service class.", "priority")
	shedVec := m.CounterFuncVec("im_jobs_shed_by_priority_total",
		"Load-shedding rejections by service class and reason.",
		"priority", "reason")
	for p := admission.Interactive; p < admission.Priority(admission.NumPriorities); p++ {
		p := p
		depthVec.Register(func() float64 {
			return float64(s.jobs.DepthByPriority()[p])
		}, p.String())
		for reason := ShedQueueFull; reason < ShedReason(NumShedReasons); reason++ {
			reason := reason
			shedVec.Register(func() float64 {
				return float64(s.jobs.ShedCount(p, reason))
			}, p.String(), reason.String())
		}
	}
	m.CounterFunc("im_admission_allowed_total",
		"Requests admitted by the per-client rate limiter.",
		func() float64 { return float64(s.limiter.Allowed()) })
	m.CounterFunc("im_admission_throttled_total",
		"Requests refused (429) by the per-client rate limiter.",
		func() float64 { return float64(s.limiter.Throttled()) })
	m.GaugeFunc("im_admission_clients",
		"Client buckets tracked by the rate limiter.",
		func() float64 { return float64(s.limiter.Clients()) })

	// Selections and queries.
	m.CounterFunc("im_selections_total", "Selections actually computed.",
		func() float64 { return float64(s.selections.Load()) })
	m.CounterFunc("im_queries_total", "Query jobs run to completion (either surface).",
		func() float64 { return float64(s.queries.Load()) })
	s.queryDur = m.HistogramVec("im_query_duration_seconds",
		"End-to-end query latency in seconds, by serving backend.",
		nil, "backend")

	// Sketch registry and live repair.
	m.GaugeFunc("im_sketches", "RR-sketch indexes currently registered.",
		func() float64 { c, _, _, _ := s.reg.SketchTotals(); return float64(c) })
	m.GaugeFunc("im_sketch_sets", "RR sets across all registered sketches.",
		func() float64 { _, sets, _, _ := s.reg.SketchTotals(); return float64(sets) })
	m.GaugeFunc("im_sketch_memory_bytes", "Memory held by registered sketches.",
		func() float64 { _, _, b, _ := s.reg.SketchTotals(); return float64(b) })
	m.CounterFunc("im_sketch_builds_total", "Sketch builds and snapshot loads completed.",
		func() float64 { _, _, _, b := s.reg.SketchTotals(); return float64(b) })
	m.CounterFunc("im_sketch_fastpath_hits_total",
		"Select requests answered synchronously from a sketch.",
		func() float64 { return float64(s.sketchHits.Load()) })
	m.CounterFunc("im_sketch_estimate_hits_total",
		"Estimate requests served by an opinion-weighted sketch.",
		func() float64 { return float64(s.sketchEstimates.Load()) })
	m.CounterFunc("im_sketch_repairs_total", "Incremental sketch repairs completed.",
		func() float64 { return float64(s.reg.repairs.Load()) })
	m.CounterFunc("im_sketch_repaired_sets_total", "RR sets resampled across all repairs.",
		func() float64 { return float64(s.reg.repairedSets.Load()) })
	m.CounterFunc("im_sketch_repair_failures_total",
		"Repairs that failed (each failure evicts its sketch).",
		func() float64 { return float64(s.reg.repairsFailed.Load()) })
}

// planBackend is the latency label of a prepared query: the first plan
// step's backend ("" for a stepless plan, mapped to "unknown" by
// observeBackend).
func (p *preparedQuery) planBackend() string {
	if len(p.plan.Steps) == 0 {
		return ""
	}
	return string(p.plan.Steps[0].Backend)
}

// observeBackend records one completed query's latency under its
// serving backend ("" falls back to "unknown" so a malformed plan can
// never panic the label lookup). The same observation feeds the
// admission cost model, so deadline shedding predicts from exactly the
// durations im_query_duration_seconds reports.
func (s *Server) observeBackend(backend string, seconds float64) {
	if backend == "" {
		backend = "unknown"
	}
	s.queryDur.With(backend).Observe(seconds)
	s.costs.Observe(backend, seconds)
}

// Metrics exposes the server's registry so binaries can add their own
// process-level families next to the serving ones.
func (s *Server) Metrics() *obs.Registry { return s.metrics }

// Logger exposes the server's structured logger.
func (s *Server) Logger() *slog.Logger { return s.logger }

// handleMetrics serves GET /metrics in Prometheus text format 0.0.4.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.metrics.Handler().ServeHTTP(w, r)
}

// Command imserver serves influence-maximization as a long-lived HTTP
// service: graphs are loaded (or generated) once into an immutable
// registry, seed selections run as asynchronous jobs on a bounded worker
// pool with single-flight deduplication, and completed selections are
// answered from an LRU cache keyed by a canonical request fingerprint.
//
// Usage:
//
//	imserver -addr :8080 -demo 5000
//	imserver -load soc=soc.txt -load hep=nethept.bin -workers 4
//
// Flags:
//
//	-addr string        listen address (default ":8080")
//	-workers int        concurrent selection jobs (default 2)
//	-queue int          queued-job capacity before 429 (default 64)
//	-rate-rps float     per-client admission rate in requests/second for
//	                    work-inducing endpoints; a client past its token
//	                    bucket answers 429 + Retry-After (0 = off)
//	-rate-burst float   per-client bucket capacity — back-to-back requests
//	                    an idle client may fire (default: rate-rps)
//	-rate-clients int   client buckets tracked before LRU eviction
//	                    (default 4096)
//	-cache int          LRU result-cache entries (default 256)
//	-max-jobs int       retained job records (default 1024)
//	-load name=path     preload a graph file (repeatable; edge-list or binary)
//	-sketch name=path   preload an RR-sketch snapshot (written by imrun build)
//	                    for the already-loaded graph `name` (repeatable);
//	                    v2 (opinion-weighted "oc") snapshots serve the
//	                    opinion fast paths below
//	-demo n             preload "demo": a BA graph with n nodes, p=0.1,
//	                    normal opinions and random interactions (0 = off)
//	-allow-path-load    let POST /v1/graphs read server-local files
//	-store dir          warm-load graphs and sketches from a shared
//	                    snapshot store (see imrun publish); /readyz
//	                    answers 503 until the manifest is fully loaded
//	-watch duration     keep watching the store for manifest updates
//	                    (default 2s when -store is set; 0 = load once)
//	-advertise url      the address routers should reach this replica at,
//	                    echoed in GET /v1/cluster/info
//	-drain duration     graceful-shutdown budget for in-flight requests
//	                    and running jobs on SIGTERM (default 10s)
//	-log-level string   structured-log level: debug|info|warn|error
//	                    (default "info"; requests log at info, probe and
//	                    scrape routes at debug)
//	-debug-addr string  serve net/http/pprof on this SEPARATE address
//	                    (empty = off; never exposed on -addr)
//
// Endpoints:
//
//	GET  /healthz            liveness
//	GET  /readyz             readiness (503 while warm-loading/draining)
//	GET  /metrics            Prometheus text exposition (see docs/metrics.md)
//	GET  /v1/cluster/info    replica self-description for routers
//	GET  /v1/stats           serving counters (cache hits, jobs, sketches, ...)
//	GET  /v1/graphs          registered graphs
//	POST /v1/graphs          register a graph (generator spec or path)
//	GET  /v1/graphs/{name}   graph statistics
//	GET  /v1/sketches        registered RR-sketch indexes
//	POST /v1/sketches        build a sketch (async job)
//	GET  /v1/sketches/{id}   sketch details / counters
//	DELETE /v1/sketches/{id} evict a sketch
//	POST /v1/select          async seed selection -> job id | cached result
//	                         (optional timeout_ms bounds the job's runtime);
//	                         RIS-family requests matching a sketch are
//	                         answered synchronously from the index — with
//	                         model "oc" the weighted index maximizes
//	                         opinion coverage
//
//	POST /v2/query           the unified typed query: task "select" or
//	                         "estimate", one OR many k values/seed sets,
//	                         executed by the backend planner against
//	                         shared state (one RR collection or sketch
//	                         order serves every k <= max(ks)); the
//	                         response always carries the execution plan.
//	                         Sketch-served plans (an "oc" opinion
//	                         estimate matching a weighted sketch
//	                         included) answer synchronously, everything
//	                         else — Monte-Carlo estimates too — runs as
//	                         an async job.
//	GET  /v2/jobs/{id}        job status / answer of any job, incl. live
//	                         seeds_done and members_done
//	DELETE /v2/jobs/{id}     cancel a queued or running job
//	GET  /v2/jobs/{id}/events stream job progress as NDJSON (one JSON
//	                         object per line) or SSE with
//	                         Accept: text/event-stream; the final event
//	                         carries the answer
//
// POST /v1/select is a translation onto the /v2/query execution path, so
// both surfaces share one result cache, one job namespace and job
// deduplication. Every error response uses the envelope
// {"error": {"code", "message"}}, and method mismatches answer 405 with
// an Allow header.
//
// Admission control: work-inducing requests pass a per-client token
// bucket (-rate-rps; clients are keyed by X-Client-ID, else remote
// address) and jobs queue in three service classes derived from the
// planned backend — interactive (sketch/heuristic), standard (ris),
// batch (cold mc) — drained in class order, so interactive work is
// never stuck behind a batch flood. X-Priority can demote a request's
// class (never promote). Requests whose deadline cannot cover the cost
// model's predicted wait+run time are shed up front; every 429/503
// rejection carries Retry-After and the uniform envelope.
//
// Jobs run under per-job cancellable contexts, so shutdown cancels
// in-flight selections instead of draining them.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/holisticim/holisticim"
	"github.com/holisticim/holisticim/internal/cluster"
	"github.com/holisticim/holisticim/internal/obs"
	"github.com/holisticim/holisticim/internal/service"
)

func main() {
	var loads, sketches []string
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		workers   = flag.Int("workers", 2, "concurrent selection jobs")
		queueCap  = flag.Int("queue", 64, "queued-job capacity before 429")
		cacheSize = flag.Int("cache", 256, "LRU result-cache entries")
		maxJobs   = flag.Int("max-jobs", 1024, "retained job records")
		rateRPS   = flag.Float64("rate-rps", 0, "per-client admission rate in req/s (0 = off)")
		rateBurst = flag.Float64("rate-burst", 0, "per-client bucket capacity (default: rate-rps)")
		rateCl    = flag.Int("rate-clients", 0, "client buckets tracked before LRU eviction (default 4096)")
		demo      = flag.Int("demo", 0, "preload a demo BA graph with this many nodes (0 = off)")
		allowPath = flag.Bool("allow-path-load", false, "let POST /v1/graphs read server-local files")
		storeDir  = flag.String("store", "", "warm-load from this shared snapshot store directory")
		watch     = flag.Duration("watch", 2*time.Second, "store re-sync interval (0 = load once)")
		advertise = flag.String("advertise", "", "address routers should reach this replica at")
		drain     = flag.Duration("drain", 10*time.Second, "graceful-shutdown budget on SIGTERM")
		logLevel  = flag.String("log-level", "info", "log level: debug|info|warn|error")
		debugAddr = flag.String("debug-addr", "", "serve net/http/pprof on this separate address (empty = off)")
	)
	flag.Func("load", "preload a graph as name=path (repeatable)", func(v string) error {
		if !strings.Contains(v, "=") {
			return fmt.Errorf("want name=path, got %q", v)
		}
		loads = append(loads, v)
		return nil
	})
	flag.Func("sketch", "preload an RR-sketch snapshot as graphname=path (repeatable)", func(v string) error {
		if !strings.Contains(v, "=") {
			return fmt.Errorf("want graphname=path, got %q", v)
		}
		sketches = append(sketches, v)
		return nil
	})
	flag.Parse()

	level, err := obs.ParseLevel(*logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "imserver:", err)
		os.Exit(2)
	}
	logger := obs.NewLogger(os.Stderr, "imserver", level)
	fatal := func(msg string, args ...any) {
		logger.Error(msg, args...)
		os.Exit(1)
	}
	metrics := obs.NewRegistry()

	srv := service.New(service.Config{
		Workers:       *workers,
		QueueCap:      *queueCap,
		CacheSize:     *cacheSize,
		MaxJobs:       *maxJobs,
		RateRPS:       *rateRPS,
		RateBurst:     *rateBurst,
		RateClients:   *rateCl,
		AllowPathLoad: *allowPath,
		// With a store configured the replica starts cold: /readyz flips
		// only once the watcher loads the full manifest.
		ColdStart: *storeDir != "",
		Advertise: *advertise,
		Metrics:   metrics,
		Logger:    logger,
	})
	defer srv.Close()

	for _, l := range loads {
		name, path, _ := strings.Cut(l, "=")
		if err := srv.Registry().LoadFile(name, path); err != nil {
			fatal("graph preload failed", "error", err)
		}
		logger.Info("loaded graph", "graph", name, "path", path)
	}
	for _, sk := range sketches {
		name, path, _ := strings.Cut(sk, "=")
		g, err := srv.Registry().Get(name)
		if err != nil {
			fatal("sketch preload failed: load the graph first with -load", "sketch", sk, "error", err)
		}
		id, err := srv.Registry().LoadSnapshot(name, g, path)
		if err != nil {
			fatal("sketch preload failed", "sketch", sk, "error", err)
		}
		logger.Info("loaded sketch", "sketch", id, "path", path)
	}
	if *demo > 0 {
		g := holisticim.GenerateBA(int32(*demo), 3, 1)
		g.SetUniformProb(0.1)
		holisticim.AssignOpinions(g, holisticim.OpinionNormal, 2)
		holisticim.AssignInteractions(g, 3)
		if err := srv.Registry().Add("demo", g, "generated:ba"); err != nil {
			fatal("demo graph registration failed", "error", err)
		}
		logger.Info("registered demo BA graph", "nodes", g.NumNodes(), "arcs", g.NumEdges())
	}

	if *debugAddr != "" {
		go func() {
			dbg := &http.Server{Addr: *debugAddr, Handler: obs.DebugHandler(),
				ReadHeaderTimeout: 10 * time.Second}
			logger.Info("pprof listening", "addr", *debugAddr)
			if err := dbg.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("pprof listener failed", "error", err)
			}
		}()
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	if *storeDir != "" {
		st, err := cluster.OpenStore(*storeDir)
		if err != nil {
			fatal("store open failed", "store", *storeDir, "error", err)
		}
		watcher := cluster.NewWatcher(st, srv, *watch)
		watcher.OnSync = func(res cluster.SyncResult, err error) {
			switch {
			case err != nil:
				logger.Warn("store sync failed", "error", err)
			case res.GraphsLoaded+res.SketchesLoaded+res.SketchesEvicted > 0:
				logger.Info("store sync",
					"manifest_version", res.ManifestVersion,
					"graphs_loaded", res.GraphsLoaded,
					"sketches_loaded", res.SketchesLoaded,
					"sketches_evicted", res.SketchesEvicted)
			}
		}
		// The first sync may fail (publisher not done yet); the replica
		// stays NOT ready and the watch loop keeps retrying.
		if _, err := watcher.SyncOnce(ctx); err != nil {
			logger.Warn("store sync failed; replica not ready, retrying", "error", err)
			if *watch <= 0 {
				fatal("-watch 0 with a failing store load")
			}
		}
		if *watch > 0 {
			go watcher.Run(ctx)
		}
	}

	drained := make(chan struct{})
	go func() {
		defer close(drained)
		<-ctx.Done()
		// Unregister so a second signal force-kills instead of being
		// swallowed while we drain in-flight selections.
		cancel()
		logger.Info("shutting down (press again to force)")
		shutCtx, shutCancel := context.WithTimeout(context.Background(), *drain)
		defer shutCancel()
		// Flip /readyz first so routers stop sending traffic, then drain
		// running jobs and in-flight HTTP within the same budget.
		if err := srv.Shutdown(shutCtx); err != nil {
			logger.Warn("job drain incomplete", "error", err)
		}
		_ = httpSrv.Shutdown(shutCtx)
	}()

	logger.Info("imserver listening",
		slog.String("addr", *addr),
		slog.Int("graphs", srv.Registry().Len()),
		slog.Int("workers", *workers))
	if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatal("listener failed", "error", err)
	}
	// ListenAndServe returns as soon as the listener closes; wait for
	// Shutdown to finish draining in-flight HTTP requests, then cancel
	// any still-running selection jobs (deferred srv.Close) — shutdown
	// never waits on a heavyweight selection.
	<-drained
	logger.Info("cancelling in-flight selection jobs")
}

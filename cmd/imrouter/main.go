// Command imrouter is the cluster front door: a proxy that consistent-
// hashes queries onto a fixed set of imserver replicas and relays the
// chosen replica's answer. It never executes or assembles one itself.
//
// Every replica warm-loads the same snapshot store (imserver -store), so
// any replica can answer any query and routing is purely a cache-
// affinity and load decision: every query — single or batch, /v1 or /v2
// — goes whole to its key's preferred rendezvous owner, and slow or
// shedding replicas are hedged and failed over within a bounded retry
// budget. The response is that replica's bytes, so a routed answer
// equals the single-node answer by construction (job ids and the
// X-Router-* headers aside); and because sketch-served answers are
// deterministic functions of the snapshot, failover never changes a
// result. Registry mutations and listings are broadcast to every
// healthy replica instead.
//
// Usage:
//
//	imrouter -addr :9090 \
//	  -replica http://127.0.0.1:8081 \
//	  -replica http://127.0.0.1:8082 \
//	  -replica http://127.0.0.1:8083
//
// Flags:
//
//	-addr string         listen address (default ":9090")
//	-replica url         an imserver base URL (repeat once per replica)
//	-replication int     rendezvous owners per key (default 2)
//	-poll duration       replica health-poll interval (default 1s)
//	-hedge duration      wait before hedging to the next candidate (default 250ms)
//	-retries int         failover attempts after the first (default: all replicas)
//	-shed-retries int    failover attempts after a 429 load shed before the
//	                     shed is surfaced with the largest Retry-After seen
//	                     (default 1; negative = never fail over on 429)
//	-drain duration      graceful-shutdown budget on SIGTERM (default 10s)
//	-log-level string    structured-log level: debug|info|warn|error (default "info")
//	-debug-addr string   serve net/http/pprof on this SEPARATE address (empty = off)
//
// The router serves the same /v1 and /v2 surface as a replica, plus:
//
//	GET /healthz           router liveness
//	GET /readyz            503 until at least one replica is healthy
//	GET /metrics           Prometheus text exposition: routing metrics
//	                       (proxy latency, hedges, failovers, shed stops)
//	GET /v1/cluster/info   per-replica health, readiness and manifest view
//
// Every request gets an X-Request-ID at the router (inbound ids are
// trusted) and carries it to the replicas, so one id follows a request
// through every log line and error envelope in the cluster. The
// X-Client-ID and X-Priority headers ride along the same way (clients
// without an id are identified by remote address at the router), so the
// replicas' per-client rate limits and priority classes apply to the
// true end client rather than to the router's own address.
//
// Job ids returned through the router carry an r<N>- prefix naming the
// owning replica, so GET /v2/jobs/{id} (and /events) route back to it.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/holisticim/holisticim/internal/cluster"
	"github.com/holisticim/holisticim/internal/obs"
)

func main() {
	var replicas []string
	var (
		addr        = flag.String("addr", ":9090", "listen address")
		replication = flag.Int("replication", 2, "rendezvous owners per key")
		poll        = flag.Duration("poll", time.Second, "replica health-poll interval")
		hedge       = flag.Duration("hedge", 250*time.Millisecond, "wait before hedging to the next candidate")
		retries     = flag.Int("retries", 0, "failover attempts after the first (0 = all replicas)")
		shedRetries = flag.Int("shed-retries", 1, "failover attempts after a 429 load shed (negative = never)")
		drain       = flag.Duration("drain", 10*time.Second, "graceful-shutdown budget on SIGTERM")
		logLevel    = flag.String("log-level", "info", "log level: debug|info|warn|error")
		debugAddr   = flag.String("debug-addr", "", "serve net/http/pprof on this separate address (empty = off)")
	)
	flag.Func("replica", "an imserver base URL (repeat once per replica)", func(v string) error {
		replicas = append(replicas, v)
		return nil
	})
	flag.Parse()

	level, err := obs.ParseLevel(*logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "imrouter:", err)
		os.Exit(2)
	}
	logger := obs.NewLogger(os.Stderr, "imrouter", level)
	fatal := func(msg string, args ...any) {
		logger.Error(msg, args...)
		os.Exit(1)
	}

	rt, err := cluster.NewRouter(cluster.RouterConfig{
		Replicas:     replicas,
		Replication:  *replication,
		PollInterval: *poll,
		HedgeDelay:   *hedge,
		Retries:      *retries,
		ShedRetries:  *shedRetries,
		Metrics:      obs.NewRegistry(),
		Logger:       logger,
	})
	if err != nil {
		fatal("router construction failed", "error", err)
	}

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

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

	// Populate health before accepting traffic, then keep polling.
	rt.PollOnce(ctx)
	go rt.Run(ctx)

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           rt.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		<-ctx.Done()
		cancel()
		logger.Info("shutting down (press again to force)")
		shutCtx, shutCancel := context.WithTimeout(context.Background(), *drain)
		defer shutCancel()
		_ = httpSrv.Shutdown(shutCtx)
	}()

	logger.Info("imrouter listening", "addr", *addr, "replicas", len(replicas), "replication", *replication)
	if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatal("listener failed", "error", err)
	}
	<-drained
}

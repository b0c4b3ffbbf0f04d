package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/holisticim/holisticim"
	"github.com/holisticim/holisticim/internal/admission"
	"github.com/holisticim/holisticim/internal/obs"
	"github.com/holisticim/holisticim/internal/service"
)

// RouterConfig sizes a Router. Replicas is required; everything else
// has serving defaults.
type RouterConfig struct {
	// Replicas are the imserver base URLs ("http://host:port").
	Replicas []string
	// Replication is how many rendezvous owners each key prefers before
	// spilling to arbitrary healthy replicas (default 2, clamped to the
	// replica count).
	Replication int
	// PollInterval paces the health poller (default 1s).
	PollInterval time.Duration
	// HedgeDelay is how long a routed request waits on one replica before
	// ALSO trying the next candidate — the first success wins (default
	// 250ms).
	HedgeDelay time.Duration
	// Retries bounds the extra replicas tried after the first, the
	// failover retry budget (default: all remaining candidates).
	Retries int
	// ShedRetries caps the extra candidates tried after a replica sheds
	// load (429). Unlike a hard failure, a shedding replica is healthy —
	// its queue is full or the deadline can't be met — and under cluster-
	// wide overload failing over to every owner multiplies the load that
	// caused the shedding. After the cap the 429 is surfaced to the
	// client, carrying the LARGEST Retry-After seen across the shed
	// responses. Default 1; negative disables failover on 429 entirely.
	ShedRetries int
	// Client issues upstream requests (default: 30s-timeout client).
	Client *http.Client
	// Metrics receives the router's metric families and backs GET
	// /metrics (default: a private registry).
	Metrics *obs.Registry
	// Logger receives structured request and health-transition logs
	// (default: discard).
	Logger *slog.Logger
}

// Router is the cluster's front door, a proxy that never executes or
// assembles an answer. It has two primitives: a keyed forward (routeBody:
// rendezvous-rank the healthy replicas for a key, hedge and fail over
// down that list, relay the winner's bytes) for everything a single
// replica answers, and a broadcast to every healthy replica for registry
// mutations and cluster-wide listings.
type Router struct {
	cfg     RouterConfig
	client  *http.Client
	mem     *membership
	mux     *http.ServeMux
	metrics *obs.Registry
	logger  *slog.Logger
	rm      routerMetrics

	patterns []string
}

// jobIDSep separates the replica index prefix from the replica-local
// job id in router-issued job ids ("r2-j15").
const jobIDSep = "-"

// NewRouter builds a router over the given replicas. Call Run (or
// PollOnce) to populate health state before serving.
func NewRouter(cfg RouterConfig) (*Router, error) {
	if len(cfg.Replicas) == 0 {
		return nil, fmt.Errorf("cluster: router needs at least one replica")
	}
	if cfg.Replication <= 0 {
		cfg.Replication = 2
	}
	if cfg.Replication > len(cfg.Replicas) {
		cfg.Replication = len(cfg.Replicas)
	}
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = time.Second
	}
	if cfg.HedgeDelay <= 0 {
		cfg.HedgeDelay = 250 * time.Millisecond
	}
	if cfg.Retries <= 0 {
		cfg.Retries = len(cfg.Replicas)
	}
	if cfg.ShedRetries == 0 {
		cfg.ShedRetries = 1
	}
	if cfg.ShedRetries < 0 {
		cfg.ShedRetries = 0
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{Timeout: 30 * time.Second}
	}
	rt := &Router{
		cfg:     cfg,
		client:  cfg.Client,
		mem:     newMembership(cfg.Replicas, cfg.Client, cfg.PollInterval),
		metrics: cfg.Metrics,
		logger:  cfg.Logger,
	}
	if rt.metrics == nil {
		rt.metrics = obs.NewRegistry()
	}
	if rt.logger == nil {
		rt.logger = obs.Nop()
	}
	rt.mem.logger = rt.logger
	rt.initObservability()
	rt.mux = http.NewServeMux()
	rt.routes()
	return rt, nil
}

// PollOnce refreshes replica health synchronously (tests and startup).
func (rt *Router) PollOnce(ctx context.Context) { rt.mem.PollOnce(ctx) }

// Run polls replica health until ctx ends.
func (rt *Router) Run(ctx context.Context) { rt.mem.Run(ctx) }

// Handler returns the router's root handler with the same uniform 404
// and 405 envelopes the replicas use, behind the obs middleware — the
// router is the outermost hop, so it is where request ids are minted
// before forward propagates them replica-ward.
func (rt *Router) Handler() http.Handler {
	root := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if _, pattern := rt.mux.Handler(r); pattern == "" {
			if allowed := obs.AllowedMethods(rt.mux, r); len(allowed) > 0 {
				w.Header().Set("Allow", strings.Join(allowed, ", "))
				writeError(w, http.StatusMethodNotAllowed,
					"method %s not allowed for %s", r.Method, r.URL.Path)
			} else {
				writeError(w, http.StatusNotFound, "no route for %s %s", r.Method, r.URL.Path)
			}
			return
		}
		rt.mux.ServeHTTP(w, withQoS(r))
	})
	mw := obs.HTTPConfig{
		Logger:   rt.logger,
		Registry: rt.metrics,
		Route:    rt.routeLabel,
		Quiet:    []string{"/healthz", "/readyz", "/metrics"},
	}
	return mw.Middleware(root)
}

// routeLabel maps a request onto its mux pattern's path for the
// bounded route label of the request metrics.
func (rt *Router) routeLabel(r *http.Request) string {
	_, pattern := rt.mux.Handler(r)
	if pattern == "" {
		return ""
	}
	if _, path, ok := strings.Cut(pattern, " "); ok {
		return path
	}
	return pattern
}

// Routes returns the registered patterns, sorted.
func (rt *Router) Routes() []string {
	out := append([]string(nil), rt.patterns...)
	sort.Strings(out)
	return out
}

func (rt *Router) handle(pattern string, h http.HandlerFunc) {
	rt.mux.HandleFunc(pattern, h)
	rt.patterns = append(rt.patterns, pattern)
}

func (rt *Router) routes() {
	rt.handle("GET /healthz", rt.handleHealthz)
	rt.handle("GET /readyz", rt.handleReadyz)
	rt.handle("GET /metrics", rt.handleMetrics)
	rt.handle("GET /v1/cluster/info", rt.handleClusterInfo)

	rt.handle("POST /v2/query", rt.handleQuery)
	rt.handle("GET /v2/jobs/{id}", rt.handleJob)
	rt.handle("DELETE /v2/jobs/{id}", rt.handleJob)
	rt.handle("GET /v2/jobs/{id}/events", rt.handleJobEvents)

	rt.handle("POST /v1/select", rt.handleQuery)

	rt.handle("GET /v1/graphs", rt.fanListMerge("/v1/graphs", "graphs", "name"))
	rt.handle("GET /v1/sketches", rt.fanListMerge("/v1/sketches", "sketches", "id"))
	rt.handle("GET /v1/graphs/{name}", rt.handleGraphStats)
	rt.handle("GET /v1/sketches/{id}", rt.handleSketchInfo)
	rt.handle("GET /v1/stats", rt.handleStats)

	rt.handle("POST /v1/graphs", rt.fanAll)
	rt.handle("POST /v1/sketches", rt.fanAll)
	rt.handle("POST /v1/graphs/{name}/edges", rt.fanAll)
	rt.handle("DELETE /v1/sketches/{id}", rt.fanAll)
}

// writeError mirrors the replicas' uniform error envelope, through the
// same status→code mapping (obs.ErrorCode) and with the middleware-
// assigned request id echoed, so a router-originated error is
// indistinguishable in shape from a replica one.
func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(service.ErrorResponse{Error: service.ErrorBody{
		Code:      obs.ErrorCode(status),
		Message:   fmt.Sprintf(format, args...),
		RequestID: w.Header().Get(obs.RequestIDHeader),
	}})
}

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write([]byte("{\"status\":\"ok\"}\n"))
}

// handleReadyz: the router is ready when it can route somewhere.
func (rt *Router) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if len(rt.mem.healthy()) == 0 {
		writeError(w, http.StatusServiceUnavailable, "no healthy replica")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write([]byte("{\"status\":\"ready\"}\n"))
}

// handleClusterInfo serves the router's cluster view: per-replica health
// and self-descriptions plus the cluster-wide manifest high-water mark.
func (rt *Router) handleClusterInfo(w http.ResponseWriter, r *http.Request) {
	view := struct {
		ManifestVersion uint64                  `json:"manifest_version"`
		Replicas        map[string]replicaState `json:"replicas"`
	}{
		ManifestVersion: rt.mem.maxManifestVersion(),
		Replicas:        rt.mem.snapshot(),
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(view)
}

// upstreamResult is one replica's buffered response.
type upstreamResult struct {
	replica string
	status  int
	header  http.Header
	body    []byte
}

// outcome is what one forward came to: the replica's response, or the
// transport error that kept it from answering.
type outcome struct {
	res *upstreamResult
	err error
}

// retryable reports whether a status should fail over to the next
// candidate: shedding (429), server errors and upstream unavailability.
// Client errors (400/404/409...) are authoritative — every replica
// would answer the same. 429s additionally respect the ShedRetries cap
// in tryCandidates — a shedding replica is healthy, so hammering the
// whole owner set with its traffic only deepens the overload.
func retryable(status int) bool {
	return status == http.StatusTooManyRequests || status >= 500
}

// qosCtxKey carries the original client's identity and priority wish
// from the router's front door to every upstream request it spawns.
type qosCtxKey int

const (
	ctxClientID qosCtxKey = iota
	ctxPriorityWish
)

// withQoS resolves the inbound request's client identity (its
// X-Client-ID header, else its remote address) and priority wish onto
// the context, so upstream requests — issued far from the original
// *http.Request — can stamp them. Without this, every replica would
// see the ROUTER's address as the client and one bucket would throttle
// the whole cluster's traffic.
func withQoS(r *http.Request) *http.Request {
	ctx := context.WithValue(r.Context(), ctxClientID, admission.ClientID(r))
	if wish := r.Header.Get(admission.PriorityHeader); wish != "" {
		ctx = context.WithValue(ctx, ctxPriorityWish, wish)
	}
	return r.WithContext(ctx)
}

// stampUpstreamHeaders copies the request id, client identity and
// priority wish riding ctx onto an upstream request, so a replica's
// log lines, rate-limit bucket and service class all match what the
// router saw at the front door.
func stampUpstreamHeaders(ctx context.Context, h http.Header) {
	if rid := obs.RequestID(ctx); rid != "" {
		h.Set(obs.RequestIDHeader, rid)
	}
	if cid, _ := ctx.Value(ctxClientID).(string); cid != "" {
		h.Set(admission.ClientIDHeader, cid)
	}
	if wish, _ := ctx.Value(ctxPriorityWish).(string); wish != "" {
		h.Set(admission.PriorityHeader, wish)
	}
}

// forward issues one upstream request and buffers the response. The
// request id riding ctx (set by the router's middleware) is propagated
// on the X-Request-ID header, so a replica's log lines carry the same
// id as the router's — one grep follows a request across the cluster.
// The client id and priority wish ride along the same way, so per-
// client rate limits and priority classes apply to the true client.
func (rt *Router) forward(ctx context.Context, replica, method, path string, body []byte) (*upstreamResult, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, replica+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	stampUpstreamHeaders(ctx, req.Header)
	start := time.Now()
	resp, err := rt.client.Do(req)
	rt.rm.proxyDur.With(replica).Observe(time.Since(start).Seconds())
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return &upstreamResult{replica: replica, status: resp.StatusCode, header: resp.Header, body: b}, nil
}

// retryAfterSeconds parses the integral-seconds Retry-After the
// serving layer emits (0 when absent or malformed).
func retryAfterSeconds(h http.Header) int {
	s, err := strconv.Atoi(strings.TrimSpace(h.Get("Retry-After")))
	if err != nil || s < 0 {
		return 0
	}
	return s
}

// applyMaxRetryAfter stamps the largest Retry-After observed across
// shed responses onto the result surfaced to the client: when several
// owners refused with different hints, retrying before the LARGEST one
// would just be shed again by the slowest.
func applyMaxRetryAfter(res *upstreamResult, maxSeconds int) {
	if maxSeconds <= 0 {
		return
	}
	if res.header == nil {
		res.header = http.Header{}
	}
	res.header.Set("Retry-After", strconv.Itoa(maxSeconds))
}

// tryCandidates runs the request against candidates with hedged
// failover: candidate 0 starts immediately; every HedgeDelay without a
// verdict the next candidate starts in parallel; the first
// non-retryable response wins and the losers are canceled. At most
// 1+Retries candidates are attempted, and at most 1+ShedRetries when
// the refusals are 429 load sheds — after the shed budget the 429 is
// returned with the largest Retry-After seen, instead of multiplying
// an overloaded owner set's load. Returns the winning result, or the
// last retryable/erroneous outcome when every candidate failed.
func (rt *Router) tryCandidates(ctx context.Context, candidates []string, method, path string, body []byte) (*upstreamResult, error) {
	if len(candidates) == 0 {
		return nil, fmt.Errorf("no healthy replica")
	}
	if max := 1 + rt.cfg.Retries; len(candidates) > max {
		candidates = candidates[:max]
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	results := make(chan outcome, len(candidates))
	launched := 0
	launch := func() {
		replica := candidates[launched]
		launched++
		go func() {
			res, err := rt.forward(ctx, replica, method, path, body)
			select {
			case results <- outcome{res, err}:
			case <-ctx.Done():
			}
		}()
	}
	launch()

	var last outcome
	pending := 1
	sheds, maxRetryAfter := 0, 0
	hedge := time.NewTimer(rt.cfg.HedgeDelay)
	defer hedge.Stop()
	for pending > 0 || launched < len(candidates) {
		select {
		case <-ctx.Done():
			if last.res != nil || last.err != nil {
				return last.res, last.err
			}
			return nil, ctx.Err()
		case <-hedge.C:
			if launched < len(candidates) {
				launch()
				pending++
				rt.rm.hedges.Inc()
			}
			hedge.Reset(rt.cfg.HedgeDelay)
		case out := <-results:
			pending--
			last = out
			if out.err == nil && !retryable(out.res.status) {
				return out.res, nil
			}
			if out.err == nil && out.res.status == http.StatusTooManyRequests {
				sheds++
				if ra := retryAfterSeconds(out.res.header); ra > maxRetryAfter {
					maxRetryAfter = ra
				}
				if sheds > rt.cfg.ShedRetries {
					// Shed budget spent: surface the overload rather than
					// recruit more replicas into it.
					rt.rm.shedStops.Inc()
					applyMaxRetryAfter(out.res, maxRetryAfter)
					return out.res, nil
				}
			}
			// Failed or shedding: start the next candidate immediately
			// instead of waiting out the hedge timer.
			if launched < len(candidates) {
				launch()
				pending++
				rt.rm.failovers.Inc()
			}
		}
	}
	if last.err == nil && last.res != nil && last.res.status == http.StatusTooManyRequests {
		applyMaxRetryAfter(last.res, maxRetryAfter)
	}
	return last.res, last.err
}

// writeUpstream copies a buffered upstream response to the client,
// stamping which replica served it and any routing note.
func writeUpstream(w http.ResponseWriter, res *upstreamResult, note string) {
	if ct := res.header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	if ra := res.header.Get("Retry-After"); ra != "" {
		w.Header().Set("Retry-After", ra)
	}
	w.Header().Set("X-Router-Replica", res.replica)
	if note != "" {
		w.Header().Set("X-Router-Note", note)
	}
	w.WriteHeader(res.status)
	_, _ = w.Write(res.body)
}

// prefixJobID rewrites the job_id field of a buffered JSON response to
// carry the serving replica's ring index ("j7" → "r2-j7"), so later job
// polls route back to the replica that owns the job. Bodies without a
// job_id pass through untouched.
func (rt *Router) prefixJobID(res *upstreamResult) {
	idx := rt.mem.indexOf(res.replica)
	if idx < 0 {
		return
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal(res.body, &m); err != nil {
		return
	}
	raw, ok := m["job_id"]
	if !ok {
		return
	}
	var id string
	if err := json.Unmarshal(raw, &id); err != nil || id == "" {
		return
	}
	prefixed, _ := json.Marshal(fmt.Sprintf("r%d%s%s", idx, jobIDSep, id))
	res.body = bytes.Replace(res.body, []byte(`"job_id":`+string(raw)), []byte(`"job_id":`+string(prefixed)), 1)
}

// splitJobID parses a router job id back into (replica, local id). The
// replica index must be spelled as prefixJobID writes it — decimal, no
// sign, no leading zero — so each job has exactly one router id.
func (rt *Router) splitJobID(id string) (replica, local string, ok bool) {
	if !strings.HasPrefix(id, "r") {
		return "", "", false
	}
	rest := id[1:]
	cut := strings.Index(rest, jobIDSep)
	if cut <= 0 {
		return "", "", false
	}
	idx, err := strconv.Atoi(rest[:cut])
	if err != nil || strconv.Itoa(idx) != rest[:cut] {
		return "", "", false
	}
	reps := rt.mem.replicas
	if idx < 0 || idx >= len(reps) {
		return "", "", false
	}
	return reps[idx], rest[cut+len(jobIDSep):], true
}

// handleJob proxies job status/cancel to the replica encoded in the job
// id prefix, rewriting ids in both directions.
func (rt *Router) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	replica, local, ok := rt.splitJobID(id)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q (router job ids look like r0-j1)", id)
		return
	}
	res, err := rt.forward(r.Context(), replica, r.Method, strings.TrimSuffix(r.URL.Path, id)+local, nil)
	if err != nil {
		writeError(w, http.StatusBadGateway, "replica %s: %v", replica, err)
		return
	}
	rt.prefixJobID(res)
	writeUpstream(w, res, "")
}

// handleJobEvents streams a job's NDJSON/SSE events from the owning
// replica, rewriting the replica-local job id on the fly.
func (rt *Router) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	replica, local, ok := rt.splitJobID(id)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q (router job ids look like r0-j1)", id)
		return
	}
	req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, replica+"/v2/jobs/"+local+"/events", nil)
	if err != nil {
		writeError(w, http.StatusBadGateway, "%v", err)
		return
	}
	if accept := r.Header.Get("Accept"); accept != "" {
		req.Header.Set("Accept", accept)
	}
	stampUpstreamHeaders(r.Context(), req.Header)
	// Streams must not be bounded by the client's request timeout.
	streamClient := &http.Client{Transport: rt.client.Transport}
	resp, err := streamClient.Do(req)
	if err != nil {
		writeError(w, http.StatusBadGateway, "replica %s: %v", replica, err)
		return
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	w.Header().Set("Cache-Control", "no-store")
	w.Header().Set("X-Router-Replica", replica)
	w.WriteHeader(resp.StatusCode)
	flusher, _ := w.(http.Flusher)
	oldID := fmt.Sprintf("%q:%q", "job_id", local)
	newID := fmt.Sprintf("%q:%q", "job_id", id)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		line := strings.Replace(sc.Text(), oldID, newID, 1)
		if _, err := io.WriteString(w, line+"\n"); err != nil {
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
}

// readBody buffers a request body for replay across failover attempts.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		writeError(w, http.StatusBadRequest, "read body: %v", err)
		return nil, false
	}
	return body, true
}

// routeBody routes a buffered request by key with hedged failover and
// job-id rewriting.
func (rt *Router) routeBody(w http.ResponseWriter, r *http.Request, key string, body []byte) {
	candidates, note := rt.mem.rank(key, rt.cfg.Replication)
	if len(candidates) == 0 {
		writeError(w, http.StatusServiceUnavailable, "no healthy replica")
		return
	}
	if note != "" {
		rt.rm.staleRoutes.Inc()
	}
	res, err := rt.tryCandidates(r.Context(), candidates, r.Method, r.URL.Path, body)
	if err != nil {
		writeError(w, http.StatusBadGateway, "all replicas failed: %v", err)
		return
	}
	rt.prefixJobID(res)
	writeUpstream(w, res, note)
}

// readQuery buffers a query body for replay across failover attempts and
// decodes it as a QueryRequest. The /v1/select body is a field subset
// of that type, so this one decode — and through it the one
// Query.Normalized — keys both query routes; strict validation stays
// with the replica that answers.
func readQuery(w http.ResponseWriter, r *http.Request) (body []byte, req service.QueryRequest, ok bool) {
	if body, ok = readBody(w, r); !ok {
		return nil, req, false
	}
	if err := json.Unmarshal(body, &req); err != nil {
		writeError(w, http.StatusBadRequest, "invalid request body: %v", err)
		return nil, req, false
	}
	return body, req, true
}

// queryKeyOf is the routing key of a request: the graph plus the RR
// semantics and ε its normalized query runs under. An invalid query
// still gets a key from as far as it normalized — some replica has to
// be the one to refuse it.
func queryKeyOf(req service.QueryRequest) string {
	q, _ := req.Query().Normalized()
	o := q.Options
	return QueryKey(req.Graph, o.Model.RRSemantics(), holisticim.CanonicalEpsilon(o.Epsilon))
}

// handleQuery serves POST /v2/query and /v1/select: the
// body goes whole to the owner of the query it stands for, batches
// included. A memoized sketch select costs microseconds, so splitting a
// batch across owners would pay one HTTP hop per member to parallelise
// nothing — and relaying one replica's bytes is what makes a routed
// answer equal the single-node answer by construction.
func (rt *Router) handleQuery(w http.ResponseWriter, r *http.Request) {
	body, req, ok := readQuery(w, r)
	if !ok {
		return
	}
	rt.routeBody(w, r, queryKeyOf(req), body)
}

func (rt *Router) handleGraphStats(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	rt.routeBody(w, r, QueryKey(name, "ic", 0.1), nil)
}

// sketchKeyOf is the routing key of the queries a sketch serves: its id
// with the trailing seed segment zeroed, which is what QueryKey yields.
// Cutting at the LAST ":s" keeps graph names containing ':' whole.
func sketchKeyOf(id string) string {
	if cut := strings.LastIndex(id, ":s"); cut >= 0 {
		return id[:cut] + ":s0"
	}
	return id
}

// handleSketchInfo describes a sketch from the replica that serves its
// queries — the one whose selects/order_len/extensions counters move.
func (rt *Router) handleSketchInfo(w http.ResponseWriter, r *http.Request) {
	rt.routeBody(w, r, sketchKeyOf(r.PathValue("id")), nil)
}

// broadcast sends one request to every healthy replica at once and
// returns their outcomes in ring order — empty when none is healthy.
func (rt *Router) broadcast(ctx context.Context, method, path string, body []byte) []outcome {
	healthy := rt.mem.healthy()
	outs := make([]outcome, len(healthy))
	var wg sync.WaitGroup
	for i, addr := range healthy {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := rt.forward(ctx, addr, method, path, body)
			if err != nil {
				err = fmt.Errorf("replica %s: %w", addr, err)
			}
			outs[i] = outcome{res, err}
		}()
	}
	wg.Wait()
	return outs
}

// fanListMerge asks every healthy replica for a list and merges the
// results, deduplicating by the given JSON field (replicas sharing a
// store advertise identical entries).
func (rt *Router) fanListMerge(path, field, dedupKey string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		outs := rt.broadcast(r.Context(), http.MethodGet, path, nil)
		if len(outs) == 0 {
			writeError(w, http.StatusServiceUnavailable, "no healthy replica")
			return
		}
		seen := make(map[string]bool)
		merged := []json.RawMessage{}
		ok := false
		for _, out := range outs {
			if out.err != nil || out.res.status != http.StatusOK {
				continue
			}
			ok = true
			var payload map[string][]json.RawMessage
			if err := json.Unmarshal(out.res.body, &payload); err != nil {
				continue
			}
			for _, item := range payload[field] {
				var keyed map[string]any
				if err := json.Unmarshal(item, &keyed); err != nil {
					continue
				}
				k, _ := keyed[dedupKey].(string)
				if k == "" || seen[k] {
					continue
				}
				seen[k] = true
				merged = append(merged, item)
			}
		}
		if !ok {
			writeError(w, http.StatusBadGateway, "no replica answered %s", path)
			return
		}
		sort.Slice(merged, func(i, j int) bool { return string(merged[i]) < string(merged[j]) })
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(map[string]any{field: merged})
	}
}

// handleStats reports every healthy replica's stats keyed by address —
// a cluster is many worker pools and caches, so the shape is per-replica
// rather than a lossy sum.
func (rt *Router) handleStats(w http.ResponseWriter, r *http.Request) {
	stats := make(map[string]json.RawMessage)
	for _, out := range rt.broadcast(r.Context(), http.MethodGet, "/v1/stats", nil) {
		if out.err == nil && out.res.status == http.StatusOK {
			stats[out.res.replica] = out.res.body
		}
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(map[string]any{"replicas": stats})
}

// fanAll sends a mutating request to EVERY healthy replica — registry
// mutations must land everywhere, since any replica can serve any key.
// The response is the first replica's; a replica that fails the
// mutation fails the whole request so the operator knows the cluster
// diverged. (With a shared store, publishing through the store is the
// better path; this keeps the direct API working.)
func (rt *Router) fanAll(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	outs := rt.broadcast(r.Context(), r.Method, r.URL.Path, body)
	if len(outs) == 0 {
		writeError(w, http.StatusServiceUnavailable, "no healthy replica")
		return
	}
	for _, out := range outs {
		if out.err != nil {
			writeError(w, http.StatusBadGateway, "%v", out.err)
			return
		}
		if out.res.status >= 400 {
			rt.prefixJobID(out.res)
			writeUpstream(w, out.res, "mutation failed on "+out.res.replica+"; cluster may have diverged")
			return
		}
	}
	rt.prefixJobID(outs[0].res)
	writeUpstream(w, outs[0].res, "")
}

package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/holisticim/holisticim"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	g := holisticim.GenerateBA(300, 3, 1)
	g.SetUniformProb(0.1)
	holisticim.AssignOpinions(g, holisticim.OpinionNormal, 2)
	holisticim.AssignInteractions(g, 3)
	if err := s.reg.Add("g", g, "test"); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// selectStub adapts a single-selection stub onto queryFn, the server's
// one computation hook: it answers one-member select queries through fn,
// wrapping the result the way holisticim.Run wraps a selector's.
func selectStub(fn func(ctx context.Context, g *holisticim.Graph, k int, alg holisticim.Algorithm, o holisticim.Options) (holisticim.Result, error)) func(context.Context, *holisticim.Graph, holisticim.Query) (holisticim.Answer, error) {
	return func(ctx context.Context, g *holisticim.Graph, q holisticim.Query) (holisticim.Answer, error) {
		res, err := fn(ctx, g, q.Ks[0], q.Algorithm, q.Options)
		return holisticim.Answer{Members: []holisticim.Member{{K: q.Ks[0], Result: &res}}}, err
	}
}

func doJSON(t *testing.T, method, url string, body any, out any) int {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: decode: %v", method, url, err)
		}
	}
	return resp.StatusCode
}

// pollJob follows GET /v2/jobs/{id} to a terminal state and renders the
// snapshot in the v1 select shape, through the production translation.
func pollJob(t *testing.T, base, id string) SelectResponse {
	t.Helper()
	return selectResponseOf(pollQueryJob(t, base, id), 0)
}

// estimateQuery is the one-member estimate query of seeds on graph.
func estimateQuery(graph string, seeds []int32, o Options) QueryRequest {
	return QueryRequest{Graph: graph, Task: "estimate", Seeds: seeds, Options: o}
}

// runEstimate posts a one-member estimate to /v2/query, checks the
// status it answers with (202 for a Monte-Carlo job, 200 for a
// sketch-served one), follows any job to done and returns the estimate.
func runEstimate(t *testing.T, base string, req QueryRequest, want int) EstimateResult {
	t.Helper()
	var resp QueryResponse
	if code := doJSON(t, "POST", base+"/v2/query", req, &resp); code != want {
		t.Fatalf("POST /v2/query estimate: status %d, want %d (%+v)", code, want, resp)
	}
	if resp.JobID != "" {
		resp = pollQueryJob(t, base, resp.JobID)
	}
	if resp.State != StateDone || resp.Answer == nil || len(resp.Answer.Members) != 1 || resp.Answer.Members[0].Estimate == nil {
		t.Fatalf("estimate answer %+v", resp)
	}
	return *resp.Answer.Members[0].Estimate
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var out map[string]string
	if code := doJSON(t, "GET", ts.URL+"/healthz", nil, &out); code != http.StatusOK {
		t.Fatalf("healthz status %d", code)
	}
	if out["status"] != "ok" {
		t.Fatalf("healthz body %v", out)
	}
}

// TestSelectEndToEnd drives the full async flow and then proves the cache
// answers the identical repeat request without a second computation.
func TestSelectEndToEnd(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	req := SelectRequest{Graph: "g", Algorithm: "degree-discount", K: 5}

	var first SelectResponse
	if code := doJSON(t, "POST", ts.URL+"/v1/select", req, &first); code != http.StatusAccepted {
		t.Fatalf("POST select status %d (%+v)", code, first)
	}
	if first.JobID == "" || first.Cached {
		t.Fatalf("first response should be an uncached job: %+v", first)
	}
	done := pollJob(t, ts.URL, first.JobID)
	if done.State != StateDone || done.Result == nil || len(done.Result.Seeds) != 5 {
		t.Fatalf("job result %+v", done)
	}
	if got := s.SelectionsRun(); got != 1 {
		t.Fatalf("SelectionsRun = %d after first request", got)
	}

	// The identical request must come back synchronously from the cache
	// and must not run a new selection.
	var second SelectResponse
	if code := doJSON(t, "POST", ts.URL+"/v1/select", req, &second); code != http.StatusOK {
		t.Fatalf("repeat POST select status %d", code)
	}
	if !second.Cached || second.State != StateDone || second.Result == nil {
		t.Fatalf("repeat response not served from cache: %+v", second)
	}
	if fmt.Sprint(second.Result.Seeds) != fmt.Sprint(done.Result.Seeds) {
		t.Fatalf("cached seeds %v != computed %v", second.Result.Seeds, done.Result.Seeds)
	}
	if got := s.SelectionsRun(); got != 1 {
		t.Fatalf("SelectionsRun = %d, want still 1: cache hit must not recompute", got)
	}

	// Same parameters spelled out explicitly hit the same cache entry.
	explicit := req
	explicit.Options = Options{Model: "ic", PathLength: 3, Lambda: 1, Epsilon: 0.1, MCRuns: 10000, Seed: 1}
	var third SelectResponse
	if code := doJSON(t, "POST", ts.URL+"/v1/select", explicit, &third); code != http.StatusOK || !third.Cached {
		t.Fatalf("canonicalized request missed the cache: status %d %+v", code, third)
	}

	var stats ServerStats
	if code := doJSON(t, "GET", ts.URL+"/v1/stats", nil, &stats); code != http.StatusOK {
		t.Fatalf("stats status %d", code)
	}
	if stats.CacheHits < 2 || stats.SelectionsRun != 1 || stats.JobsSubmitted != 1 {
		t.Fatalf("stats %+v", stats)
	}
}

// TestSelectInflightDedup proves that identical requests racing an
// unfinished job attach to it instead of spawning a second computation.
func TestSelectInflightDedup(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	release := make(chan struct{})
	var calls atomic.Int64
	s.queryFn = selectStub(func(ctx context.Context, g *holisticim.Graph, k int, alg holisticim.Algorithm, o holisticim.Options) (holisticim.Result, error) {
		calls.Add(1)
		<-release
		return holisticim.Result{Algorithm: "stub", Seeds: make([]int32, k)}, nil
	})

	req := SelectRequest{Graph: "g", Algorithm: "degree-discount", K: 3}
	var first SelectResponse
	if code := doJSON(t, "POST", ts.URL+"/v1/select", req, &first); code != http.StatusAccepted {
		t.Fatalf("first POST status %d", code)
	}
	if first.Deduped {
		t.Fatalf("first request cannot be deduped: %+v", first)
	}

	// Wait until the stub is actually running, then race a duplicate.
	deadline := time.Now().Add(5 * time.Second)
	for calls.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("selection never started")
		}
		time.Sleep(time.Millisecond)
	}
	var second SelectResponse
	if code := doJSON(t, "POST", ts.URL+"/v1/select", req, &second); code != http.StatusAccepted {
		t.Fatalf("duplicate POST status %d", code)
	}
	if !second.Deduped || second.JobID != first.JobID {
		t.Fatalf("duplicate should share job %s: %+v", first.JobID, second)
	}

	close(release)
	done := pollJob(t, ts.URL, first.JobID)
	if done.State != StateDone || len(done.Result.Seeds) != 3 {
		t.Fatalf("job result %+v", done)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("underlying selection ran %d times, want 1", got)
	}
}

func TestSelectValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name string
		body any
		want int
	}{
		{"unknown graph", SelectRequest{Graph: "nope", Algorithm: "degree-discount", K: 3}, http.StatusNotFound},
		{"unknown algorithm", SelectRequest{Graph: "g", Algorithm: "quantum", K: 3}, http.StatusBadRequest},
		{"zero k", SelectRequest{Graph: "g", Algorithm: "degree-discount", K: 0}, http.StatusBadRequest},
		{"k too large", SelectRequest{Graph: "g", Algorithm: "degree-discount", K: 301}, http.StatusBadRequest},
		{"bad model", SelectRequest{Graph: "g", Algorithm: "degree-discount", K: 3, Options: Options{Model: "warp"}}, http.StatusBadRequest},
		{"runs over cap", SelectRequest{Graph: "g", Algorithm: "greedy", K: 3, Options: Options{MCRuns: maxMCRuns + 1}}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		var out map[string]any
		if code := doJSON(t, "POST", ts.URL+"/v1/select", tc.body, &out); code != tc.want {
			t.Errorf("%s: status %d, want %d (%v)", tc.name, code, tc.want, out)
		} else if out["error"] == "" {
			t.Errorf("%s: missing error message", tc.name)
		}
	}
	// Malformed and unknown-field JSON.
	resp, err := http.Post(ts.URL+"/v1/select", "application/json", bytes.NewReader([]byte(`{"graph": "g",`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed JSON: status %d", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/v1/select", "application/json", bytes.NewReader([]byte(`{"grapf": "g"}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown field: status %d", resp.StatusCode)
	}
	// Unknown job id.
	var out map[string]any
	if code := doJSON(t, "GET", ts.URL+"/v2/jobs/zzz", nil, &out); code != http.StatusNotFound {
		t.Fatalf("unknown job: status %d", code)
	}
}

func TestSelectQueueFull(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueCap: 1})
	release := make(chan struct{})
	defer close(release)
	var started atomic.Int64
	s.queryFn = selectStub(func(ctx context.Context, g *holisticim.Graph, k int, alg holisticim.Algorithm, o holisticim.Options) (holisticim.Result, error) {
		started.Add(1)
		<-release
		return holisticim.Result{Seeds: make([]int32, k)}, nil
	})
	post := func(seed uint64) int {
		var out map[string]any
		return doJSON(t, "POST", ts.URL+"/v1/select",
			SelectRequest{Graph: "g", Algorithm: "degree-discount", K: 2, Options: Options{Seed: seed}}, &out)
	}
	if code := post(1); code != http.StatusAccepted {
		t.Fatalf("first POST: %d", code)
	}
	deadline := time.Now().Add(5 * time.Second)
	for started.Load() == 0 { // worker busy => next job will sit in the queue
		if time.Now().After(deadline) {
			t.Fatal("first selection never started")
		}
		time.Sleep(time.Millisecond)
	}
	if code := post(2); code != http.StatusAccepted {
		t.Fatalf("second POST: %d", code)
	}
	// Queue full is load shedding, not failure: 429 with a Retry-After
	// hint and the uniform envelope, so routers can tell overload apart
	// from a hard error and fail over instead of giving up.
	body, _ := json.Marshal(SelectRequest{Graph: "g", Algorithm: "degree-discount", K: 2, Options: Options{Seed: 3}})
	resp, err := http.Post(ts.URL+"/v1/select", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third POST: %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("queue-full rejection carries no Retry-After header")
	}
	var envelope ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&envelope); err != nil {
		t.Fatal(err)
	}
	if envelope.Error.Code != "too_many_requests" {
		t.Fatalf("error code %q, want too_many_requests", envelope.Error.Code)
	}
}

// TestEstimateEndpoint: a one-member Monte-Carlo estimate on /v2/query
// is a 202 job whose answer carries the requested runs and the opinion
// identity at the requested λ.
func TestEstimateEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	est := runEstimate(t, ts.URL, estimateQuery("g", []int32{0, 1, 2}, Options{MCRuns: 200, Seed: 4}), http.StatusAccepted)
	if est.Runs != 200 || est.Spread <= 0 {
		t.Fatalf("estimate %+v", est)
	}

	// Opinion-aware model populates the opinion decomposition and the
	// effective spread identity must hold at the requested λ.
	oest := runEstimate(t, ts.URL, estimateQuery("g", []int32{0, 1, 2},
		Options{Model: "oi-ic", MCRuns: 200, Seed: 4, Lambda: 2}), http.StatusAccepted)
	if oest.Lambda != 2 {
		t.Fatalf("lambda %v, want 2", oest.Lambda)
	}
	want := oest.PositiveSpread - 2*oest.NegativeSpread
	if diff := oest.EffectiveOpinionSpread - want; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("effective spread %v != P - λN = %v", oest.EffectiveOpinionSpread, want)
	}

	bad := []struct {
		name string
		body QueryRequest
		want int
	}{
		{"unknown graph", estimateQuery("nope", []int32{0}, Options{}), http.StatusNotFound},
		{"empty seeds", estimateQuery("g", nil, Options{}), http.StatusBadRequest},
		{"seed out of range", estimateQuery("g", []int32{999}, Options{}), http.StatusBadRequest},
		{"negative seed", estimateQuery("g", []int32{-1}, Options{}), http.StatusBadRequest},
		{"bad model", estimateQuery("g", []int32{0}, Options{Model: "warp"}), http.StatusBadRequest},
		{"runs over cap", estimateQuery("g", []int32{0}, Options{MCRuns: maxMCRuns + 1}), http.StatusBadRequest},
	}
	for _, tc := range bad {
		var out map[string]any
		if code := doJSON(t, "POST", ts.URL+"/v2/query", tc.body, &out); code != tc.want {
			t.Errorf("%s: status %d, want %d (%v)", tc.name, code, tc.want, out)
		}
	}
}

func TestGraphEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var list struct {
		Graphs []GraphInfo `json:"graphs"`
	}
	if code := doJSON(t, "GET", ts.URL+"/v1/graphs", nil, &list); code != http.StatusOK {
		t.Fatalf("list status %d", code)
	}
	if len(list.Graphs) != 1 || list.Graphs[0].Name != "g" {
		t.Fatalf("list %+v", list)
	}

	var st GraphStats
	if code := doJSON(t, "GET", ts.URL+"/v1/graphs/g", nil, &st); code != http.StatusOK {
		t.Fatalf("stats status %d", code)
	}
	if st.Nodes != 300 || st.AvgOutDegree <= 0 || st.MeanEdgeProb <= 0 {
		t.Fatalf("stats %+v", st)
	}
	if code := doJSON(t, "GET", ts.URL+"/v1/graphs/nope", nil, &map[string]any{}); code != http.StatusNotFound {
		t.Fatalf("missing graph stats status %d", code)
	}

	// Generate a new graph through the API, then select on it.
	spec := GraphSpec{Name: "api-ba", Generator: "ba", Nodes: 120, EdgesPerNode: 2,
		Seed: 5, Prob: f64(0.1), Opinions: "uniform"}
	var created GraphInfo
	if code := doJSON(t, "POST", ts.URL+"/v1/graphs", spec, &created); code != http.StatusCreated {
		t.Fatalf("create status %d (%+v)", code, created)
	}
	if created.Name != "api-ba" || created.Nodes != 120 {
		t.Fatalf("created %+v", created)
	}
	if code := doJSON(t, "POST", ts.URL+"/v1/graphs", spec, &map[string]any{}); code != http.StatusConflict {
		t.Fatalf("duplicate create status %d", code)
	}
	var sel SelectResponse
	if code := doJSON(t, "POST", ts.URL+"/v1/select",
		SelectRequest{Graph: "api-ba", Algorithm: "degree-discount", K: 4}, &sel); code != http.StatusAccepted {
		t.Fatalf("select on created graph: %d", code)
	}
	if done := pollJob(t, ts.URL, sel.JobID); len(done.Result.Seeds) != 4 {
		t.Fatalf("selection on created graph: %+v", done)
	}

	// Path loading is forbidden unless the server opted in.
	if code := doJSON(t, "POST", ts.URL+"/v1/graphs",
		GraphSpec{Name: "fs", Path: "/etc/hosts"}, &map[string]any{}); code != http.StatusForbidden {
		t.Fatalf("path load status %d, want 403", code)
	}
	// A path spec that fails validation (not permissions) is a 400.
	if code := doJSON(t, "POST", ts.URL+"/v1/graphs",
		GraphSpec{Name: "both", Path: "/etc/hosts", Generator: "ba", Nodes: 10},
		&map[string]any{}); code != http.StatusBadRequest {
		t.Fatalf("path+generator spec status %d, want 400", code)
	}
	// Oversized generator specs are rejected before any allocation —
	// including BA, whose arc count is implied by nodes*edges_per_node.
	if code := doJSON(t, "POST", ts.URL+"/v1/graphs",
		GraphSpec{Name: "huge", Generator: "rmat", Nodes: 2_000_000_000, Arcs: 50_000_000_000},
		&map[string]any{}); code != http.StatusBadRequest {
		t.Fatalf("oversized rmat spec status %d, want 400", code)
	}
	if code := doJSON(t, "POST", ts.URL+"/v1/graphs",
		GraphSpec{Name: "huge-ba", Generator: "ba", Nodes: 4_000_000, EdgesPerNode: 5000},
		&map[string]any{}); code != http.StatusBadRequest {
		t.Fatalf("oversized ba spec status %d, want 400", code)
	}
	// Undirected R-MAT doubles each sampled edge; at the raw-arc cap it
	// would materialize 2x the bound and must be rejected.
	if code := doJSON(t, "POST", ts.URL+"/v1/graphs",
		GraphSpec{Name: "huge-rm", Generator: "rmat", Nodes: 1000, Arcs: 50_000_000, Undirected: true},
		&map[string]any{}); code != http.StatusBadRequest {
		t.Fatalf("oversized undirected rmat spec status %d, want 400", code)
	}
	// The generators need two nodes; a one-node spec is the error envelope,
	// not a handler panic.
	for _, spec := range []GraphSpec{
		{Name: "tiny-ba", Generator: "ba", Nodes: 1, EdgesPerNode: 1},
		{Name: "tiny-rm", Generator: "rmat", Nodes: 1, Arcs: 4},
	} {
		var out ErrorResponse
		if code := doJSON(t, "POST", ts.URL+"/v1/graphs", spec, &out); code != http.StatusBadRequest || out.Error.Code != "bad_request" {
			t.Fatalf("one-node %s spec: status %d %+v, want 400", spec.Generator, code, out)
		}
	}
}

// TestMCRunsCap: one Monte-Carlo budget cap, maxMCRuns, bounds a select
// and an estimate alike; a budget within it runs as a job.
func TestMCRunsCap(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	over := []QueryRequest{
		{Graph: "g", Algorithm: "greedy", K: 2, Options: Options{MCRuns: maxMCRuns + 1}},
		estimateQuery("g", []int32{0}, Options{MCRuns: maxMCRuns + 1}),
	}
	for _, req := range over {
		var out ErrorResponse
		if code := doJSON(t, "POST", ts.URL+"/v2/query", req, &out); code != http.StatusBadRequest || out.Error.Code != "bad_request" {
			t.Fatalf("%+v over the cap: status %d %+v, want 400", req, code, out)
		}
	}
	if est := runEstimate(t, ts.URL, estimateQuery("g", []int32{0}, Options{MCRuns: 500}), http.StatusAccepted); est.Runs != 500 {
		t.Fatalf("within-cap estimate ran %d runs, want 500", est.Runs)
	}
}

// TestQueryOptionsRefused: option values no selector can run — a negative
// λ (OSIM's scorer panics on one), a path length past the cap (EaSyIM and
// OSIM allocate l rows of n floats), an ε outside (0,1] — answer 400
// before a job is queued, and the server still answers a valid query.
func TestQueryOptionsRefused(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, req := range []QueryRequest{
		{Graph: "g", Algorithm: "osim", K: 2, Options: Options{Lambda: -1, MCRuns: 50}},
		{Graph: "g", Algorithm: "easyim", K: 2, Options: Options{PathLength: maxPathLength + 1, MCRuns: 50}},
		{Graph: "g", Algorithm: "imm", K: 2, Options: Options{Epsilon: 5}},
	} {
		var out ErrorResponse
		if code := doJSON(t, "POST", ts.URL+"/v2/query", req, &out); code != http.StatusBadRequest || out.Error.Code != "bad_request" {
			t.Fatalf("%+v: status %d %+v, want 400", req, code, out)
		}
	}
	var out ErrorResponse
	if code := doJSON(t, "POST", ts.URL+"/v1/select",
		SelectRequest{Graph: "g", Algorithm: "osim", K: 2, Options: Options{Lambda: -1, MCRuns: 50}}, &out); code != http.StatusBadRequest {
		t.Fatalf("v1 select with λ=-1: status %d %+v, want 400", code, out)
	}
	var sel SelectResponse
	if code := doJSON(t, "POST", ts.URL+"/v1/select",
		SelectRequest{Graph: "g", Algorithm: "osim", K: 2, Options: Options{PathLength: maxPathLength, MCRuns: 50}}, &sel); code != http.StatusAccepted {
		t.Fatalf("valid select: status %d", code)
	}
	if done := pollJob(t, ts.URL, sel.JobID); len(done.Result.Seeds) != 2 {
		t.Fatalf("valid select after the refusals: %+v", done)
	}
}

func TestGraphRegistryCapacity(t *testing.T) {
	_, ts := newTestServer(t, Config{}) // "g" occupies one slot
	for i := 1; i < maxGraphs; i++ {
		ok := GraphSpec{Name: fmt.Sprintf("g%d", i), Generator: "ba", Nodes: 20, EdgesPerNode: 2}
		if code := doJSON(t, "POST", ts.URL+"/v1/graphs", ok, &map[string]any{}); code != http.StatusCreated {
			t.Fatalf("create graph %d within capacity: %d", i+1, code)
		}
	}
	over := GraphSpec{Name: "over", Generator: "ba", Nodes: 20, EdgesPerNode: 2}
	if code := doJSON(t, "POST", ts.URL+"/v1/graphs", over, &map[string]any{}); code != http.StatusTooManyRequests {
		t.Fatalf("create graph %d: %d, want 429", maxGraphs+1, code)
	}
}

// TestConcurrentSelects exercises the full HTTP path under parallel load
// (run with -race): many clients, few distinct requests — the server must
// coalesce them into at most one computation per fingerprint.
func TestConcurrentSelects(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 4, QueueCap: 256})
	const clients = 24
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			req := SelectRequest{Graph: "g", Algorithm: "degree-discount", K: 2 + c%3}
			var resp SelectResponse
			code := doJSON(t, "POST", ts.URL+"/v1/select", req, &resp)
			switch code {
			case http.StatusOK:
				if !resp.Cached {
					errs <- fmt.Errorf("client %d: 200 without cache flag", c)
				}
			case http.StatusAccepted:
				done := pollJob(t, ts.URL, resp.JobID)
				if done.State != StateDone || len(done.Result.Seeds) != 2+c%3 {
					errs <- fmt.Errorf("client %d: job %+v", c, done)
				}
			default:
				errs <- fmt.Errorf("client %d: status %d", c, code)
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// 3 distinct fingerprints (k = 2,3,4) => at most 3 computations.
	if got := s.SelectionsRun(); got < 1 || got > 3 {
		t.Fatalf("SelectionsRun = %d, want 1..3", got)
	}
}

// blockingSelectFn installs a selection stub that signals when it starts
// and then blocks until its context is cancelled, returning a canonical
// partial result — the shape every cancellation path sees.
func blockingSelectFn(s *Server) (started chan string, unblocked *atomic.Int64) {
	started = make(chan string, 16)
	unblocked = &atomic.Int64{}
	s.queryFn = selectStub(func(ctx context.Context, g *holisticim.Graph, k int, alg holisticim.Algorithm, o holisticim.Options) (holisticim.Result, error) {
		started <- "started"
		<-ctx.Done()
		unblocked.Add(1)
		return holisticim.Result{Algorithm: "stub", Seeds: []int32{0}, Partial: true},
			fmt.Errorf("stub interrupted: %w", ctx.Err())
	})
	return started, unblocked
}

// TestCancelRunningJob drives DELETE /v2/jobs/{id} against a running job:
// the job must transition to "canceled", retain the partial result, and
// free its worker slot for queued work.
func TestCancelRunningJob(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	started, unblocked := blockingSelectFn(s)

	var first SelectResponse
	if code := doJSON(t, "POST", ts.URL+"/v1/select",
		SelectRequest{Graph: "g", Algorithm: "degree-discount", K: 3}, &first); code != http.StatusAccepted {
		t.Fatalf("POST select status %d", code)
	}
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("selection never started")
	}

	var del QueryResponse
	if code := doJSON(t, "DELETE", ts.URL+"/v2/jobs/"+first.JobID, nil, &del); code != http.StatusOK {
		t.Fatalf("DELETE status %d (%+v)", code, del)
	}
	done := pollJob(t, ts.URL, first.JobID)
	if done.State != StateCanceled {
		t.Fatalf("state %q after cancel, want canceled", done.State)
	}
	if done.Error == "" {
		t.Fatalf("canceled job should surface its error: %+v", done)
	}
	if done.Result == nil || !done.Result.Partial || len(done.Result.Seeds) != 1 {
		t.Fatalf("canceled job should retain the partial result: %+v", done.Result)
	}
	if got := unblocked.Load(); got != 1 {
		t.Fatalf("selection stub unblocked %d times, want 1", got)
	}

	// The freed worker slot must pick up fresh work: a different request
	// (distinct fingerprint) completes normally.
	s.queryFn = holisticim.Run
	var second SelectResponse
	if code := doJSON(t, "POST", ts.URL+"/v1/select",
		SelectRequest{Graph: "g", Algorithm: "degree-discount", K: 2}, &second); code != http.StatusAccepted {
		t.Fatalf("post-cancel POST status %d", code)
	}
	if res := pollJob(t, ts.URL, second.JobID); res.State != StateDone || len(res.Result.Seeds) != 2 {
		t.Fatalf("post-cancel job %+v", res)
	}

	// Idempotency: a second DELETE answers 200 with the canceled state.
	if code := doJSON(t, "DELETE", ts.URL+"/v2/jobs/"+first.JobID, nil, &del); code != http.StatusOK || del.State != StateCanceled {
		t.Fatalf("repeat DELETE: status %d state %q", code, del.State)
	}
	// Cancelling a finished job is a conflict.
	if code := doJSON(t, "DELETE", ts.URL+"/v2/jobs/"+second.JobID, nil, &del); code != http.StatusConflict {
		t.Fatalf("DELETE on done job: status %d, want 409", code)
	}
	// Unknown ids are 404.
	if code := doJSON(t, "DELETE", ts.URL+"/v2/jobs/zzz", nil, &map[string]any{}); code != http.StatusNotFound {
		t.Fatalf("DELETE unknown job: status %d, want 404", code)
	}
}

// TestCancelQueuedJob cancels a job that never reached a worker: it must
// transition immediately and the worker must skip it entirely.
func TestCancelQueuedJob(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueCap: 4})
	started, _ := blockingSelectFn(s)

	var blockerResp SelectResponse
	if code := doJSON(t, "POST", ts.URL+"/v1/select",
		SelectRequest{Graph: "g", Algorithm: "degree-discount", K: 3}, &blockerResp); code != http.StatusAccepted {
		t.Fatalf("blocker POST status %d", code)
	}
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("blocker never started")
	}
	var queued SelectResponse
	if code := doJSON(t, "POST", ts.URL+"/v1/select",
		SelectRequest{Graph: "g", Algorithm: "degree-discount", K: 4}, &queued); code != http.StatusAccepted {
		t.Fatalf("queued POST status %d", code)
	}

	var del QueryResponse
	if code := doJSON(t, "DELETE", ts.URL+"/v2/jobs/"+queued.JobID, nil, &del); code != http.StatusOK {
		t.Fatalf("DELETE queued job: status %d", code)
	}
	if del.State != StateCanceled {
		t.Fatalf("queued job state %q after cancel, want canceled", del.State)
	}
	// Unblock the runner and prove the canceled job never ran.
	if code := doJSON(t, "DELETE", ts.URL+"/v2/jobs/"+blockerResp.JobID, nil, &del); code != http.StatusOK {
		t.Fatalf("DELETE blocker: status %d", code)
	}
	pollJob(t, ts.URL, blockerResp.JobID)
	if st := pollJob(t, ts.URL, queued.JobID); st.State != StateCanceled {
		t.Fatalf("queued job resurrected into %q", st.State)
	}
	if got := s.SelectionsRun(); got != 0 {
		t.Fatalf("SelectionsRun = %d, want 0 (both jobs canceled)", got)
	}
}

// TestSelectTimeoutMS proves a per-job timeout_ms bounds the selection:
// the job fails with a deadline error, retains the partial prefix, and
// the partial result never poisons the cache.
func TestSelectTimeoutMS(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	s.queryFn = selectStub(func(ctx context.Context, g *holisticim.Graph, k int, alg holisticim.Algorithm, o holisticim.Options) (holisticim.Result, error) {
		<-ctx.Done() // simulate a selection that outlives its deadline
		return holisticim.Result{Algorithm: "stub", Seeds: []int32{0, 1}, Partial: true},
			fmt.Errorf("stub interrupted: %w", ctx.Err())
	})
	req := SelectRequest{Graph: "g", Algorithm: "degree-discount", K: 5, TimeoutMS: 30}
	var resp SelectResponse
	if code := doJSON(t, "POST", ts.URL+"/v1/select", req, &resp); code != http.StatusAccepted {
		t.Fatalf("POST status %d", code)
	}
	done := pollJob(t, ts.URL, resp.JobID)
	if done.State != StateFailed {
		t.Fatalf("timed-out job state %q, want failed", done.State)
	}
	if done.Result == nil || !done.Result.Partial || len(done.Result.Seeds) != 2 {
		t.Fatalf("timed-out job should retain its partial prefix: %+v", done.Result)
	}

	// The identical request must MISS the cache (partials are not cached)
	// and, with the real planner back, complete cleanly.
	s.queryFn = holisticim.Run
	var retry SelectResponse
	if code := doJSON(t, "POST", ts.URL+"/v1/select", req, &retry); code != http.StatusAccepted {
		t.Fatalf("retry POST status %d (cache must not serve partials)", code)
	}
	if got := pollJob(t, ts.URL, retry.JobID); got.State != StateDone || len(got.Result.Seeds) != 5 {
		t.Fatalf("retry job %+v", got)
	}

	// Negative timeouts are rejected at admission.
	bad := SelectRequest{Graph: "g", Algorithm: "degree-discount", K: 2, TimeoutMS: -5}
	if code := doJSON(t, "POST", ts.URL+"/v1/select", bad, &map[string]any{}); code != http.StatusBadRequest {
		t.Fatalf("negative timeout_ms: status %d, want 400", code)
	}
}

// TestJobProgressReporting watches seeds_done/k climb while a selection
// runs: the progress plumbing from Options.Progress through the job's
// atomic counter must be visible over HTTP before the job finishes.
func TestJobProgressReporting(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	release := make(chan struct{})
	s.queryFn = selectStub(func(ctx context.Context, g *holisticim.Graph, k int, alg holisticim.Algorithm, o holisticim.Options) (holisticim.Result, error) {
		seeds := make([]int32, 0, k)
		for i := 0; i < k; i++ {
			seeds = append(seeds, int32(i))
			if o.Progress != nil {
				o.Progress(i, int32(i), time.Duration(i))
			}
			if i == k/2 {
				<-release // hold mid-selection so the test can observe progress
			}
		}
		return holisticim.Result{Algorithm: "stub", Seeds: seeds}, nil
	})
	var resp SelectResponse
	if code := doJSON(t, "POST", ts.URL+"/v1/select",
		SelectRequest{Graph: "g", Algorithm: "degree-discount", K: 6}, &resp); code != http.StatusAccepted {
		t.Fatalf("POST status %d", code)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		var st QueryResponse
		if code := doJSON(t, "GET", ts.URL+"/v2/jobs/"+resp.JobID, nil, &st); code != http.StatusOK {
			t.Fatalf("GET job status %d", code)
		}
		if st.State == StateRunning && st.SeedsDone >= 3 {
			// The v2 shape carries no k; the job record holds the budget
			// progress is reported against.
			job, ok := s.jobs.Get(resp.JobID)
			if !ok {
				t.Fatalf("job %s not retained", resp.JobID)
			}
			if k := job.Snapshot().K; k != 6 {
				t.Fatalf("running job k=%d, want 6", k)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("never observed live progress (last %+v)", st)
		}
		time.Sleep(2 * time.Millisecond)
	}
	close(release)
	done := pollJob(t, ts.URL, resp.JobID)
	if done.State != StateDone || done.SeedsDone != 6 {
		t.Fatalf("final status %+v", done)
	}
}

package service

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/holisticim/holisticim"
)

func pollQueryJob(t *testing.T, base, id string) QueryResponse {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		var st QueryResponse
		if code := doJSON(t, "GET", base+"/v2/jobs/"+id, nil, &st); code != http.StatusOK {
			t.Fatalf("GET /v2/jobs/%s: status %d", id, code)
		}
		if st.State == StateDone || st.State == StateFailed || st.State == StateCanceled {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in state %s", id, st.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestQuerySelectSingle drives a one-member select through /v2/query:
// plan in the 202, answer with plan on completion, cache hit on repeat —
// and the same fingerprint serves the v1 surface.
func TestQuerySelectSingle(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	req := QueryRequest{Graph: "g", Algorithm: "degree-discount", K: 5}

	var first QueryResponse
	if code := doJSON(t, "POST", ts.URL+"/v2/query", req, &first); code != http.StatusAccepted {
		t.Fatalf("POST /v2/query status %d (%+v)", code, first)
	}
	if first.JobID == "" || first.Plan == nil || len(first.Plan.Steps) != 1 {
		t.Fatalf("202 must carry the job id and plan: %+v", first)
	}
	if first.Plan.Steps[0].Backend != holisticim.BackendHeuristic || first.Plan.Steps[0].Reason == "" {
		t.Fatalf("plan step %+v", first.Plan.Steps[0])
	}
	done := pollQueryJob(t, ts.URL, first.JobID)
	if done.State != StateDone || done.Answer == nil || len(done.Answer.Members) != 1 {
		t.Fatalf("job result %+v", done)
	}
	m := done.Answer.Members[0]
	if m.K != 5 || m.Result == nil || len(m.Result.Seeds) != 5 {
		t.Fatalf("member %+v", m)
	}
	if done.Members != 1 || done.MembersDone != 1 {
		t.Fatalf("member progress %+v", done)
	}
	if got := s.Stats().QueriesRun; got != 1 {
		t.Fatalf("QueriesRun = %d", got)
	}

	// Repeat: cached, with the answer inline.
	var second QueryResponse
	if code := doJSON(t, "POST", ts.URL+"/v2/query", req, &second); code != http.StatusOK || !second.Cached {
		t.Fatalf("repeat POST: status %d %+v", code, second)
	}
	if second.Answer == nil || fmt.Sprint(second.Answer.Members[0].Result.Seeds) != fmt.Sprint(m.Result.Seeds) {
		t.Fatalf("cached answer %+v", second.Answer)
	}

	// The v1 surface shares the cache entry: an equivalent /v1/select is
	// answered without a new job or computation.
	var v1 SelectResponse
	if code := doJSON(t, "POST", ts.URL+"/v1/select",
		SelectRequest{Graph: "g", Algorithm: "degree-discount", K: 5}, &v1); code != http.StatusOK || !v1.Cached {
		t.Fatalf("v1 request missed the shared cache: status %d %+v", code, v1)
	}
	if fmt.Sprint(v1.Result.Seeds) != fmt.Sprint(m.Result.Seeds) {
		t.Fatalf("v1 cached seeds %v != v2 %v", v1.Result.Seeds, m.Result.Seeds)
	}
	if got := s.Stats().QueriesRun; got != 1 {
		t.Fatalf("QueriesRun = %d after cache hits, want 1", got)
	}
}

// TestQueryBatchSelect: a batch of k values completes as one job whose
// members keep the memoized-greedy prefix invariant, in request order.
func TestQueryBatchSelect(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	req := QueryRequest{Graph: "g", Algorithm: "degree-discount", Ks: []int{8, 3, 5}}
	var resp QueryResponse
	if code := doJSON(t, "POST", ts.URL+"/v2/query", req, &resp); code != http.StatusAccepted {
		t.Fatalf("POST status %d", code)
	}
	if resp.Members != 3 {
		t.Fatalf("202 members %d", resp.Members)
	}
	done := pollQueryJob(t, ts.URL, resp.JobID)
	if done.State != StateDone || len(done.Answer.Members) != 3 || done.MembersDone != 3 {
		t.Fatalf("batch result %+v", done)
	}
	if st := done.Answer.Plan.Steps[0]; st.Shared == "" {
		t.Fatalf("batch plan should name shared state: %+v", st)
	}
	byK := map[int][]int32{}
	for i, want := range []int{8, 3, 5} {
		m := done.Answer.Members[i]
		if m.K != want || m.Result == nil || len(m.Result.Seeds) != want {
			t.Fatalf("member %d: %+v", i, m)
		}
		byK[m.K] = m.Result.Seeds
	}
	for _, k := range []int{3, 5} {
		for i, s := range byK[k] {
			if s != byK[8][i] {
				t.Fatalf("k=%d member not a prefix of k=8 at seed %d", k, i)
			}
		}
	}
	if got := s.SelectionsRun(); got != 1 {
		t.Fatalf("batch ran %d selections, want 1 shared run", got)
	}
}

// TestQueryEstimateBatch: estimate batches infer the task from
// seed_sets, share one model, report per-member progress and cache the
// whole answer.
func TestQueryEstimateBatch(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := QueryRequest{Graph: "g", SeedSets: [][]int32{{0, 1}, {2, 3}, {4}},
		Options: Options{MCRuns: 100, Seed: 4}}
	var resp QueryResponse
	if code := doJSON(t, "POST", ts.URL+"/v2/query", req, &resp); code != http.StatusAccepted {
		t.Fatalf("POST status %d (%+v)", code, resp)
	}
	done := pollQueryJob(t, ts.URL, resp.JobID)
	if done.State != StateDone || done.Answer == nil || done.Answer.Task != "estimate" {
		t.Fatalf("estimate job %+v", done)
	}
	if len(done.Answer.Members) != 3 || done.MembersDone != 3 {
		t.Fatalf("members %+v", done.Answer.Members)
	}
	for i, m := range done.Answer.Members {
		if m.Estimate == nil || m.Estimate.Runs != 100 || m.Estimate.Spread <= 0 {
			t.Fatalf("member %d estimate %+v", i, m.Estimate)
		}
	}
	var second QueryResponse
	if code := doJSON(t, "POST", ts.URL+"/v2/query", req, &second); code != http.StatusOK || !second.Cached {
		t.Fatalf("repeat estimate not cached: %d %+v", code, second)
	}
}

// TestQueryCacheIgnoresLifecycleFields: two queries differing only in
// request-lifecycle fields (timeout_ms) share one cache entry — the
// fingerprint-hygiene contract at the service boundary.
func TestQueryCacheIgnoresLifecycleFields(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	first := QueryRequest{Graph: "g", Algorithm: "degree-discount", Ks: []int{2, 4}}
	var resp QueryResponse
	if code := doJSON(t, "POST", ts.URL+"/v2/query", first, &resp); code != http.StatusAccepted {
		t.Fatalf("POST status %d", code)
	}
	pollQueryJob(t, ts.URL, resp.JobID)

	withTimeout := first
	withTimeout.TimeoutMS = 60_000
	var second QueryResponse
	if code := doJSON(t, "POST", ts.URL+"/v2/query", withTimeout, &second); code != http.StatusOK || !second.Cached {
		t.Fatalf("timeout_ms split the cache key: status %d %+v", code, second)
	}
	if got := s.SelectionsRun(); got != 1 {
		t.Fatalf("SelectionsRun = %d, want 1", got)
	}
}

// TestQueryValidation: the planner's rejections surface as 400s in the
// uniform error envelope; unknown graphs are 404s.
func TestQueryValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	oversized := make([]int, maxQueryMembers+1)
	for i := range oversized {
		oversized[i] = i + 1
	}
	cases := []struct {
		name string
		req  QueryRequest
		want int
		code string
	}{
		{"unknown graph", QueryRequest{Graph: "nope", Algorithm: "degree-discount", K: 2}, http.StatusNotFound, "not_found"},
		{"unknown algorithm", QueryRequest{Graph: "g", Algorithm: "quantum", K: 2}, http.StatusBadRequest, "bad_request"},
		{"removed algorithm", QueryRequest{Graph: "g", Algorithm: "pagerank", K: 2}, http.StatusBadRequest, "bad_request"},
		{"zero k", QueryRequest{Graph: "g", Algorithm: "degree-discount"}, http.StatusBadRequest, "bad_request"},
		{"bad batch member", QueryRequest{Graph: "g", Algorithm: "degree-discount", Ks: []int{2, 0}}, http.StatusBadRequest, "bad_request"},
		{"oversized batch", QueryRequest{Graph: "g", Algorithm: "degree-discount", Ks: oversized}, http.StatusBadRequest, "bad_request"},
		{"bad task", QueryRequest{Graph: "g", Task: "transmogrify", Algorithm: "degree-discount", K: 2}, http.StatusBadRequest, "bad_request"},
		{"bad model", QueryRequest{Graph: "g", Algorithm: "degree-discount", K: 2, Options: Options{Model: "warp"}}, http.StatusBadRequest, "bad_request"},
		{"empty seed set", QueryRequest{Graph: "g", Task: "estimate", SeedSets: [][]int32{{}}}, http.StatusBadRequest, "bad_request"},
		{"seed out of range", QueryRequest{Graph: "g", SeedSets: [][]int32{{999}}}, http.StatusBadRequest, "bad_request"},
		{"negative timeout", QueryRequest{Graph: "g", Algorithm: "degree-discount", K: 2, TimeoutMS: -1}, http.StatusBadRequest, "bad_request"},
		{"runs over cap", QueryRequest{Graph: "g", Algorithm: "greedy", K: 2, Options: Options{MCRuns: maxMCRuns + 1}}, http.StatusBadRequest, "bad_request"},
	}
	for _, tc := range cases {
		var out ErrorResponse
		if code := doJSON(t, "POST", ts.URL+"/v2/query", tc.req, &out); code != tc.want {
			t.Errorf("%s: status %d, want %d (%+v)", tc.name, code, tc.want, out)
		} else if out.Error.Code != tc.code || out.Error.Message == "" {
			t.Errorf("%s: envelope %+v, want code %q", tc.name, out, tc.code)
		}
	}
}

// TestErrorEnvelopeAndMethodNotAllowed: every route answers method
// mismatches with 405 + Allow and unknown paths with 404, both in the
// shared JSON envelope.
func TestErrorEnvelopeAndMethodNotAllowed(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/healthz", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /healthz status %d, want 405", resp.StatusCode)
	}
	if allow := resp.Header.Get("Allow"); !strings.Contains(allow, http.MethodGet) {
		t.Fatalf("405 Allow header %q does not list GET", allow)
	}
	var env ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatalf("405 body is not the JSON envelope: %v", err)
	}
	if env.Error.Code != "method_not_allowed" || env.Error.Message == "" {
		t.Fatalf("405 envelope %+v", env)
	}

	var env404 ErrorResponse
	if code := doJSON(t, "GET", ts.URL+"/v9/nothing", nil, &env404); code != http.StatusNotFound {
		t.Fatalf("unknown path status %d", code)
	}
	if env404.Error.Code != "not_found" || env404.Error.Message == "" {
		t.Fatalf("404 envelope %+v", env404)
	}

	// A mismatched verb on a parameterized route: GET-only job routes
	// reject PUT with the verbs that do exist there.
	req, _ = http.NewRequest(http.MethodPut, ts.URL+"/v2/jobs/zzz", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("PUT /v2/jobs/{id} status %d, want 405", resp.StatusCode)
	}
	allow := resp.Header.Get("Allow")
	if !strings.Contains(allow, http.MethodGet) || !strings.Contains(allow, http.MethodDelete) {
		t.Fatalf("Allow %q should list GET and DELETE", allow)
	}
}

// TestQueryEventsStream: GET /v2/jobs/{id}/events streams NDJSON
// progress snapshots while the job runs and a final event carrying the
// answer, then closes.
func TestQueryEventsStream(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	release := make(chan struct{})
	s.queryFn = func(ctx context.Context, g *holisticim.Graph, q holisticim.Query) (holisticim.Answer, error) {
		for i := 0; i < 3; i++ {
			if q.Options.Progress != nil {
				q.Options.Progress(i, int32(i), 0)
			}
		}
		<-release
		res := holisticim.Result{Algorithm: "stub", Seeds: []int32{0, 1, 2}}
		return holisticim.Answer{Members: []holisticim.Member{{K: 3, Result: &res}}}, nil
	}

	var resp QueryResponse
	if code := doJSON(t, "POST", ts.URL+"/v2/query",
		QueryRequest{Graph: "g", Algorithm: "degree-discount", K: 3}, &resp); code != http.StatusAccepted {
		t.Fatalf("POST status %d", code)
	}

	stream, err := http.Get(ts.URL + "/v2/jobs/" + resp.JobID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()
	if ct := stream.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	rd := bufio.NewReader(stream.Body)
	var events []QueryResponse
	sawRunning := false
	for {
		line, err := rd.ReadString('\n')
		if line != "" {
			var ev QueryResponse
			if jerr := json.Unmarshal([]byte(line), &ev); jerr != nil {
				t.Fatalf("bad event line %q: %v", line, jerr)
			}
			events = append(events, ev)
			if ev.State == StateRunning && ev.SeedsDone == 3 && !sawRunning {
				sawRunning = true
				close(release) // let the job finish once progress was observed
			}
		}
		if err != nil {
			break // EOF once the final event is emitted
		}
	}
	if !sawRunning {
		t.Fatalf("never observed a running progress event: %+v", events)
	}
	last := events[len(events)-1]
	if last.State != StateDone || last.Answer == nil || len(last.Answer.Members) != 1 {
		t.Fatalf("final event %+v", last)
	}
	if fmt.Sprint(last.Answer.Members[0].Result.Seeds) != "[0 1 2]" {
		t.Fatalf("final answer %+v", last.Answer.Members[0])
	}

	// A terminal job streams exactly one final event — SSE framing on
	// request.
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v2/jobs/"+resp.JobID+"/events", nil)
	req.Header.Set("Accept", "text/event-stream")
	sresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	if ct := sresp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("SSE content type %q", ct)
	}
	srd := bufio.NewReader(sresp.Body)
	var dataLines []string
	for {
		line, err := srd.ReadString('\n')
		if strings.HasPrefix(line, "data: ") {
			dataLines = append(dataLines, strings.TrimPrefix(line, "data: "))
		}
		if err != nil {
			break
		}
	}
	if len(dataLines) != 1 {
		t.Fatalf("terminal job streamed %d events, want 1", len(dataLines))
	}
	var final QueryResponse
	if err := json.Unmarshal([]byte(dataLines[0]), &final); err != nil || final.State != StateDone {
		t.Fatalf("SSE final event %q (%v)", dataLines[0], err)
	}

	// Unknown job ids 404 before any stream starts.
	if code := doJSON(t, "GET", ts.URL+"/v2/jobs/zzz/events", nil, &ErrorResponse{}); code != http.StatusNotFound {
		t.Fatalf("events for unknown job: status %d", code)
	}
}

// TestQuerySketchSync: a RIS-family query whose key matches a registered
// sketch — single or batch — is answered synchronously with the plan,
// sketch-flagged, and keeps the prefix invariant across batch members.
func TestQuerySketchSync(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	buildTestSketch(t, ts.URL, SketchSpec{Graph: "g", Epsilon: 0.3, Seed: 5, BuildK: 10})

	var resp QueryResponse
	req := QueryRequest{Graph: "g", Algorithm: "imm", Ks: []int{3, 7},
		Options: Options{Epsilon: 0.3, Seed: 5}}
	if code := doJSON(t, "POST", ts.URL+"/v2/query", req, &resp); code != http.StatusOK {
		t.Fatalf("sketch query status %d (%+v)", code, resp)
	}
	if !resp.Sketch || resp.State != StateDone || resp.Answer == nil {
		t.Fatalf("sketch response %+v", resp)
	}
	if resp.Plan == nil || !resp.Plan.SketchOnly() {
		t.Fatalf("plan %+v", resp.Plan)
	}
	ms := resp.Answer.Members
	if len(ms) != 2 || len(ms[0].Result.Seeds) != 3 || len(ms[1].Result.Seeds) != 7 {
		t.Fatalf("members %+v", ms)
	}
	for i, s := range ms[0].Result.Seeds {
		if s != ms[1].Result.Seeds[i] {
			t.Fatalf("batch member not a prefix at seed %d", i)
		}
	}
	if got := s.Stats().SketchFastPathHits; got != 1 {
		t.Fatalf("sketch hits %d, want 1", got)
	}
	if got := s.SelectionsRun(); got != 0 {
		t.Fatalf("sketch-served query ran %d selection jobs", got)
	}
}

// TestQueryJobCancel: DELETE /v2/jobs/{id} cancels in the v2 shape.
func TestQueryJobCancel(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	release := make(chan struct{})
	defer close(release)
	s.queryFn = func(ctx context.Context, g *holisticim.Graph, q holisticim.Query) (holisticim.Answer, error) {
		select {
		case <-ctx.Done():
		case <-release:
		}
		return holisticim.Answer{}, fmt.Errorf("stub interrupted: %w", context.Canceled)
	}
	var resp QueryResponse
	if code := doJSON(t, "POST", ts.URL+"/v2/query",
		QueryRequest{Graph: "g", Algorithm: "degree-discount", K: 3}, &resp); code != http.StatusAccepted {
		t.Fatalf("POST status %d", code)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		var st QueryResponse
		doJSON(t, "GET", ts.URL+"/v2/jobs/"+resp.JobID, nil, &st)
		if st.State == StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(2 * time.Millisecond)
	}
	var del QueryResponse
	if code := doJSON(t, "DELETE", ts.URL+"/v2/jobs/"+resp.JobID, nil, &del); code != http.StatusOK {
		t.Fatalf("DELETE status %d", code)
	}
	final := pollQueryJob(t, ts.URL, resp.JobID)
	if final.State != StateCanceled {
		t.Fatalf("state %q after cancel", final.State)
	}
}

// TestRequestWorkersClamped: options.workers is a client's wish, not a
// pool size — on /v2/query selects and estimates and on /v1/select alike
// the query the computation receives carries it cut to [1, GOMAXPROCS],
// the rule POST /v1/sketches applies to its own workers field.
func TestRequestWorkersClamped(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	got := make(chan int, 1)
	s.queryFn = func(ctx context.Context, g *holisticim.Graph, q holisticim.Query) (holisticim.Answer, error) {
		got <- q.Options.Workers
		m := holisticim.Member{Estimate: &holisticim.Estimate{}}
		if q.Task == holisticim.TaskSelect {
			m = holisticim.Member{K: q.Ks[0], Result: &holisticim.Result{Algorithm: "stub", Seeds: []int32{0, 1, 2}}}
		}
		return holisticim.Answer{Members: []holisticim.Member{m}}, nil
	}
	procs := runtime.GOMAXPROCS(0)
	seed := uint64(100) // a fresh seed per request: workers is not in the cache key
	for _, tc := range []struct{ sent, want int }{
		{1_000_000, procs}, {procs + 1, procs}, {0, procs}, {-3, procs}, {1, 1}, {procs, procs},
	} {
		opts := func() Options {
			seed++
			return Options{Model: "ic", MCRuns: 10, Seed: seed, Workers: tc.sent}
		}
		posts := []struct {
			path string
			body any
			code int
		}{
			{"/v2/query", QueryRequest{Graph: "g", Algorithm: "greedy", K: 3, Options: opts()}, http.StatusAccepted},
			{"/v1/select", SelectRequest{Graph: "g", Algorithm: "greedy", K: 3, Options: opts()}, http.StatusAccepted},
			{"/v2/query", estimateQuery("g", []int32{1, 2}, opts()), http.StatusAccepted},
		}
		for _, p := range posts {
			if code := doJSON(t, "POST", ts.URL+p.path, p.body, nil); code != p.code {
				t.Fatalf("POST %s workers=%d: status %d", p.path, tc.sent, code)
			}
			select {
			case w := <-got:
				if w != tc.want {
					t.Errorf("POST %s workers=%d: computation saw %d, want %d", p.path, tc.sent, w, tc.want)
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("POST %s workers=%d: computation never ran", p.path, tc.sent)
			}
		}
	}
}

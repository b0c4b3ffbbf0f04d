package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strconv"
	"testing"
	"time"

	"github.com/holisticim/holisticim/internal/admission"
)

// doRawJSON fires a request and returns the raw response plus the
// decoded error envelope (zero-valued on success bodies) — the
// rejection tests need headers, not just status codes.
func doRawJSON(t *testing.T, method, url string, body any, hdr map[string]string) (*http.Response, ErrorResponse) {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req, err := http.NewRequest(method, url, &buf)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var env ErrorResponse
	_ = json.NewDecoder(resp.Body).Decode(&env)
	return resp, env
}

// assertRejection checks the full rejection contract every QoS refusal
// must honor: the expected status, an actionable integral Retry-After,
// and the uniform envelope with a machine code and the middleware-
// assigned request id (so a rejected client can still be correlated
// with server logs).
func assertRejection(t *testing.T, resp *http.Response, env ErrorResponse, wantStatus int, wantCode string) {
	t.Helper()
	if resp.StatusCode != wantStatus {
		t.Fatalf("status = %d, want %d (envelope %+v)", resp.StatusCode, wantStatus, env)
	}
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || ra < 1 {
		t.Fatalf("Retry-After = %q, want integral seconds >= 1", resp.Header.Get("Retry-After"))
	}
	if env.Error.Code != wantCode {
		t.Fatalf("error.code = %q, want %q", env.Error.Code, wantCode)
	}
	if env.Error.RequestID == "" {
		t.Fatal("error.request_id is empty; rejections must stay correlatable")
	}
	if env.Error.Message == "" {
		t.Fatal("error.message is empty")
	}
}

// blockWorkers parks every worker of the pool on a gate channel and
// returns once they are all occupied. Closing the gate releases them.
func blockWorkers(t *testing.T, s *Server, n int) chan struct{} {
	t.Helper()
	gate := make(chan struct{})
	for i := 0; i < n; i++ {
		_, created, err := s.jobs.Submit(JobSpec{Key: "qos-blocker-" + strconv.Itoa(i), K: 1},
			func(ctx context.Context, report func(int)) (*QueryAnswer, error) {
				select {
				case <-gate:
				case <-ctx.Done():
				}
				return nil, nil
			})
		if err != nil || !created {
			t.Fatalf("blocker %d: created=%v err=%v", i, created, err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, running := s.jobs.Depth(); running == n {
			return gate
		}
		if time.Now().After(deadline) {
			close(gate)
			t.Fatal("workers never picked up the blocker jobs")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRejectionEnvelopeRateLimit: a client past its token bucket gets a
// deterministic 429 carrying the full rejection contract.
func TestRejectionEnvelopeRateLimit(t *testing.T) {
	_, ts := newTestServer(t, Config{RateRPS: 0.0001, RateBurst: 1})
	hdr := map[string]string{admission.ClientIDHeader: "alice"}
	est := estimateQuery("g", []int32{0}, Options{MCRuns: 10})

	resp, _ := doRawJSON(t, "POST", ts.URL+"/v2/query", est, hdr)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first request spent the burst token but got %d", resp.StatusCode)
	}
	resp, env := doRawJSON(t, "POST", ts.URL+"/v2/query", est, hdr)
	assertRejection(t, resp, env, http.StatusTooManyRequests, "too_many_requests")
}

// TestRejectionEnvelopeQueueFull: a submission refused by a full job
// queue answers 429 with the contract.
func TestRejectionEnvelopeQueueFull(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueCap: 1})
	gate := blockWorkers(t, s, 1)
	defer close(gate)
	if _, created, err := s.jobs.Submit(JobSpec{Key: "qos-filler", K: 1},
		func(ctx context.Context, report func(int)) (*QueryAnswer, error) { return nil, nil }); err != nil || !created {
		t.Fatalf("filler: created=%v err=%v", created, err)
	}

	resp, env := doRawJSON(t, "POST", ts.URL+"/v1/select",
		SelectRequest{Graph: "g", Algorithm: "greedy", K: 2, Options: Options{MCRuns: 10}}, nil)
	assertRejection(t, resp, env, http.StatusTooManyRequests, "too_many_requests")
}

// TestRejectionEnvelopeDeadlineShed: a request whose deadline cannot
// cover the cost model's predicted run time is shed up front with 503 —
// even on an idle pool, where queue wait alone would admit it.
func TestRejectionEnvelopeDeadlineShed(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	// Teach the cost model that cold-MC work runs ~30s; the request
	// allows 100ms, so admission refuses before wasting a worker on it.
	s.costs.Observe("mc", 30.0)

	resp, env := doRawJSON(t, "POST", ts.URL+"/v1/select",
		SelectRequest{Graph: "g", Algorithm: "greedy", K: 2,
			Options: Options{MCRuns: 10}, TimeoutMS: 100}, nil)
	assertRejection(t, resp, env, http.StatusServiceUnavailable, "unavailable")
}

// TestRejectionEnvelopeShutdown: submissions during a drain answer 503
// with the contract, so routers fail over with a retry hint instead of
// guessing.
func TestRejectionEnvelopeShutdown(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	resp, env := doRawJSON(t, "POST", ts.URL+"/v1/select",
		SelectRequest{Graph: "g", Algorithm: "greedy", K: 2, Options: Options{MCRuns: 10}}, nil)
	assertRejection(t, resp, env, http.StatusServiceUnavailable, "unavailable")
}

// TestOverloadInteractiveServedDuringBatchFlood is the PR's acceptance
// scenario: with the one worker busy and the queue saturated by batch
// MC jobs, sketch-backed interactive queries must still complete within
// their deadline (they never touch the queue), while further batch
// submissions are shed with Retry-After.
func TestOverloadInteractiveServedDuringBatchFlood(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueCap: 2})
	buildTestSketch(t, ts.URL, SketchSpec{Graph: "g", Epsilon: 0.3, Seed: 5, BuildK: 10})

	gate := blockWorkers(t, s, 1)
	defer close(gate)

	// Flood: distinct cold-MC selections until the queue overflows.
	sheds := 0
	for i := 0; i < 8; i++ {
		resp, env := doRawJSON(t, "POST", ts.URL+"/v1/select",
			SelectRequest{Graph: "g", Algorithm: "greedy", K: 2,
				Options: Options{MCRuns: 100 + i}}, nil)
		switch resp.StatusCode {
		case http.StatusAccepted:
		case http.StatusTooManyRequests:
			assertRejection(t, resp, env, http.StatusTooManyRequests, "too_many_requests")
			sheds++
		default:
			t.Fatalf("batch submission %d: unexpected status %d (%+v)", i, resp.StatusCode, env)
		}
	}
	if sheds == 0 {
		t.Fatal("queue never overflowed; the flood did not saturate the pool")
	}
	if got := s.jobs.ShedCount(admission.Batch, ShedQueueFull); got < int64(sheds) {
		t.Fatalf("ShedCount(batch, queue_full) = %d, want >= %d", got, sheds)
	}

	// Interactive work during the flood: sketch-served, synchronous,
	// inside a deadline the queued batch backlog could never meet.
	const interactiveDeadline = 5 * time.Second
	for k := 3; k <= 5; k++ {
		start := time.Now()
		var sel SelectResponse
		code := doJSON(t, "POST", ts.URL+"/v1/select",
			SelectRequest{Graph: "g", Algorithm: "imm", K: k,
				Options: Options{Epsilon: 0.3, Seed: 5}}, &sel)
		elapsed := time.Since(start)
		if code != http.StatusOK || !sel.Sketch || sel.State != StateDone {
			t.Fatalf("interactive select k=%d under flood: code=%d %+v", k, code, sel)
		}
		if elapsed > interactiveDeadline {
			t.Fatalf("interactive select k=%d took %s under flood (deadline %s)",
				k, elapsed, interactiveDeadline)
		}
	}
}

// TestRateLimitClientIsolation: one client exhausting its bucket gets
// deterministic 429s while a second client's requests keep succeeding
// promptly — buckets are per client, not shared.
func TestRateLimitClientIsolation(t *testing.T) {
	_, ts := newTestServer(t, Config{RateRPS: 0.0001, RateBurst: 2})
	est := estimateQuery("g", []int32{0}, Options{MCRuns: 10})
	aHdr := map[string]string{admission.ClientIDHeader: "noisy"}
	bHdr := map[string]string{admission.ClientIDHeader: "quiet"}
	// An admitted estimate is a job (202), or — once that job is done —
	// a cache hit (200).
	admitted := func(code int) bool { return code == http.StatusAccepted || code == http.StatusOK }

	for i := 0; i < 2; i++ {
		if resp, env := doRawJSON(t, "POST", ts.URL+"/v2/query", est, aHdr); !admitted(resp.StatusCode) {
			t.Fatalf("noisy request %d inside burst: %d (%+v)", i, resp.StatusCode, env)
		}
	}
	// Past the burst, every further request from the noisy client is a
	// deterministic 429 — no flapping.
	for i := 0; i < 3; i++ {
		resp, env := doRawJSON(t, "POST", ts.URL+"/v2/query", est, aHdr)
		assertRejection(t, resp, env, http.StatusTooManyRequests, "too_many_requests")
	}
	// The quiet client is untouched by the noisy one's refusals.
	for i := 0; i < 2; i++ {
		start := time.Now()
		resp, env := doRawJSON(t, "POST", ts.URL+"/v2/query", est, bHdr)
		if !admitted(resp.StatusCode) {
			t.Fatalf("quiet request %d: %d (%+v)", i, resp.StatusCode, env)
		}
		if elapsed := time.Since(start); elapsed > 5*time.Second {
			t.Fatalf("quiet request %d took %s; throttling leaked across clients", i, elapsed)
		}
	}
}

// TestPriorityHeaderDemotesOverWire: X-Priority can demote a request's
// derived class (interactive sketch work wished down to batch shares
// the batch Retry-After scope) but can never promote cold-MC work to
// the interactive lane.
func TestPriorityHeaderDemotesOverWire(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueCap: 8})
	gate := blockWorkers(t, s, 1)
	defer close(gate)

	// A cold-MC select wishing "interactive" must still queue as batch.
	resp, _ := doRawJSON(t, "POST", ts.URL+"/v1/select",
		SelectRequest{Graph: "g", Algorithm: "greedy", K: 2, Options: Options{MCRuns: 50}},
		map[string]string{admission.PriorityHeader: "interactive"})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cold select status %d, want 202", resp.StatusCode)
	}
	if got := s.jobs.DepthByPriority(); got[admission.Batch] != 1 || got[admission.Interactive] != 0 {
		t.Fatalf("wish promoted a cold-MC job: depths %v", got)
	}

	// A heuristic select (interactive class) wishing "batch" queues batch.
	resp, _ = doRawJSON(t, "POST", ts.URL+"/v1/select",
		SelectRequest{Graph: "g", Algorithm: "degree", K: 2},
		map[string]string{admission.PriorityHeader: "batch"})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("heuristic select status %d, want 202", resp.StatusCode)
	}
	if got := s.jobs.DepthByPriority(); got[admission.Batch] != 2 {
		t.Fatalf("batch wish not honored: depths %v", got)
	}
}

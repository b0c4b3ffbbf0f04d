package cluster

import (
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"

	"github.com/holisticim/holisticim"
	"github.com/holisticim/holisticim/internal/service"
)

// testCluster is 3 warm-loaded replicas behind a router, plus an
// independent single-node reference server loaded from the same store.
type testCluster struct {
	store    *Store
	single   *httptest.Server
	replicas []*httptest.Server
	servers  []*service.Server
	router   *Router
	front    *httptest.Server
}

func newTestCluster(t *testing.T) *testCluster {
	t.Helper()
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	g := testGraph(t, 1)
	holisticim.AssignOpinions(g, holisticim.OpinionUniform, 3)
	publishPair(t, st, "soc", g)
	oc, err := holisticim.BuildSketch(context.Background(), g, holisticim.SketchOptions{
		Model: holisticim.ModelOC, Epsilon: testEps, Seed: testSeed, BuildK: 16,
	})
	if err != nil {
		t.Fatalf("build oc sketch: %v", err)
	}
	if _, err := st.PublishSketch("soc", oc); err != nil {
		t.Fatalf("publish oc sketch: %v", err)
	}

	_, _, single := newReplica(t, st)
	tc := &testCluster{store: st, single: single}
	var urls []string
	for i := 0; i < 3; i++ {
		s, _, ts := newReplica(t, st)
		tc.replicas = append(tc.replicas, ts)
		tc.servers = append(tc.servers, s)
		urls = append(urls, ts.URL)
	}
	// The hedge timer stays out of the picture: a request that runs long
	// on a loaded box must not ALSO start on a second replica, or which
	// replica's sketch and job counter advanced would depend on timing.
	rt, err := NewRouter(RouterConfig{Replicas: urls, Replication: 2, HedgeDelay: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	rt.PollOnce(context.Background())
	tc.router = rt
	tc.front = httptest.NewServer(rt.Handler())
	t.Cleanup(tc.front.Close)
	return tc
}

// killPreferredOwner closes the replica that ranks first for key WITHOUT
// telling the router (no re-poll): routing must fail over on the live
// connection error.
func (tc *testCluster) killPreferredOwner(t *testing.T, key string) {
	t.Helper()
	candidates, _ := tc.router.mem.rank(key, tc.router.cfg.Replication)
	if len(candidates) == 0 {
		t.Fatal("no candidates for key")
	}
	for _, ts := range tc.replicas {
		if ts.URL == candidates[0] {
			ts.Close()
		}
	}
}

func batchRequest() service.QueryRequest {
	return service.QueryRequest{
		Graph:     "soc",
		Algorithm: "imm",
		Ks:        []int{2, 3, 5, 7, 8},
		Options:   service.Options{Epsilon: testEps, Seed: testSeed},
	}
}

// routedBody is one request of the equivalence table.
type routedBody struct {
	path, body string
}

// randomBodies draws n request bodies from a seeded stream: the four
// sketch-served shapes of the serving mix plus one cold algorithm whose
// answer arrives through a job.
func randomBodies(seed int64, n int) []routedBody {
	r := rand.New(rand.NewSource(seed))
	sk := service.Options{Epsilon: testEps, Seed: testSeed}
	alg := func() string { return []string{"imm", "tim+"}[r.Intn(2)] }
	budget := func() int { return 1 + r.Intn(16) }
	marshal := func(v any) string {
		b, err := json.Marshal(v)
		if err != nil {
			panic(err)
		}
		return string(b)
	}
	out := make([]routedBody, n)
	for i := range out {
		switch r.Intn(5) {
		case 0:
			out[i] = routedBody{"/v1/select", marshal(service.SelectRequest{Graph: "soc", Algorithm: alg(), K: budget(), Options: sk})}
		case 1:
			out[i] = routedBody{"/v2/query", marshal(service.QueryRequest{Graph: "soc", Algorithm: alg(), K: budget(), Options: sk})}
		case 2:
			ks := make([]int, 2+r.Intn(5)) // random order, repeats allowed
			for j := range ks {
				ks[j] = budget()
			}
			out[i] = routedBody{"/v2/query", marshal(service.QueryRequest{Graph: "soc", Algorithm: alg(), Ks: ks, Options: sk})}
		case 3:
			sets := make([][]holisticim.NodeID, 1+r.Intn(4))
			for j := range sets {
				for _, v := range r.Perm(testNodes)[:1+r.Intn(5)] {
					sets[j] = append(sets[j], holisticim.NodeID(v))
				}
			}
			o := sk
			o.Model = "oc"
			out[i] = routedBody{"/v2/query", marshal(service.QueryRequest{Graph: "soc", Task: "estimate", Objective: "opinion", SeedSets: sets, Options: o})}
		case 4:
			out[i] = routedBody{"/v2/query", marshal(service.QueryRequest{Graph: "soc", Algorithm: "degree-discount", K: budget()})}
		}
	}
	return out
}

var (
	tookField   = regexp.MustCompile(`"took_ms":[0-9.eE+-]+`)
	routerJobID = regexp.MustCompile(`"job_id":"r[0-9]+-`)
)

// normalizeBody removes the only two things a routed body may differ in
// from the single-node body: wall-clock fields and the r<N>- prefix the
// router puts on job ids.
func normalizeBody(b []byte) string {
	b = tookField.ReplaceAll(b, []byte(`"took_ms":0`))
	return string(routerJobID.ReplaceAll(b, []byte(`"job_id":"`)))
}

// exchange posts one body and returns status and raw response; a 202 is
// followed to the job's terminal poll, which is what gets compared (the
// 202 itself says "pending" or "running" depending on who won a race).
func exchange(t *testing.T, baseURL string, rb routedBody) (int, []byte, http.Header) {
	t.Helper()
	resp, err := http.Post(baseURL+rb.path, "application/json", strings.NewReader(rb.body))
	if err != nil {
		t.Fatalf("POST %s: %v", rb.path, err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		return resp.StatusCode, raw, resp.Header
	}
	var accepted service.QueryResponse
	if err := json.Unmarshal(raw, &accepted); err != nil || accepted.JobID == "" {
		t.Fatalf("202 without a job id: %s", raw)
	}
	for deadline := time.Now().Add(20 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		poll, err := http.Get(baseURL + "/v2/jobs/" + accepted.JobID)
		if err != nil {
			t.Fatal(err)
		}
		raw, err = io.ReadAll(poll.Body)
		poll.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		var qr service.QueryResponse
		if err := json.Unmarshal(raw, &qr); err != nil {
			t.Fatalf("poll %s: %s", accepted.JobID, raw)
		}
		if qr.State != service.StatePending && qr.State != service.StateRunning {
			return http.StatusAccepted, raw, resp.Header
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s", accepted.JobID, qr.State)
		}
	}
}

// TestRoutedBatchByteEquivalentToSingleNode pins routed ≡ single-node:
// a seeded table of random bodies — v1 selects, single-k and batch
// /v2/query selects with budgets in any order and repeated, opinion
// estimate batches, and a cold algorithm answered through a job — sent
// through the router over 3 replicas and to a single node must come back
// with the same status and, once timing fields and the r<N>- job-id
// prefix are normalised, the same bytes. The router relays one replica's
// response whole, so this holds by construction; the test keeps it that
// way. The table then runs again on a fresh cluster whose preferred
// owner is dead from the first request on. (Fresh, because a sketch that
// extended its sample reports so in its metrics: a fallback owner only
// matches a single node that saw the same requests.)
func TestRoutedBatchByteEquivalentToSingleNode(t *testing.T) {
	bodies := randomBodies(20260929, 64)
	for _, ownerDead := range []bool{false, true} {
		tc := newTestCluster(t)
		if ownerDead {
			tc.killPreferredOwner(t, QueryKey("soc", "ic", testEps))
		}
		for i, rb := range bodies {
			wantCode, want, _ := exchange(t, tc.single.URL, rb)
			gotCode, got, hdr := exchange(t, tc.front.URL, rb)
			if wantCode >= 400 {
				t.Fatalf("body %d %s %s: single node refused it: %d %s", i, rb.path, rb.body, wantCode, want)
			}
			if hdr.Get("X-Router-Replica") == "" {
				t.Fatalf("body %d: routed response does not name its serving replica", i)
			}
			if w, g := normalizeBody(want), normalizeBody(got); gotCode != wantCode || g != w {
				t.Fatalf("owner dead=%v, body %d %s %s:\nsingle %d: %s\nrouted %d: %s", ownerDead, i, rb.path, rb.body, wantCode, w, gotCode, g)
			}
		}
	}
}

// TestRoutedBatchSurvivesOwnerDeathMidRun: the key's preferred replica
// dies between two requests; the batch must still succeed, unchanged,
// via failover, and keep flowing once the poller has noticed.
func TestRoutedBatchSurvivesOwnerDeathMidRun(t *testing.T) {
	tc := newTestCluster(t)
	req := batchRequest()
	code, want, _ := postQuery(t, tc.front.URL, req)
	if code != http.StatusOK || !want.Sketch || want.Answer == nil {
		t.Fatalf("routed batch: status %d, %+v", code, want)
	}
	normalizeTiming(&want)

	// Prefix invariant on the routed answer itself.
	full := want.Answer.Members[len(want.Answer.Members)-1].Result.Seeds
	for _, m := range want.Answer.Members {
		if len(m.Result.Seeds) != m.K {
			t.Fatalf("member k=%d has %d seeds", m.K, len(m.Result.Seeds))
		}
		for i, sd := range m.Result.Seeds {
			if sd != full[i] {
				t.Fatalf("member k=%d diverges from the kmax order at %d", m.K, i)
			}
		}
	}

	tc.killPreferredOwner(t, QueryKey("soc", "ic", testEps))
	code, after, _ := postQuery(t, tc.front.URL, req)
	if code != http.StatusOK {
		t.Fatalf("batch after replica death: status %d, %+v", code, after)
	}
	normalizeTiming(&after)
	if w, g := mustJSON(t, want), mustJSON(t, after); w != g {
		t.Fatalf("failover answer differs:\nbefore:   %s\nfailover: %s", w, g)
	}

	// Once the poller notices, the dead replica leaves the healthy set
	// and answers keep flowing.
	tc.router.PollOnce(context.Background())
	if h := tc.router.mem.healthy(); len(h) != 2 {
		t.Fatalf("healthy set after death: %v", h)
	}
	code, final, _ := postQuery(t, tc.front.URL, req)
	if code != http.StatusOK {
		t.Fatalf("batch after re-poll: status %d", code)
	}
	normalizeTiming(&final)
	if w, g := mustJSON(t, want), mustJSON(t, final); w != g {
		t.Fatal("post-repoll answer differs")
	}
}

// A single-member sketch query matches the single node byte-for-byte and
// names the replica that served it.
func TestRoutedSingleQueryMatchesSingleNode(t *testing.T) {
	tc := newTestCluster(t)
	req := service.QueryRequest{
		Graph:     "soc",
		Algorithm: "imm",
		K:         6,
		Options:   service.Options{Epsilon: testEps, Seed: testSeed},
	}
	code, want, _ := postQuery(t, tc.single.URL, req)
	if code != http.StatusOK || !want.Sketch {
		t.Fatalf("single-node: status %d, %+v", code, want)
	}
	code, got, resp := postQuery(t, tc.front.URL, req)
	if code != http.StatusOK {
		t.Fatalf("routed: status %d, %+v", code, got)
	}
	if resp.Header.Get("X-Router-Replica") == "" {
		t.Fatal("routed response does not name its serving replica")
	}
	normalizeTiming(&want)
	normalizeTiming(&got)
	if w, g := mustJSON(t, want), mustJSON(t, got); w != g {
		t.Fatalf("routed single query differs:\nsingle: %s\nrouted: %s", w, g)
	}
}

// Cold (non-sketch) queries become jobs; the router must prefix the job
// id with the owning replica and route polls back to it.
func TestRoutedColdJobRoundTrip(t *testing.T) {
	tc := newTestCluster(t)
	req := service.QueryRequest{
		Graph:     "soc",
		Algorithm: "degree-discount",
		K:         4,
	}
	code, qr, _ := postQuery(t, tc.front.URL, req)
	if code != http.StatusAccepted {
		t.Fatalf("cold query status %d, %+v", code, qr)
	}
	if !strings.HasPrefix(qr.JobID, "r") || !strings.Contains(qr.JobID, jobIDSep) {
		t.Fatalf("job id %q not router-prefixed", qr.JobID)
	}

	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(tc.front.URL + "/v2/jobs/" + qr.JobID)
		if err != nil {
			t.Fatal(err)
		}
		var poll service.QueryResponse
		if err := json.NewDecoder(resp.Body).Decode(&poll); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("poll status %d", resp.StatusCode)
		}
		if poll.JobID != qr.JobID {
			t.Fatalf("poll echoed job id %q, want %q", poll.JobID, qr.JobID)
		}
		if poll.State == service.StateDone {
			if poll.Answer == nil || len(poll.Answer.Members) != 1 || len(poll.Answer.Members[0].Result.Seeds) != 4 {
				t.Fatalf("job answer %+v", poll.Answer)
			}
			break
		}
		if poll.State == service.StateFailed || poll.State == service.StateCanceled {
			t.Fatalf("job ended %s: %s", poll.State, poll.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", poll.State)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// The done job answers repeats, through the router and on the replica
	// that ran it: 200, cached, the answer inline and no job id.
	if code, again, _ := postQuery(t, tc.front.URL, req); code != http.StatusOK || !again.Cached || again.JobID != "" || again.Answer == nil {
		t.Fatalf("routed repeat: status %d %+v", code, again)
	}
	ran := 0
	for i, s := range tc.servers {
		if s.Stats().QueriesRun == 0 {
			continue
		}
		ran++
		if code, again, _ := postQuery(t, tc.replicas[i].URL, req); code != http.StatusOK || !again.Cached || again.JobID != "" {
			t.Fatalf("direct repeat on replica %d: status %d %+v", i, code, again)
		}
	}
	if ran != 1 {
		t.Fatalf("%d replicas ran the query, want 1", ran)
	}
}

// The router's own probes: /readyz tracks replica health; /v1/cluster/info
// aggregates per-replica state; list endpoints merge and deduplicate.
func TestRouterProbesAndMergedLists(t *testing.T) {
	tc := newTestCluster(t)

	resp, err := http.Get(tc.front.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("router readyz %d with healthy replicas", resp.StatusCode)
	}

	resp, err = http.Get(tc.front.URL + "/v1/graphs")
	if err != nil {
		t.Fatal(err)
	}
	var graphs struct {
		Graphs []service.GraphInfo `json:"graphs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&graphs); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(graphs.Graphs) != 1 || graphs.Graphs[0].Name != "soc" {
		t.Fatalf("merged graph list %+v, want single deduplicated soc", graphs.Graphs)
	}

	resp, err = http.Get(tc.front.URL + "/v1/cluster/info")
	if err != nil {
		t.Fatal(err)
	}
	var view struct {
		ManifestVersion uint64                  `json:"manifest_version"`
		Replicas        map[string]replicaState `json:"replicas"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(view.Replicas) != 3 {
		t.Fatalf("cluster view has %d replicas", len(view.Replicas))
	}
	if view.ManifestVersion == 0 {
		t.Fatal("cluster view reports manifest v0 after warm-load")
	}
	for addr, st := range view.Replicas {
		if !st.Healthy {
			t.Fatalf("replica %s unhealthy in view: %+v", addr, st)
		}
	}

	// All replicas dead -> router not ready, queries shed with the
	// uniform envelope.
	for _, ts := range tc.replicas {
		ts.Close()
	}
	tc.router.PollOnce(context.Background())
	resp, err = http.Get(tc.front.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	var envelope service.ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&envelope); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || envelope.Error.Code != "unavailable" {
		t.Fatalf("dead-cluster readyz: %d %+v", resp.StatusCode, envelope)
	}
}

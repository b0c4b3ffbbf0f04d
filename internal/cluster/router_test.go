package cluster

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/holisticim/holisticim/internal/service"
)

// stubUpstreams is a RoundTripper standing in for every replica: health
// polls answer ready, anything else answers 200 {} and records which
// replica was addressed. Replica names are fixed strings, so rendezvous
// ranking — and with it this file's expectations — is the same on every
// run (httptest servers get a fresh port, and so a fresh ranking, each).
type stubUpstreams struct {
	mu   sync.Mutex
	last string // host of the latest non-poll request
}

func (s *stubUpstreams) RoundTrip(req *http.Request) (*http.Response, error) {
	body := "{}"
	if req.URL.Path == "/v1/cluster/info" {
		body = `{"ready":true}`
	} else {
		s.mu.Lock()
		s.last = req.URL.Host
		s.mu.Unlock()
	}
	return &http.Response{
		StatusCode: http.StatusOK,
		Header:     http.Header{"Content-Type": []string{"application/json"}},
		Body:       io.NopCloser(strings.NewReader(body)),
		Request:    req,
	}, nil
}

// servedBy sends one request through the router and names the replica
// that received it.
func (s *stubUpstreams) servedBy(t *testing.T, front *httptest.Server, method, path, body string) string {
	t.Helper()
	req, err := http.NewRequest(method, front.URL+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s %s: status %d", method, path, resp.StatusCode)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.last
}

// TestSketchInfoRoutesToTheSketchsOwner: GET /v1/sketches/{id} must land
// on the replica that serves the sketch's queries — the one whose
// selects/order_len/extensions counters move — whatever the sketch's
// semantics and ε, and also when the graph name itself contains ':'.
func TestSketchInfoRoutesToTheSketchsOwner(t *testing.T) {
	stub := &stubUpstreams{}
	rt, err := NewRouter(RouterConfig{
		Replicas:   []string{"http://r0", "http://r1", "http://r2", "http://r3", "http://r4"},
		HedgeDelay: time.Minute,
		Client:     &http.Client{Transport: stub},
	})
	if err != nil {
		t.Fatal(err)
	}
	rt.PollOnce(context.Background())
	front := httptest.NewServer(rt.Handler())
	t.Cleanup(front.Close)

	cases := []struct {
		graph, semantics string
		epsilon          float64
		seed             uint64
		query            string // a /v2/query body this sketch serves
	}{
		{"soc", "ic", 0.1, 1, `{"graph":"soc","algorithm":"imm","k":5}`},
		{"soc", "ic", 0.3, 7, `{"graph":"soc","algorithm":"imm","ks":[2,5],"options":{"epsilon":0.3,"seed":7}}`},
		{"soc", "lt", 0.1, 3, `{"graph":"soc","algorithm":"tim+","k":5,"options":{"model":"lt","seed":3}}`},
		{"soc", "oc", 0.25, 7, `{"graph":"soc","objective":"opinion","seed_sets":[[4]],"options":{"model":"oc","epsilon":0.25,"seed":7}}`},
		{"hep", "lt", 0.5, 12, `{"graph":"hep","algorithm":"imm","k":3,"options":{"model":"lt","epsilon":0.5,"seed":12}}`},
		{"eu:core", "ic", 0.1, 1, `{"graph":"eu:core","algorithm":"imm","k":5}`},
		{"eu:core", "oc", 0.3, 21, `{"graph":"eu:core","objective":"opinion","seed_sets":[[1,2]],"options":{"model":"oc","epsilon":0.3,"seed":21}}`},
	}
	owners := make(map[string]bool)
	for _, tc := range cases {
		id := service.SketchID(tc.graph, tc.semantics, tc.epsilon, tc.seed)
		key := QueryKey(tc.graph, tc.semantics, tc.epsilon)
		if got := sketchKeyOf(id); got != key {
			t.Errorf("sketchKeyOf(%q) = %q, want the query key %q", id, got, key)
		}
		want, _ := rt.mem.rank(key, rt.cfg.Replication)
		info := stub.servedBy(t, front, http.MethodGet, "/v1/sketches/"+id, "")
		query := stub.servedBy(t, front, http.MethodPost, "/v2/query", tc.query)
		if "http://"+info != want[0] || info != query {
			t.Errorf("sketch %s: info served by %s, its queries by %s, key owner %s", id, info, query, want[0])
		}
		owners[info] = true
	}
	// The table must be able to tell owners apart at all.
	if len(owners) < 3 {
		t.Fatalf("the table's sketches share %d owners; it cannot catch a mis-keyed route", len(owners))
	}
}

// A wrong verb on a routed path answers through the router exactly as on
// a replica: the same status, Allow header and error code.
func TestRouterMethodNotAllowedMatchesReplica(t *testing.T) {
	srv := service.New(service.Config{})
	t.Cleanup(srv.Close)
	replica := httptest.NewServer(srv.Handler())
	t.Cleanup(replica.Close)
	rt, err := NewRouter(RouterConfig{Replicas: []string{replica.URL}})
	if err != nil {
		t.Fatal(err)
	}
	rt.PollOnce(context.Background())
	front := httptest.NewServer(rt.Handler())
	t.Cleanup(front.Close)

	type answer struct {
		status      int
		allow, code string
	}
	send := func(base, method, path string) answer {
		t.Helper()
		req, err := http.NewRequest(method, base+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var env service.ErrorResponse
		if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
			t.Fatalf("%s %s: decode envelope: %v", method, path, err)
		}
		return answer{resp.StatusCode, resp.Header.Get("Allow"), env.Error.Code}
	}
	for _, c := range []struct{ method, path string }{
		{http.MethodPut, "/v2/query"},
		{http.MethodPost, "/healthz"},
		{http.MethodPatch, "/v1/graphs/soc/edges"},
		{http.MethodPost, "/v2/jobs/j1"},
		{http.MethodGet, "/no/such/route"},
	} {
		direct, routed := send(replica.URL, c.method, c.path), send(front.URL, c.method, c.path)
		if routed != direct {
			t.Errorf("%s %s: routed %+v, replica %+v", c.method, c.path, routed, direct)
		}
	}
	if a := send(front.URL, http.MethodPut, "/v2/query"); a.status != http.StatusMethodNotAllowed || a.allow != "POST" {
		t.Fatalf("PUT /v2/query through the router: %+v, want 405 with Allow: POST", a)
	}
}

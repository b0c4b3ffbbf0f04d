package service

import (
	"net/http"
	"strings"
	"testing"
)

// TestRouteConformance enumerates every registered mux pattern and
// asserts it has at least one httptest case: adding a route without
// teaching this table fails CI, so no endpoint ships untested. Each case
// is fired against a live server and must answer with its expected
// status — never a 5xx and never the 404/405 fallbacks, which would mean
// the case no longer reaches its handler.
func TestRouteConformance(t *testing.T) {
	s, ts := newTestServer(t, Config{})

	// A guaranteed-valid mutation for the edges route: the first absent
	// arc of the test graph, found by scanning (the BA topology is not
	// otherwise pinned by this test).
	g, err := s.reg.Get("g")
	if err != nil {
		t.Fatal(err)
	}
	mutFrom, mutTo := int32(-1), int32(-1)
findAbsent:
	for u := int32(0); u < g.NumNodes(); u++ {
		for v := int32(0); v < g.NumNodes(); v++ {
			if u != v && !g.HasEdge(u, v) {
				mutFrom, mutTo = u, v
				break findAbsent
			}
		}
	}
	if mutFrom < 0 {
		t.Fatal("test graph is complete; no absent edge to add")
	}
	mutP := 0.1

	type probe struct {
		body any
		want int
	}
	cases := map[string]probe{
		"GET /healthz":          {nil, http.StatusOK},
		"GET /readyz":           {nil, http.StatusOK},
		"GET /metrics":          {nil, http.StatusOK},
		"GET /v1/cluster/info":  {nil, http.StatusOK},
		"GET /v1/stats":         {nil, http.StatusOK},
		"GET /v1/graphs":        {nil, http.StatusOK},
		"POST /v1/graphs":       {GraphSpec{Name: "conf-ba", Generator: "ba", Nodes: 20, EdgesPerNode: 2}, http.StatusCreated},
		"GET /v1/graphs/{name}": {nil, http.StatusOK},
		"POST /v1/graphs/{name}/edges": {MutateRequest{Ops: []EdgeOpSpec{
			{Op: "add", From: mutFrom, To: mutTo, P: &mutP},
		}}, http.StatusOK},
		"GET /v1/sketches":         {nil, http.StatusOK},
		"POST /v1/sketches":        {SketchSpec{Graph: "g", Epsilon: 0.4, BuildK: 3}, http.StatusAccepted},
		"GET /v1/sketches/{id}":    {nil, http.StatusNotFound}, // unknown id still exercises the route
		"DELETE /v1/sketches/{id}": {nil, http.StatusNotFound},
		"POST /v1/select":          {SelectRequest{Graph: "g", Algorithm: "degree-discount", K: 2}, http.StatusAccepted},
		// k differs from the /v1/select case: the two surfaces share the
		// fingerprint cache, and a warm entry would answer 200.
		"POST /v2/query":           {QueryRequest{Graph: "g", Algorithm: "degree-discount", K: 3}, http.StatusAccepted},
		"GET /v2/jobs/{id}":        {nil, http.StatusNotFound},
		"DELETE /v2/jobs/{id}":     {nil, http.StatusNotFound},
		"GET /v2/jobs/{id}/events": {nil, http.StatusNotFound},
	}
	// Pattern placeholders resolve to concrete request paths.
	fill := map[string]string{"{name}": "g", "{id}": "conformance-probe"}

	routes := s.Routes()
	if len(routes) == 0 {
		t.Fatal("server reports no routes")
	}
	covered := make(map[string]bool, len(cases))
	for _, pattern := range routes {
		pc, ok := cases[pattern]
		if !ok {
			t.Errorf("registered route %q has no conformance case — add one to this table", pattern)
			continue
		}
		covered[pattern] = true
		method, path, found := strings.Cut(pattern, " ")
		if !found {
			t.Errorf("malformed pattern %q", pattern)
			continue
		}
		for ph, v := range fill {
			path = strings.ReplaceAll(path, ph, v)
		}
		if code := doJSON(t, method, ts.URL+path, pc.body, nil); code != pc.want {
			t.Errorf("%s: status %d, want %d", pattern, code, pc.want)
		}
	}
	for pattern := range cases {
		if !covered[pattern] {
			t.Errorf("conformance case for %q matches no registered route (stale table?)", pattern)
		}
	}
}

package service

import (
	"net/http"
	"testing"
	"time"
)

// waitSketchVersion polls the sketch listing until the sketch for graph
// g advertises graph_version >= want (background repair finished).
func waitSketchVersion(t *testing.T, ts, g string, want uint64) SketchInfo {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		var list struct {
			Sketches []SketchInfo `json:"sketches"`
		}
		if code := doJSON(t, "GET", ts+"/v1/sketches", nil, &list); code != http.StatusOK {
			t.Fatalf("GET sketches status %d", code)
		}
		for _, si := range list.Sketches {
			if si.Graph == g && si.GraphVersion >= want {
				return si
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("sketch never reached graph_version %d: %+v", want, list.Sketches)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestMutateEndToEnd drives the live-update loop over HTTP: build a
// sketch, mutate the graph, watch background repair re-synchronize the
// sketch, and confirm queries are served fresh — never from stale state.
func TestMutateEndToEnd(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	buildTestSketch(t, ts.URL, SketchSpec{Graph: "g", Epsilon: 0.3, Seed: 5, BuildK: 10})

	// Warm the query cache with a degree selection.
	sel := SelectRequest{Graph: "g", Algorithm: "degree", K: 4}
	var first SelectResponse
	if code := doJSON(t, "POST", ts.URL+"/v1/select", sel, &first); code != http.StatusAccepted {
		t.Fatalf("warm select status %d", code)
	}
	pollJob(t, ts.URL, first.JobID)
	var warm SelectResponse
	if code := doJSON(t, "POST", ts.URL+"/v1/select", sel, &warm); code != http.StatusOK || !warm.Cached {
		t.Fatalf("repeat select not cached: status %d, %+v", code, warm)
	}

	// Mutate: remove one existing arc, add one absent arc.
	g, err := s.reg.Get("g")
	if err != nil {
		t.Fatal(err)
	}
	from, to := int32(-1), int32(-1)
	for u := int32(0); u < g.NumNodes() && from < 0; u++ {
		for v := int32(0); v < g.NumNodes(); v++ {
			if u != v && !g.HasEdge(u, v) {
				from, to = u, v
				break
			}
		}
	}
	rmFrom := int32(0)
	rmTo := g.OutNeighbors(rmFrom)[0]
	p := 0.25
	var mres MutateResponse
	code := doJSON(t, "POST", ts.URL+"/v1/graphs/g/edges", MutateRequest{Ops: []EdgeOpSpec{
		{Op: "add", From: from, To: to, P: &p},
		{Op: "remove", From: rmFrom, To: rmTo},
	}}, &mres)
	if code != http.StatusOK {
		t.Fatalf("mutate status %d (%+v)", code, mres)
	}
	if mres.Graph != "g" || mres.Version != 1 || mres.Applied != 2 {
		t.Fatalf("mutate response: %+v", mres)
	}
	if len(mres.Dirty) == 0 || mres.RepairsScheduled != 1 {
		t.Fatalf("mutate response dirty/repairs: %+v", mres)
	}

	// The graph listing advertises the new version.
	var gi GraphInfo
	if code := doJSON(t, "GET", ts.URL+"/v1/graphs/g", nil, &gi); code != http.StatusOK {
		t.Fatalf("GET graph status %d", code)
	}
	if gi.Version != 1 {
		t.Fatalf("graph version = %d, want 1", gi.Version)
	}
	if gi.Arcs != mres.Arcs {
		t.Fatalf("graph lists %d arcs, mutate reported %d", gi.Arcs, mres.Arcs)
	}

	// The warmed cache entry describes the old content: the same request
	// must now MISS and run a fresh job (generation-keyed cache).
	var again SelectResponse
	if code := doJSON(t, "POST", ts.URL+"/v1/select", sel, &again); code != http.StatusAccepted {
		t.Fatalf("post-mutation select: status %d, %+v (stale cache served?)", code, again)
	}
	pollJob(t, ts.URL, again.JobID)

	// Background repair re-synchronizes the sketch to version 1.
	waitSketchVersion(t, ts.URL, "g", 1)

	// The repaired sketch serves the fast path against the NEW snapshot.
	fast := SelectRequest{Graph: "g", Algorithm: "imm", K: 5, Options: Options{Epsilon: 0.3, Seed: 5}}
	var fresp SelectResponse
	deadline := time.Now().Add(30 * time.Second)
	for {
		fresp = SelectResponse{}
		code := doJSON(t, "POST", ts.URL+"/v1/select", fast, &fresp)
		if code == http.StatusOK && fresp.Sketch {
			break
		}
		// A racing repair may not have re-matched yet; the server must
		// fall back to a job, never serve the stale sample.
		if code == http.StatusAccepted {
			pollJob(t, ts.URL, fresp.JobID)
		} else if code != http.StatusOK {
			t.Fatalf("fast-path select status %d (%+v)", code, fresp)
		}
		if time.Now().After(deadline) {
			t.Fatal("sketch fast path never resumed after repair")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if len(fresp.Result.Seeds) != 5 {
		t.Fatalf("fast-path result: %+v", fresp.Result)
	}

	st := s.Stats()
	if st.GraphMutations != 1 {
		t.Fatalf("stats mutations = %d", st.GraphMutations)
	}
	if st.SketchRepairs < 1 || st.SketchRepairFailures != 0 {
		t.Fatalf("stats repairs: %+v", st)
	}
}

func TestMutateValidation(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxMutationOps: 2})
	g, err := s.reg.Get("g")
	if err != nil {
		t.Fatal(err)
	}
	nb := g.OutNeighbors(0)[0]
	p := 0.5
	bad := 1.5
	cases := []struct {
		name string
		url  string
		req  MutateRequest
		want int
	}{
		{"unknown-graph", "/v1/graphs/nope/edges", MutateRequest{Ops: []EdgeOpSpec{{Op: "remove", From: 0, To: nb}}}, http.StatusNotFound},
		{"empty-batch", "/v1/graphs/g/edges", MutateRequest{}, http.StatusBadRequest},
		{"too-many-ops", "/v1/graphs/g/edges", MutateRequest{Ops: []EdgeOpSpec{
			{Op: "remove", From: 0, To: nb}, {Op: "reweight", From: 0, To: nb, P: &p}, {Op: "reweight", From: 0, To: nb, Phi: &p},
		}}, http.StatusBadRequest},
		{"bad-op", "/v1/graphs/g/edges", MutateRequest{Ops: []EdgeOpSpec{{Op: "merge", From: 0, To: nb}}}, http.StatusBadRequest},
		{"bad-prob", "/v1/graphs/g/edges", MutateRequest{Ops: []EdgeOpSpec{{Op: "reweight", From: 0, To: nb, P: &bad}}}, http.StatusBadRequest},
		{"self-loop", "/v1/graphs/g/edges", MutateRequest{Ops: []EdgeOpSpec{{Op: "add", From: 3, To: 3}}}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var resp MutateResponse
			if code := doJSON(t, "POST", ts.URL+tc.url, tc.req, &resp); code != tc.want {
				t.Fatalf("status %d, want %d (%+v)", code, tc.want, resp)
			}
		})
	}
	// Nothing was applied: version stays 0 and no repairs ran.
	var gi GraphInfo
	if code := doJSON(t, "GET", ts.URL+"/v1/graphs/g", nil, &gi); code != http.StatusOK || gi.Version != 0 {
		t.Fatalf("graph after rejected batches: status %d, %+v", code, gi)
	}
	if st := s.Stats(); st.GraphMutations != 0 || st.SketchRepairs != 0 {
		t.Fatalf("stats after rejected batches: %+v", st)
	}
}

// TestMutateCoalescedRepairs floods several batches and checks the
// repair scheduler coalesces them without losing the final version.
func TestMutateCoalescedRepairs(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	buildTestSketch(t, ts.URL, SketchSpec{Graph: "g", Epsilon: 0.4, Seed: 3, BuildK: 5})

	g, err := s.reg.Get("g")
	if err != nil {
		t.Fatal(err)
	}
	// Five single-op batches: alternately remove and re-add one arc.
	u := int32(0)
	v := g.OutNeighbors(u)[0]
	p := 0.1
	for i := 0; i < 5; i++ {
		op := EdgeOpSpec{Op: "remove", From: u, To: v}
		if i%2 == 1 {
			op = EdgeOpSpec{Op: "add", From: u, To: v, P: &p}
		}
		var mres MutateResponse
		if code := doJSON(t, "POST", ts.URL+"/v1/graphs/g/edges", MutateRequest{Ops: []EdgeOpSpec{op}}, &mres); code != http.StatusOK {
			t.Fatalf("batch %d status %d (%+v)", i, code, mres)
		}
		if mres.Version != uint64(i+1) {
			t.Fatalf("batch %d produced version %d", i, mres.Version)
		}
	}
	waitSketchVersion(t, ts.URL, "g", 5)
	repairs, _, failed := s.sketches.RepairTotals()
	if repairs < 1 || repairs > 5 || failed != 0 {
		t.Fatalf("repair totals: repairs=%d failed=%d", repairs, failed)
	}
}

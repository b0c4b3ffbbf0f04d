package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"testing"

	"github.com/holisticim/holisticim"
)

// assertRepaired checks, right after a 200 from an edge batch on "g" and
// with no polling, that every sketch on the name is at the batch's
// version, that sketch_repairs reads repairs, and that a select matching
// each sketch is served from it.
func assertRepaired(t *testing.T, ts string, mres MutateResponse, repairs int64) {
	t.Helper()
	var list struct {
		Sketches []SketchInfo `json:"sketches"`
	}
	if code := doJSON(t, "GET", ts+"/v1/sketches", nil, &list); code != http.StatusOK {
		t.Fatalf("GET sketches status %d", code)
	}
	var st ServerStats
	if code := doJSON(t, "GET", ts+"/v1/stats", nil, &st); code != http.StatusOK {
		t.Fatalf("GET stats status %d", code)
	}
	if st.SketchRepairs != repairs || st.SketchRepairFailures != 0 {
		t.Fatalf("after version %d: sketch_repairs=%d failures=%d, want %d and 0",
			mres.Version, st.SketchRepairs, st.SketchRepairFailures, repairs)
	}
	for _, si := range list.Sketches {
		if si.Graph != mres.Graph {
			continue
		}
		if si.GraphVersion != mres.Version {
			t.Fatalf("sketch %s at graph_version %d after a 200 for version %d", si.ID, si.GraphVersion, mres.Version)
		}
		sel := SelectRequest{Graph: si.Graph, Algorithm: "imm", K: si.BuildK,
			Options: Options{Epsilon: si.Epsilon, Seed: si.Seed}}
		var resp SelectResponse
		if code := doJSON(t, "POST", ts+"/v1/select", sel, &resp); code != http.StatusOK || !resp.Sketch {
			t.Fatalf("select matching sketch %s at version %d: status %d, %+v", si.ID, mres.Version, code, resp)
		}
	}
}

// TestMutateEndToEnd drives the live-update loop over HTTP: build a
// sketch, mutate the graph, and confirm the 200 arrives with the sketch
// already repaired and queries served fresh — never from stale state.
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
	if len(mres.Dirty) == 0 || mres.Repaired != 1 {
		t.Fatalf("mutate response dirty/repairs: %+v", mres)
	}
	assertRepaired(t, ts.URL, mres, 1)

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

	if st := s.Stats(); st.GraphMutations != 1 {
		t.Fatalf("stats mutations = %d", st.GraphMutations)
	}
}

func TestMutateValidation(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	g, err := s.reg.Get("g")
	if err != nil {
		t.Fatal(err)
	}
	nb := g.OutNeighbors(0)[0]
	bad := 1.5
	// emptyOps is a batch of n `{}` ops: the shortest op spelling, and so
	// the only one that reaches the op cap inside the 1 MiB body cap.
	emptyOps := func(n int) json.RawMessage {
		return json.RawMessage(`{"ops":[{}` + strings.Repeat(`,{}`, n-1) + `]}`)
	}
	cases := []struct {
		name string
		url  string
		req  any
		want int
		msg  string // a substring of the error message, when set
	}{
		{"unknown-graph", "/v1/graphs/nope/edges", MutateRequest{Ops: []EdgeOpSpec{{Op: "remove", From: 0, To: nb}}}, http.StatusNotFound, ""},
		{"empty-batch", "/v1/graphs/g/edges", MutateRequest{}, http.StatusBadRequest, ""},
		{"too-many-ops", "/v1/graphs/g/edges", emptyOps(maxMutationOps + 1), http.StatusBadRequest, "exceeds the cap"},
		{"ops-at-cap", "/v1/graphs/g/edges", emptyOps(maxMutationOps), http.StatusBadRequest, "op 0"},
		{"bad-op", "/v1/graphs/g/edges", MutateRequest{Ops: []EdgeOpSpec{{Op: "merge", From: 0, To: nb}}}, http.StatusBadRequest, ""},
		{"bad-prob", "/v1/graphs/g/edges", MutateRequest{Ops: []EdgeOpSpec{{Op: "reweight", From: 0, To: nb, P: &bad}}}, http.StatusBadRequest, ""},
		{"self-loop", "/v1/graphs/g/edges", MutateRequest{Ops: []EdgeOpSpec{{Op: "add", From: 3, To: 3}}}, http.StatusBadRequest, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var resp ErrorResponse
			if code := doJSON(t, "POST", ts.URL+tc.url, tc.req, &resp); code != tc.want {
				t.Fatalf("status %d, want %d (%+v)", code, tc.want, resp)
			}
			if !strings.Contains(resp.Error.Message, tc.msg) {
				t.Fatalf("error %q, want it to name %q", resp.Error.Message, tc.msg)
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

// TestMutateRepairsEachBatch sends back-to-back batches: each answers
// only once its own repair landed, so after batch i the sketch is at
// version i and exactly i repairs have run.
func TestMutateRepairsEachBatch(t *testing.T) {
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
	for i := 1; i <= 5; i++ {
		op := EdgeOpSpec{Op: "remove", From: u, To: v}
		if i%2 == 0 {
			op = EdgeOpSpec{Op: "add", From: u, To: v, P: &p}
		}
		var mres MutateResponse
		if code := doJSON(t, "POST", ts.URL+"/v1/graphs/g/edges", MutateRequest{Ops: []EdgeOpSpec{op}}, &mres); code != http.StatusOK {
			t.Fatalf("batch %d status %d (%+v)", i, code, mres)
		}
		if mres.Version != uint64(i) || mres.Repaired != 1 {
			t.Fatalf("batch %d: version %d, %d repaired", i, mres.Version, mres.Repaired)
		}
		assertRepaired(t, ts.URL, mres, int64(i))
	}
}

// A registry outside any Server repairs its sketches on Mutate too: the
// repaired sample equals a fresh build at the final graph.
func TestStandaloneRegistryRepairsOnMutate(t *testing.T) {
	ctx := context.Background()
	r := NewRegistry()
	g := holisticim.GenerateBA(300, 3, 1)
	g.SetUniformProb(0.1)
	if err := r.Add("g", g, "test"); err != nil {
		t.Fatal(err)
	}
	// MaxSets is below the natural θ, so repaired and fresh indexes both
	// hold exactly the first maxSets sets of the seed's stream.
	const maxSets = 3000
	opts := holisticim.SketchOptions{Epsilon: 0.3, Seed: 7, BuildK: 5, MaxSets: maxSets}
	idx, err := holisticim.BuildSketch(ctx, g, opts)
	if err != nil {
		t.Fatal(err)
	}
	id, err := r.AddSketch("g", idx)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		cur, err := r.Get("g")
		if err != nil {
			t.Fatal(err)
		}
		u := int32(i)
		ops := []holisticim.EdgeOp{{Op: holisticim.OpRemoveEdge, From: u, To: cur.OutNeighbors(u)[0]}}
		res, repaired, err := r.Mutate(ctx, "g", ops, holisticim.ApplyOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Version != uint64(i) || repaired != 1 {
			t.Fatalf("batch %d: version %d, %d repaired", i, res.Version, repaired)
		}
	}
	info, err := r.DescribeSketch(id)
	if err != nil {
		t.Fatalf("sketch evicted by the batches: %v", err)
	}
	if info.GraphVersion != 3 {
		t.Fatalf("sketch at graph version %d, want 3", info.GraphVersion)
	}
	final, err := r.Get("g")
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := holisticim.BuildSketch(ctx, final, opts)
	if err != nil {
		t.Fatal(err)
	}
	if n := fresh.Stats().Sets; n != maxSets {
		t.Fatalf("a fresh build holds %d sets, not the %d cap: the comparison needs θ above the cap", n, maxSets)
	}
	if !bytes.Equal(sampleBytes(t, idx), sampleBytes(t, fresh)) {
		t.Fatal("repaired sample differs from a fresh build on the final graph")
	}
}

// Batches from several goroutines on one name serialize on the registry's
// writer: each gets its own version, and every repair lands in order, so
// the sketch ends at the last version with one repair per batch.
func TestMutateConcurrentBatchesSerialize(t *testing.T) {
	ctx := context.Background()
	r := NewRegistry()
	g := holisticim.GenerateBA(300, 3, 1)
	g.SetUniformProb(0.1)
	if err := r.Add("g", g, "test"); err != nil {
		t.Fatal(err)
	}
	idx, err := holisticim.BuildSketch(ctx, g, holisticim.SketchOptions{Epsilon: 0.4, Seed: 3, BuildK: 5})
	if err != nil {
		t.Fatal(err)
	}
	id, err := r.AddSketch("g", idx)
	if err != nil {
		t.Fatal(err)
	}
	const writers, batches = 4, 3
	versions := make(chan uint64, writers*batches)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				// Reweights keep the topology, so every writer's arcs stay valid.
				u := int32(w*batches + b)
				p := 0.2 + 0.01*float64(w)
				ops := []holisticim.EdgeOp{{Op: holisticim.OpReweightEdge, From: u, To: g.OutNeighbors(u)[0], P: &p}}
				res, repaired, err := r.Mutate(ctx, "g", ops, holisticim.ApplyOptions{})
				if err != nil || repaired != 1 {
					t.Errorf("writer %d batch %d: %d repaired, %v", w, b, repaired, err)
					return
				}
				versions <- res.Version
			}
		}(w)
	}
	wg.Wait()
	close(versions)
	seen := map[uint64]bool{}
	for v := range versions {
		if seen[v] || v < 1 || v > writers*batches {
			t.Fatalf("version %d handed out twice or out of range", v)
		}
		seen[v] = true
	}
	if len(seen) != writers*batches {
		t.Fatalf("%d distinct versions, want %d", len(seen), writers*batches)
	}
	info, err := r.DescribeSketch(id)
	if err != nil {
		t.Fatal(err)
	}
	if info.GraphVersion != writers*batches || r.repairs.Load() != writers*batches {
		t.Fatalf("sketch at version %d after %d repairs, want %d and %d",
			info.GraphVersion, r.repairs.Load(), writers*batches, writers*batches)
	}
}

// sampleBytes is idx's snapshot less what a repair may legitimately
// leave different from a fresh build: the OPT lower bound the build
// phase derived (header bytes 60-68, see internal/sketch/snapshot.go) and
// the checksum that covers it. What remains is the graph fingerprint,
// the parameters, the set count and every set.
func sampleBytes(t *testing.T, idx *holisticim.Sketch) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := holisticim.WriteSketch(&buf, idx); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	return append(b[:60:60], b[68:len(b)-8]...)
}

// Sketch builds racing edge batches on one name. Each round plans a
// build (its POST returns once the snapshot to sample is chosen) and
// applies a batch while the build samples on the worker pool. The build
// must either register before the batch — and then be among the repairs
// that batch reports before its 200 — or be refused; it must never land
// on a snapshot it was not sampled over. At the end every surviving
// sketch holds exactly the sample a fresh build draws at the final graph
// version.
func TestSketchBuildsRaceEdgeBatches(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	// Below the natural θ of every snapshot, so each index, repaired or
	// fresh, holds exactly the first maxSets sets of its seed's stream.
	const rounds, maxSets = 12, 3000
	refused, repairs := 0, int64(0)
	for i := 0; i < rounds; i++ {
		before := s.Stats().Sketches
		spec := SketchSpec{Graph: "g", Epsilon: 0.3, Seed: uint64(100 + i), BuildK: 5, MaxSets: maxSets}
		var build SelectResponse
		if code := doJSON(t, "POST", ts.URL+"/v1/sketches", spec, &build); code != http.StatusAccepted {
			t.Fatalf("round %d: build status %d (%+v)", i, code, build)
		}
		g, err := s.reg.Get("g")
		if err != nil {
			t.Fatal(err)
		}
		u := int32(i)
		var mres MutateResponse
		batch := MutateRequest{Ops: []EdgeOpSpec{{Op: "remove", From: u, To: g.OutNeighbors(u)[0]}}}
		if code := doJSON(t, "POST", ts.URL+"/v1/graphs/g/edges", batch, &mres); code != http.StatusOK {
			t.Fatalf("round %d: batch status %d (%+v)", i, code, mres)
		}
		done := pollJob(t, ts.URL, build.JobID)
		registered := done.State == StateDone
		if !registered {
			refused++
			if !strings.Contains(done.Error, ErrGraphReplaced.Error()) {
				t.Fatalf("round %d: build failed for another reason: %+v", i, done)
			}
		}
		want := before
		if registered {
			want++
		}
		if mres.Repaired != want {
			t.Fatalf("round %d: batch repaired %d sketches, want %d (build registered: %v)", i, mres.Repaired, want, registered)
		}
		if got := s.Stats().Sketches; got != want {
			t.Fatalf("round %d: %d sketches registered, want %d", i, got, want)
		}
		repairs += int64(want)
		assertRepaired(t, ts.URL, mres, repairs)
	}
	t.Logf("%d of %d builds refused by the batch racing them", refused, rounds)

	final, err := s.reg.Get("g")
	if err != nil {
		t.Fatal(err)
	}
	for _, info := range s.reg.ListSketches() {
		if info.GraphVersion != rounds {
			t.Fatalf("sketch %s at graph version %d, want %d", info.ID, info.GraphVersion, rounds)
		}
		idx := s.reg.sketchByID(info.ID).idx
		fresh, err := holisticim.BuildSketch(context.Background(), final, holisticim.SketchOptions{
			Epsilon: info.Epsilon, Seed: info.Seed, BuildK: 5, MaxSets: maxSets,
		})
		if err != nil {
			t.Fatal(err)
		}
		if n := fresh.Stats().Sets; n != maxSets {
			t.Fatalf("a fresh build holds %d sets, not the %d cap: the comparison needs θ above the cap", n, maxSets)
		}
		if !bytes.Equal(sampleBytes(t, idx), sampleBytes(t, fresh)) {
			t.Fatalf("sketch %s at version %d: sample differs from a fresh build on the final graph", info.ID, info.GraphVersion)
		}
	}
}

package sketch

import (
	"context"
	"fmt"
	"io"
	"slices"
	"sync"
	"testing"

	"github.com/holisticim/holisticim/internal/graph"
	"github.com/holisticim/holisticim/internal/ris"
	"github.com/holisticim/holisticim/internal/rng"
)

func testGraph(t testing.TB, n int32) *graph.Graph {
	t.Helper()
	g := graph.BarabasiAlbert(n, 3, rng.New(7))
	g.SetUniformProb(0.1)
	g.SetDefaultLTWeights()
	return g
}

func mustBuild(t testing.TB, g *graph.Graph, p Params) *Index {
	t.Helper()
	x, err := Build(context.Background(), g, p)
	if err != nil {
		t.Fatal(err)
	}
	return x
}

// Satellite: a sketch built with Workers=8 must be set-for-set identical
// to Workers=1 — the deterministic split-seed per set index is what makes
// the index a pure function of (graph, Params). Run under -race in CI.
func TestParallelBuildDeterminism(t *testing.T) {
	g := testGraph(t, 2000)
	for _, kind := range []ris.ModelKind{ris.ModelIC, ris.ModelLT} {
		p := Params{Kind: kind, Epsilon: 0.3, Seed: 11, BuildK: 10}
		p.Workers = 1
		x1 := mustBuild(t, g, p)
		p.Workers = 8
		x8 := mustBuild(t, g, p)

		if x1.Len() != x8.Len() {
			t.Fatalf("%v: %d sets with 8 workers, want %d", kind, x8.Len(), x1.Len())
		}
		s1, s8 := x1.col.Sets(), x8.col.Sets()
		for i := range s1 {
			if len(s1[i]) != len(s8[i]) {
				t.Fatalf("%v: set %d has %d nodes with 8 workers, want %d", kind, i, len(s8[i]), len(s1[i]))
			}
			for j := range s1[i] {
				if s1[i][j] != s8[i][j] {
					t.Fatalf("%v: set %d differs at position %d", kind, i, j)
				}
			}
		}
		r1, err := x1.Select(context.Background(), 10)
		if err != nil {
			t.Fatal(err)
		}
		r8, err := x8.Select(context.Background(), 10)
		if err != nil {
			t.Fatal(err)
		}
		for i := range r1.Seeds {
			if r1.Seeds[i] != r8.Seeds[i] {
				t.Fatalf("%v: seed %d differs: %d vs %d", kind, i, r1.Seeds[i], r8.Seeds[i])
			}
		}
	}
}

// refMaxCoverage is greedy max coverage over plain slices — ties go to
// the lowest node id, and a chosen node is never chosen again — sharing
// no code with ris.Collection.
func refMaxCoverage(sets [][]graph.NodeID, n int32, k int) ([]graph.NodeID, float64) {
	hit := make([]bool, len(sets))
	chosen := make([]bool, n)
	var seeds []graph.NodeID
	total := 0
	for len(seeds) < k {
		gain := make([]int, n)
		for sid, set := range sets {
			if !hit[sid] {
				for _, v := range set {
					gain[v]++
				}
			}
		}
		best := graph.NodeID(-1)
		for v := graph.NodeID(0); v < n; v++ {
			if !chosen[v] && (best < 0 || gain[v] > gain[best]) {
				best = v
			}
		}
		chosen[best] = true
		seeds = append(seeds, best)
		total += gain[best]
		for sid, set := range sets {
			hit[sid] = hit[sid] || slices.Contains(set, best)
		}
	}
	return seeds, float64(total) / float64(len(sets))
}

// The memoized incremental greedy must agree with a from-scratch greedy
// over the same sets, and so must the collection's one-shot pass.
func TestSelectMatchesMaxCoverage(t *testing.T) {
	g := testGraph(t, 1500)
	x := mustBuild(t, g, Params{Epsilon: 0.3, Seed: 3, BuildK: 20})
	// Freeze the sample so the reference below stays aligned even if a
	// request's θ bound would otherwise extend it.
	x.params.MaxSets = x.col.Len()

	want, wantFrac := refMaxCoverage(x.col.Sets(), g.NumNodes(), 20)
	if got, frac := x.col.MaxCoverage(20); !slices.Equal(got, want) || frac != wantFrac {
		t.Fatalf("MaxCoverage %v/%v, reference %v/%v", got, frac, want, wantFrac)
	}

	res, err := x.Select(context.Background(), 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Seeds) != len(want) {
		t.Fatalf("got %d seeds, want %d", len(res.Seeds), len(want))
	}
	for i := range want {
		if res.Seeds[i] != want[i] {
			t.Fatalf("seed %d: got %d, want %d", i, res.Seeds[i], want[i])
		}
	}
	if got := res.Metrics["coverage"]; got != wantFrac {
		t.Fatalf("coverage %v, want %v", got, wantFrac)
	}
	// Prefix queries reuse the memoized order.
	res5, err := x.Select(context.Background(), 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res5.Seeds {
		if res5.Seeds[i] != want[i] {
			t.Fatalf("prefix seed %d: got %d, want %d", i, res5.Seeds[i], want[i])
		}
	}
	if x.Stats().Selects != 2 {
		t.Fatalf("selects counter: %d, want 2", x.Stats().Selects)
	}
}

// Seeds must be distinct even when coverage saturates (k beyond the
// useful frontier).
func TestSelectDistinctSeeds(t *testing.T) {
	g := graph.Path(30, 0.5, 0.5)
	g.SetDefaultLTWeights()
	x := mustBuild(t, g, Params{Epsilon: 0.4, Seed: 1, BuildK: 5})
	res, err := x.Select(context.Background(), 30)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[graph.NodeID]bool)
	for _, s := range res.Seeds {
		if seen[s] {
			t.Fatalf("duplicate seed %d", s)
		}
		seen[s] = true
	}
	if len(res.Seeds) != 30 {
		t.Fatalf("got %d seeds, want 30", len(res.Seeds))
	}
}

// A k whose θ bound exceeds the sets held must trigger a lazy,
// deterministic extension: the extended index equals one built large
// from scratch.
func TestLazyExtension(t *testing.T) {
	g := graph.ErdosRenyi(500, 1500, rng.New(5))
	g.SetUniformProb(0.3) // supercritical: OPT saturates, so θ grows with k
	g.SetDefaultLTWeights()
	x := mustBuild(t, g, Params{Epsilon: 0.3, Seed: 2, BuildK: 2})
	before := x.Len()

	res, err := x.Select(context.Background(), 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Seeds) != 100 {
		t.Fatalf("got %d seeds, want 100", len(res.Seeds))
	}
	if x.Stats().Extensions == 0 || x.Len() <= before {
		t.Fatalf("expected a lazy extension (sets %d -> %d, extensions %d)",
			before, x.Len(), x.Stats().Extensions)
	}
	if res.Metrics["extended_sets"] == 0 {
		t.Fatal("extension not recorded in metrics")
	}

	// The extended sample is the same stream a fresh index would draw.
	seq := ris.NewCollection(g, ris.ModelIC)
	seq.Generate(x.Len(), 2)
	for i, want := range seq.Sets() {
		got := x.col.Sets()[i]
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("extended set %d differs from the deterministic stream", i)
			}
		}
	}
}

// MaxSets must cap extension and record that the θ bound went unmet.
func TestMaxSetsCap(t *testing.T) {
	g := testGraph(t, 800)
	x := mustBuild(t, g, Params{Epsilon: 0.3, Seed: 4, BuildK: 10, MaxSets: 200})
	if x.Len() > 200 {
		t.Fatalf("build exceeded MaxSets: %d sets", x.Len())
	}
	res, err := x.Select(context.Background(), 50)
	if err != nil {
		t.Fatal(err)
	}
	if x.Len() > 200 {
		t.Fatalf("select exceeded MaxSets: %d sets", x.Len())
	}
	if res.Metrics["theta_capped"] == 0 {
		t.Fatal("cap not recorded in metrics")
	}
}

// Cancellation mid-select must return a partial result and leave the
// index consistent for the next caller.
func TestSelectCancellation(t *testing.T) {
	g := testGraph(t, 800)
	x := mustBuild(t, g, Params{Epsilon: 0.3, Seed: 6, BuildK: 10})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := x.Select(ctx, 10)
	if err == nil {
		t.Fatal("expected a context error")
	}
	if !res.Partial {
		t.Fatal("result not marked partial")
	}
	// The index must still serve the next request.
	res, err = x.Select(context.Background(), 10)
	if err != nil || len(res.Seeds) != 10 {
		t.Fatalf("index unusable after cancellation: %v, %d seeds", err, len(res.Seeds))
	}
}

// A cancelled build returns no index.
func TestBuildCancellation(t *testing.T) {
	g := testGraph(t, 800)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Build(ctx, g, Params{}); err == nil {
		t.Fatal("expected a context error")
	}
}

func TestBuildRejectsBadInput(t *testing.T) {
	if _, err := Build(context.Background(), nil, Params{}); err == nil {
		t.Fatal("nil graph accepted")
	}
	empty := graph.NewBuilder(0).Build()
	if _, err := Build(context.Background(), empty, Params{}); err == nil {
		t.Fatal("empty graph accepted")
	}
	g := testGraph(t, 100)
	x := mustBuild(t, g, Params{Epsilon: 0.4})
	if _, err := x.Select(context.Background(), 0); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := x.Select(context.Background(), 101); err == nil {
		t.Fatal("k>n accepted")
	}
}

// Concurrent selects (varying k), stats polls and snapshot saves must be
// race-free and mutually consistent. Run under -race in CI.
func TestConcurrentSelect(t *testing.T) {
	g := testGraph(t, 1000)
	x := mustBuild(t, g, Params{Epsilon: 0.3, Seed: 8, BuildK: 20})
	// Freeze the sample: prefix stability across concurrent ks is only
	// guaranteed while no extension resets the memoized order.
	x.params.MaxSets = x.col.Len()
	ref, err := x.Select(context.Background(), 20)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				k := 1 + (w+i)%20
				res, err := x.Select(context.Background(), k)
				if err != nil {
					errs <- err
					return
				}
				for j := range res.Seeds {
					if res.Seeds[j] != ref.Seeds[j] {
						errs <- fmt.Errorf("worker %d: seed %d diverged", w, j)
						return
					}
				}
				_ = x.Stats()
				if err := x.Save(io.Discard); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

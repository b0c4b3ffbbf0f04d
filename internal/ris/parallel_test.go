package ris

import (
	"context"
	"testing"

	"github.com/holisticim/holisticim/internal/graph"
	"github.com/holisticim/holisticim/internal/opinion"
	"github.com/holisticim/holisticim/internal/rng"
)

func parallelTestGraph(t testing.TB) *graph.Graph {
	t.Helper()
	g := graph.BarabasiAlbert(2000, 3, rng.New(7))
	g.SetUniformProb(0.1)
	g.SetDefaultLTWeights()
	return g
}

// Parallel generation must be invisible in the output: the collection is
// a pure function of (graph, kind, seed, count), never of worker count or
// scheduling. Set-for-set comparison, all models — for the weighted OC
// kind the per-set root-opinion weights must agree bit-for-bit too (run
// under -race in CI; the Workers=8≡1 case is the satellite determinism
// guarantee for the weighted sampler).
func TestGenerateParallelMatchesSequential(t *testing.T) {
	g := parallelTestGraph(t)
	opinion.AssignOpinions(g, opinion.Normal, 3)
	for _, kind := range []ModelKind{ModelIC, ModelLT, ModelOC} {
		seq := NewCollection(g, kind)
		seq.Generate(3000, 42)
		for _, workers := range []int{1, 2, 8} {
			par := NewCollection(g, kind)
			if err := par.GenerateParallelCtx(context.Background(), 3000, 42, workers); err != nil {
				t.Fatalf("%v workers=%d: %v", kind, workers, err)
			}
			if par.Len() != seq.Len() {
				t.Fatalf("%v workers=%d: %d sets, want %d", kind, workers, par.Len(), seq.Len())
			}
			if par.Width() != seq.Width() {
				t.Fatalf("%v workers=%d: width %d, want %d", kind, workers, par.Width(), seq.Width())
			}
			for i, want := range seq.Sets() {
				got := par.Sets()[i]
				if len(got) != len(want) {
					t.Fatalf("%v workers=%d: set %d has %d nodes, want %d", kind, workers, i, len(got), len(want))
				}
				for j := range want {
					if got[j] != want[j] {
						t.Fatalf("%v workers=%d: set %d differs at %d", kind, workers, i, j)
					}
				}
			}
			if kind.Weighted() {
				ww, wp := seq.Weights(), par.Weights()
				if len(ww) != seq.Len() || len(wp) != par.Len() {
					t.Fatalf("%v workers=%d: weight column length %d/%d, want %d", kind, workers, len(wp), len(ww), seq.Len())
				}
				for i := range ww {
					if wp[i] != ww[i] {
						t.Fatalf("%v workers=%d: weight %d = %v, want %v", kind, workers, i, wp[i], ww[i])
					}
				}
			}
		}
	}
}

// Extending a parallel-built collection sequentially (and vice versa)
// continues the same deterministic stream.
func TestGenerateParallelExtension(t *testing.T) {
	g := parallelTestGraph(t)
	seq := NewCollection(g, ModelIC)
	seq.Generate(2000, 9)

	mixed := NewCollection(g, ModelIC)
	if err := mixed.GenerateParallelCtx(context.Background(), 1200, 9, 4); err != nil {
		t.Fatal(err)
	}
	mixed.Generate(800, 9)
	if mixed.Len() != seq.Len() {
		t.Fatalf("mixed build: %d sets, want %d", mixed.Len(), seq.Len())
	}
	for i, want := range seq.Sets() {
		got := mixed.Sets()[i]
		if len(got) != len(want) {
			t.Fatalf("set %d has %d nodes, want %d", i, len(got), len(want))
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("set %d differs at position %d", i, j)
			}
		}
	}
}

// A cancelled parallel generation keeps only a contiguous, deterministic
// prefix so later extensions stay aligned with the stream.
func TestGenerateParallelCancellation(t *testing.T) {
	g := parallelTestGraph(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c := NewCollection(g, ModelIC)
	if err := c.GenerateParallelCtx(ctx, 2000, 5, 4); err == nil {
		t.Fatal("expected a context error")
	}
	// Whatever prefix survived must match the sequential stream.
	seq := NewCollection(g, ModelIC)
	seq.Generate(c.Len(), 5)
	for i, want := range seq.Sets() {
		got := c.Sets()[i]
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("prefix set %d differs", i)
			}
		}
	}
}

// Install must build the inverted index and width exactly as generation
// does — it is how snapshot loading reconstructs a collection.
func TestCollectionAdd(t *testing.T) {
	g := parallelTestGraph(t)
	src := NewCollection(g, ModelIC)
	src.Generate(500, 3)

	dst := NewCollection(g, ModelIC)
	ids, off := flatten(src.Sets())
	dst.Install(ids, off, nil)
	if dst.Width() != src.Width() {
		t.Fatalf("width %d, want %d", dst.Width(), src.Width())
	}
	for v := graph.NodeID(0); v < g.NumNodes(); v++ {
		a, b := src.SetsContaining(v), dst.SetsContaining(v)
		if len(a) != len(b) {
			t.Fatalf("node %d: %d sets, want %d", v, len(b), len(a))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("node %d inverted index differs at %d", v, i)
			}
		}
	}
	sa, _ := src.MaxCoverage(10)
	sb, _ := dst.MaxCoverage(10)
	for i := range sa {
		if sa[i] != sb[i] {
			t.Fatalf("max coverage differs at seed %d", i)
		}
	}
}

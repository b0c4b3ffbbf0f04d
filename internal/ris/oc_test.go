package ris

import (
	"context"
	"math"
	"testing"

	"github.com/holisticim/holisticim/internal/graph"
	"github.com/holisticim/holisticim/internal/opinion"
)

// OCRootWeight on a hand-built chain: the root's final opinion when the
// seed sits at the walk's end and every relay averages its own opinion
// with its activator's.
func TestOCRootWeight(t *testing.T) {
	b := graph.NewBuilder(3)
	b.AddEdge(1, 0) // 1 -> 0
	b.AddEdge(2, 1) // 2 -> 1
	g := b.Build()
	g.SetDefaultLTWeights()
	g.SetOpinion(0, 0.8)
	g.SetOpinion(1, -0.4)
	g.SetOpinion(2, 0.6)

	// Walk rooted at 0: 0 <- 1 <- 2. o'_1 = (-0.4+0.6)/2 = 0.1,
	// o'_0 = (0.8+0.1)/2 = 0.45.
	if w := OCRootWeight(g, []graph.NodeID{0, 1, 2}); math.Abs(w-0.45) > 1e-12 {
		t.Fatalf("chain weight %v, want 0.45", w)
	}
	// One-node walk: the root's own opinion.
	if w := OCRootWeight(g, []graph.NodeID{1}); w != -0.4 {
		t.Fatalf("singleton weight %v, want -0.4", w)
	}
}

// An OC collection must sample bit-identical sets to an LT collection —
// the weight is derived from the walk, never drawn from the stream — so
// the opinion path rides the exact sample the oblivious one does.
func TestOCSetsMatchLT(t *testing.T) {
	g := parallelTestGraph(t)
	opinion.AssignOpinions(g, opinion.Normal, 5)
	lt := NewCollection(g, ModelLT)
	lt.Generate(1500, 7)
	oc := NewCollection(g, ModelOC)
	oc.Generate(1500, 7)
	if lt.Len() != oc.Len() {
		t.Fatalf("%d OC sets, want %d", oc.Len(), lt.Len())
	}
	for i, want := range lt.Sets() {
		got := oc.Sets()[i]
		if len(got) != len(want) {
			t.Fatalf("set %d has %d nodes, want %d", i, len(got), len(want))
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("set %d differs at %d", i, j)
			}
		}
	}
	if len(oc.Weights()) != oc.Len() {
		t.Fatalf("weight column %d, want %d", len(oc.Weights()), oc.Len())
	}
	for i, w := range oc.Weights() {
		if math.IsNaN(w) || w < -1 || w > 1 {
			t.Fatalf("weight %d = %v out of [-1,1]", i, w)
		}
		if want := OCRootWeight(g, oc.Sets()[i]); w != want {
			t.Fatalf("weight %d = %v, want recomputed %v", i, w, want)
		}
	}
	if lt.Weights() != nil {
		t.Fatal("unweighted collection grew a weight column")
	}
}

// Install must preserve stored weights verbatim (the snapshot-load
// contract), and insist on a column exactly for weighted kinds.
func TestOCAddWeighted(t *testing.T) {
	g := parallelTestGraph(t)
	opinion.AssignOpinions(g, opinion.Normal, 5)
	src := NewCollection(g, ModelOC)
	src.Generate(200, 3)

	stored := make([]float64, src.Len())
	for i := range stored {
		stored[i] = float64(i%7)/7 - 0.5 // not what OCRootWeight would say
	}
	dst := NewCollection(g, ModelOC)
	ids, off := flatten(src.Sets())
	dst.Install(ids, off, stored)
	if dst.Width() != src.Width() {
		t.Fatalf("width %d, want %d", dst.Width(), src.Width())
	}
	for i := range stored {
		if dst.Weights()[i] != stored[i] {
			t.Fatalf("weight %d not preserved", i)
		}
	}
	for name, install := range map[string]func(){
		"weights on an unweighted collection": func() {
			NewCollection(g, ModelIC).Install([]graph.NodeID{0}, []uint32{0, 1}, []float64{0.5})
		},
		"no weights on a weighted collection": func() { dst.Install(ids, off, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Install with %s did not panic", name)
				}
			}()
			install()
		}()
	}
}

// OpinionCoverage on a two-node path (exactly computable): with a
// deterministic live edge, the estimator is exact for the OC spread.
func TestOCOpinionCoverageExact(t *testing.T) {
	b := graph.NewBuilder(2)
	b.AddEdge(0, 1) // 0 -> 1, LT weight 1 after defaults
	g := b.Build()
	g.SetDefaultLTWeights()
	g.SetOpinion(0, 0.6)
	g.SetOpinion(1, -0.2)

	c := NewCollection(g, ModelOC)
	c.Generate(4000, 11)
	// Seeds {0}: node 1 always activates with o'_1 = (o_1+o_0)/2 = 0.2, so
	// σ_o = 0.2. Roots split ~uniformly between 0 and 1; only root-1 sets
	// (weight (o_1+o_0)/2) count — root-0 sets are root-seeded.
	got := c.EstimateOpinionSpread([]graph.NodeID{0})
	if math.Abs(got-0.2) > 0.02 {
		t.Fatalf("estimated opinion spread %v, want 0.2 +- 0.02", got)
	}
	covered, pos, neg := c.OpinionCoverage([]graph.NodeID{0})
	if covered != c.Len() {
		t.Fatalf("covered %d of %d sets, want all", covered, c.Len())
	}
	if neg != 0 || pos <= 0 {
		t.Fatalf("pos/neg = %v/%v, want positive mass only", pos, neg)
	}
	// Out-of-range seeds (defensive path) must not panic.
	if cov, _, _ := c.OpinionCoverage([]graph.NodeID{-1, 99}); cov != 0 {
		t.Fatalf("out-of-range seeds covered %d sets", cov)
	}
}

// GenerateParallelCtx over the weighted kind under an expiring context
// must keep a deterministic prefix, weights included.
func TestOCParallelCancellation(t *testing.T) {
	g := parallelTestGraph(t)
	opinion.AssignOpinions(g, opinion.Normal, 5)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c := NewCollection(g, ModelOC)
	if err := c.GenerateParallelCtx(ctx, 2000, 5, 4); err == nil {
		t.Fatal("expected a context error")
	}
	seq := NewCollection(g, ModelOC)
	seq.Generate(c.Len(), 5)
	for i := range c.Sets() {
		if c.Weights()[i] != seq.Weights()[i] {
			t.Fatalf("prefix weight %d differs", i)
		}
	}
}

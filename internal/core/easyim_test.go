package core

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/holisticim/holisticim/internal/diffusion"
	"github.com/holisticim/holisticim/internal/graph"
	"github.com/holisticim/holisticim/internal/rng"
)

func TestEaSyIMStarScores(t *testing.T) {
	g := graph.Star(6, 0.2, 0.5) // 0 -> 1..5
	s := NewEaSyIM(g, 3, WeightProb)
	scores := ScoreOf(s)
	if math.Abs(scores[0]-5*0.2) > 1e-12 {
		t.Fatalf("center score %v want 1.0", scores[0])
	}
	for v := 1; v < 6; v++ {
		if scores[v] != 0 {
			t.Fatalf("leaf %d score %v want 0", v, scores[v])
		}
	}
}

func TestEaSyIMPathGeometricScores(t *testing.T) {
	// On a path with uniform p, ∆_l(u0) = p + p² + ... + p^l.
	p := 0.3
	g := graph.Path(10, p, 0.5)
	for l := 1; l <= 5; l++ {
		s := NewEaSyIM(g, l, WeightProb)
		scores := ScoreOf(s)
		want := 0.0
		acc := 1.0
		for i := 0; i < l; i++ {
			acc *= p
			want += acc
		}
		if math.Abs(scores[0]-want) > 1e-12 {
			t.Fatalf("l=%d: score %v want %v", l, scores[0], want)
		}
	}
}

func TestEaSyIMExactOnTrees(t *testing.T) {
	// Conclusion 2: on trees the score of the root with l ≥ depth equals
	// the exact expected IC spread (sum over nodes of the unique-path
	// probability product).
	for trial := 0; trial < 6; trial++ {
		r := rng.Split(77, uint64(trial))
		n := int32(5 + r.Intn(20))
		g := graph.RandomTree(n, 0.35, 0.5, r)
		s := NewEaSyIM(g, int(n), WeightProb)
		scores := ScoreOf(s)
		// Exact expected spread by DP along unique paths.
		want := make([]float64, n)
		// process nodes in reverse BFS order: since parent < child by
		// construction, iterate ids downward.
		for u := n - 1; u >= 0; u-- {
			base := g.OutEdgeBase(u)
			for i, v := range g.OutNeighbors(u) {
				want[u] += g.ProbAt(base+int64(i)) * (1 + want[v])
			}
		}
		for u := int32(0); u < n; u++ {
			if math.Abs(scores[u]-want[u]) > 1e-9 {
				t.Fatalf("trial %d node %d: score %v want %v", trial, u, scores[u], want[u])
			}
		}
	}
}

func TestEaSyIMTreeScoreMatchesMCSpread(t *testing.T) {
	// The tree score must match the Monte-Carlo IC spread estimate.
	r := rng.New(5)
	g := graph.RandomTree(30, 0.4, 0.5, r)
	s := NewEaSyIM(g, 30, WeightProb)
	scores := ScoreOf(s)
	est := diffusion.MonteCarlo(diffusion.NewIC(g), []graph.NodeID{0}, diffusion.MCOptions{Runs: 60000, Seed: 3})
	if math.Abs(scores[0]-est.Spread) > 0.05 {
		t.Fatalf("score %v vs MC spread %v", scores[0], est.Spread)
	}
}

func TestEaSyIMExclusion(t *testing.T) {
	g := graph.Path(4, 0.5, 0.5)
	s := NewEaSyIM(g, 3, WeightProb)
	excluded := make([]bool, 4)
	excluded[1] = true
	scores := s.Assign(excluded, nil)
	if !math.IsInf(scores[1], -1) {
		t.Fatalf("excluded score %v want -Inf", scores[1])
	}
	// Node 0's only walk goes through 1 → score 0.
	if scores[0] != 0 {
		t.Fatalf("score through excluded node: %v", scores[0])
	}
	// Node 2 unaffected: 0.5 + 0 (3 is a sink).
	if math.Abs(scores[2]-0.5) > 1e-12 {
		t.Fatalf("score[2] = %v", scores[2])
	}
}

func TestEaSyIMLTWeights(t *testing.T) {
	// Under WeightLT the scorer must consume w(u,v)=1/|In(v)| rather than p.
	b := graph.NewBuilder(3)
	b.AddEdgeP(0, 2, 0.9, 0.5)
	b.AddEdgeP(1, 2, 0.9, 0.5)
	g := b.Build()
	g.SetDefaultLTWeights()
	s := NewEaSyIM(g, 1, WeightLT)
	scores := ScoreOf(s)
	if math.Abs(scores[0]-0.5) > 1e-12 { // w(0,2)=1/2
		t.Fatalf("LT score %v want 0.5", scores[0])
	}
}

func TestEaSyIMFigure1PicksC(t *testing.T) {
	// Under IC, C has the best opinion-oblivious score (paper Example 2
	// argues C is the IC-chosen seed).
	g := graph.ExampleFigure1()
	s := NewEaSyIM(g, 3, WeightProb)
	scores := ScoreOf(s)
	if best := ArgmaxScore(scores); best != 2 {
		t.Fatalf("EaSyIM picked %d, want C=2 (scores %v)", best, scores)
	}
}

func TestEaSyIMScoreNonNegativeQuick(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.Split(seed, 1)
		g := graph.ErdosRenyi(int32(5+r.Intn(40)), 120, r)
		g.SetUniformProb(r.Float64())
		s := NewEaSyIM(g, 1+r.Intn(5), WeightProb)
		for _, sc := range ScoreOf(s) {
			if sc < 0 || math.IsNaN(sc) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestEaSyIMMonotoneInL(t *testing.T) {
	// Scores can only grow as l increases (every walk of length ≤ l is a
	// walk of length ≤ l+1).
	g := graph.ErdosRenyi(100, 700, rng.New(9))
	g.SetUniformProb(0.1)
	prev := ScoreOf(NewEaSyIM(g, 1, WeightProb))
	for l := 2; l <= 6; l++ {
		cur := ScoreOf(NewEaSyIM(g, l, WeightProb))
		for v := range cur {
			if cur[v]+1e-12 < prev[v] {
				t.Fatalf("l=%d: score of %d decreased %v -> %v", l, v, prev[v], cur[v])
			}
		}
		prev = cur
	}
}

func TestEaSyIMRejectsBadL(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewEaSyIM(graph.Path(3, 0.5, 0.5), 0, WeightProb)
}

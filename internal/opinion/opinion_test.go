package opinion

import (
	"math"
	"testing"

	"github.com/holisticim/holisticim/internal/graph"
	"github.com/holisticim/holisticim/internal/rng"
)

func TestAssignOpinionsUniform(t *testing.T) {
	g := graph.ErdosRenyi(2000, 4000, rng.New(1))
	AssignOpinions(g, Uniform, 7)
	var sum float64
	neg := 0
	for v := graph.NodeID(0); v < g.NumNodes(); v++ {
		o := g.Opinion(v)
		if o < -1 || o > 1 {
			t.Fatalf("opinion %v out of range", o)
		}
		sum += o
		if o < 0 {
			neg++
		}
	}
	mean := sum / float64(g.NumNodes())
	if math.Abs(mean) > 0.05 {
		t.Fatalf("uniform mean %v", mean)
	}
	frac := float64(neg) / float64(g.NumNodes())
	if math.Abs(frac-0.5) > 0.05 {
		t.Fatalf("negative fraction %v", frac)
	}
}

func TestAssignOpinionsNormalClamped(t *testing.T) {
	g := graph.ErdosRenyi(3000, 6000, rng.New(2))
	AssignOpinions(g, Normal, 9)
	extreme := 0
	for v := graph.NodeID(0); v < g.NumNodes(); v++ {
		o := g.Opinion(v)
		if o < -1 || o > 1 {
			t.Fatalf("opinion %v out of range", o)
		}
		if o == 1 || o == -1 {
			extreme++
		}
	}
	// N(0,1) mass beyond ±1 is ≈ 31.7%, so clamping should be visible.
	frac := float64(extreme) / float64(g.NumNodes())
	if frac < 0.2 || frac > 0.45 {
		t.Fatalf("clamped fraction %v, want ≈0.32", frac)
	}
}

func TestPolarizedAvoidsNeutral(t *testing.T) {
	r := rng.New(3)
	for i := 0; i < 1000; i++ {
		o := Sample(Polarized, r)
		if math.Abs(o) < 0.3 || math.Abs(o) > 1 {
			t.Fatalf("polarized sample %v outside ±[0.3,1]", o)
		}
	}
}

func TestAssignOpinionsDeterministic(t *testing.T) {
	g1 := graph.ErdosRenyi(100, 300, rng.New(4))
	g2 := g1.Clone()
	AssignOpinions(g1, Normal, 42)
	AssignOpinions(g2, Normal, 42)
	for v := graph.NodeID(0); v < g1.NumNodes(); v++ {
		if g1.Opinion(v) != g2.Opinion(v) {
			t.Fatalf("nondeterministic at node %d", v)
		}
	}
}

func TestAssignInteractions(t *testing.T) {
	g := graph.ErdosRenyi(200, 1000, rng.New(5))
	g.SetUniformProb(0.1)
	AssignInteractions(g, 11)
	var sum float64
	var count int
	for u := graph.NodeID(0); u < g.NumNodes(); u++ {
		phis := g.OutPhis(u)
		for i := range phis {
			if phis[i] < 0 || phis[i] >= 1 {
				t.Fatalf("phi %v out of [0,1)", phis[i])
			}
			if p := g.ProbAt(g.OutEdgeBase(u) + int64(i)); p != 0.1 {
				t.Fatalf("interaction assignment clobbered p: %v", p)
			}
			sum += phis[i]
			count++
		}
	}
	if mean := sum / float64(count); math.Abs(mean-0.5) > 0.05 {
		t.Fatalf("phi mean %v", mean)
	}
}

func TestHistoryEstimatorWeighting(t *testing.T) {
	h := HistoryEstimator{HalfLife: 4}
	// Single perfectly similar fresh record dominates.
	got := h.Estimate([]Record{{Similarity: 1, Age: 0, Opinion: 0.8}})
	if math.Abs(got-0.8) > 1e-12 {
		t.Fatalf("single record estimate %v", got)
	}
	// Recency: a fresh record outweighs an old opposite one.
	got = h.Estimate([]Record{
		{Similarity: 1, Age: 0, Opinion: 0.8},
		{Similarity: 1, Age: 12, Opinion: -0.8},
	})
	if got <= 0.4 {
		t.Fatalf("recency weighting too weak: %v", got)
	}
	// Similarity: zero-similarity records are ignored.
	got = h.Estimate([]Record{
		{Similarity: 0, Age: 0, Opinion: -1},
		{Similarity: 0.5, Age: 0, Opinion: 0.6},
	})
	if math.Abs(got-0.6) > 1e-12 {
		t.Fatalf("similarity filter failed: %v", got)
	}
}

func TestHistoryEstimatorEmptyNeutral(t *testing.T) {
	h := HistoryEstimator{}
	if got := h.Estimate(nil); got != 0 {
		t.Fatalf("empty history estimate %v want 0", got)
	}
	if got := h.Estimate([]Record{{Similarity: 0, Opinion: 1}}); got != 0 {
		t.Fatalf("unusable history estimate %v want 0", got)
	}
}

func TestAgreementInteraction(t *testing.T) {
	if got := AgreementInteraction(1, 5, 0.5); got != 0.2 {
		t.Fatalf("1/5 agreement = %v", got)
	}
	if got := AgreementInteraction(0, 0, 0.4); got != 0.4 {
		t.Fatalf("fallback = %v", got)
	}
	if got := AgreementInteraction(5, 5, 0); got != 1 {
		t.Fatalf("full agreement = %v", got)
	}
}

// ParseDistribution inverts String for every scheme and refuses anything
// else — including String's own "unknown" placeholder.
func TestParseDistributionInvertsString(t *testing.T) {
	for _, d := range []Distribution{Uniform, Normal, Polarized} {
		if got, err := ParseDistribution(d.String()); err != nil || got != d {
			t.Errorf("ParseDistribution(%q) = %v, %v", d.String(), got, err)
		}
	}
	for _, s := range []string{"", "Uniform", "unknown", Distribution(9).String()} {
		if _, err := ParseDistribution(s); err == nil {
			t.Errorf("ParseDistribution(%q) accepted", s)
		}
	}
}

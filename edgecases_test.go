package holisticim

import (
	"context"
	"slices"
	"testing"
	"testing/quick"
)

// Edge-case coverage through the public API: degenerate graphs must not
// panic and must return sane results for every algorithm.

func edgelessGraph(n int32) *Graph {
	return NewBuilder(n).Build()
}

func TestEdgelessGraphAllAlgorithms(t *testing.T) {
	g := edgelessGraph(10)
	algs := []Algorithm{
		AlgEaSyIM, AlgOSIM, AlgGreedy, AlgCELFPP,
		AlgTIMPlus, AlgIMM, AlgIRIE, AlgDegreeDiscount,
	}
	for _, alg := range algs {
		res, err := SelectSeeds(g, 3, alg, Options{MCRuns: 20, Seed: 1, TIMThetaCap: 1000})
		if err != nil {
			t.Fatalf("%s on edgeless graph: %v", alg, err)
		}
		if len(res.Seeds) == 0 {
			t.Fatalf("%s returned no seeds on edgeless graph", alg)
		}
		est := mustSpread(t, g, res.Seeds, Options{MCRuns: 20, Seed: 1})
		if est.Spread != 0 {
			t.Fatalf("%s: edgeless spread %v", alg, est.Spread)
		}
	}
}

func TestSingleNodeGraph(t *testing.T) {
	g := edgelessGraph(1)
	res, err := SelectSeeds(g, 1, AlgEaSyIM, Options{MCRuns: 10})
	if err != nil || len(res.Seeds) != 1 || res.Seeds[0] != 0 {
		t.Fatalf("single node: %v %v", res.Seeds, err)
	}
}

func TestKEqualsN(t *testing.T) {
	g := GenerateBA(50, 2, 1)
	g.SetUniformProb(0.2)
	for _, alg := range []Algorithm{AlgEaSyIM, AlgDegreeDiscount, AlgIRIE} {
		res, err := SelectSeeds(g, 50, alg, Options{MCRuns: 20, Seed: 1})
		if err != nil {
			t.Fatalf("%s k=n: %v", alg, err)
		}
		seen := map[NodeID]bool{}
		for _, s := range res.Seeds {
			if seen[s] {
				t.Fatalf("%s: duplicate seed with k=n", alg)
			}
			seen[s] = true
		}
	}
}

// On the 6-node chain with p=1 every RR set contains node 0, so coverage
// saturates at the first seed and the rest of the budget is chosen with
// nothing left to gain. Cold TIM+/IMM used to fill it with copies of node
// 0 while a batch or a sketch returned distinct nodes; all three are one
// greedy now and must agree.
func TestSaturatedChainRISSeedsDistinct(t *testing.T) {
	ctx := context.Background()
	b := NewBuilder(6)
	for u := NodeID(0); u < 5; u++ {
		b.AddEdgeFull(u, u+1, 1, 0.5, 1)
	}
	g := b.Build()
	for _, model := range []ModelKind{ModelIC, ModelLT} {
		opts := Options{Model: model, Epsilon: 0.3, Seed: 3}
		sk, err := BuildSketch(ctx, g, SketchOptions{Model: model, Epsilon: 0.3, Seed: 3, BuildK: 2})
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{4, 6} {
			served, err := sk.Select(ctx, k)
			if err != nil {
				t.Fatal(err)
			}
			batch, err := Run(ctx, g, Query{Algorithm: AlgIMM, Ks: []int{2, k}, Options: opts})
			if err != nil {
				t.Fatal(err)
			}
			for _, alg := range []Algorithm{AlgIMM, AlgTIMPlus} {
				cold, err := SelectSeeds(g, k, alg, opts)
				if err != nil {
					t.Fatal(err)
				}
				if cold.Algorithm == "RR-sketch" {
					t.Fatalf("%s/%s: expected a cold run", alg, model)
				}
				seen := map[NodeID]bool{}
				for _, s := range cold.Seeds {
					if s < 0 || s >= g.NumNodes() || seen[s] {
						t.Fatalf("%s/%s k=%d: seeds %v are not distinct nodes of the graph", alg, model, k, cold.Seeds)
					}
					seen[s] = true
				}
				if !slices.Equal(cold.Seeds, batch.Members[1].Result.Seeds) || !slices.Equal(cold.Seeds, served.Seeds) {
					t.Fatalf("%s/%s k=%d: cold %v, batch member %v, sketch-served %v", alg, model, k,
						cold.Seeds, batch.Members[1].Result.Seeds, served.Seeds)
				}
			}
		}
	}
}

// A bad seed id used to crash a MonteCarlo worker goroutine (index out of
// range, unrecoverable), be answered by an oc sketch with the phantom seed
// subtracted from σ(S), or — the empty set — be estimated by Run while the
// service refused it. The planner rejects all three before either backend
// sees them.
func TestEstimateRejectsBadSeedSets(t *testing.T) {
	ctx := context.Background()
	g := GenerateBA(100, 2, 3)
	g.SetUniformProb(0.1)
	g.SetDefaultLTWeights()
	AssignOpinions(g, OpinionUniform, 4)
	sk, err := BuildSketch(ctx, g, SketchOptions{Model: ModelOC, Epsilon: 0.3, Seed: 5, BuildK: 5})
	if err != nil {
		t.Fatal(err)
	}
	served := Options{Model: ModelOC, MCRuns: 20, Seed: 1, Sketch: sk}
	if !servesEstimate(t, g, served) {
		t.Fatal("the oc sketch does not serve its own graph")
	}
	for name, seeds := range map[string][]NodeID{
		"out of range": {5, 1000},
		"negative":     {5, -1},
		"empty":        {},
	} {
		if _, err := EstimateSpreadContext(ctx, g, seeds, Options{MCRuns: 20, Seed: 1}); err == nil {
			t.Errorf("%s: the MC-planned estimate answered", name)
		}
		if _, err := EstimateOpinionSpreadContext(ctx, g, seeds, served); err == nil {
			t.Errorf("%s: the sketch-planned estimate answered", name)
		}
		if _, err := PlanQuery(g, Query{SeedSets: [][]NodeID{{1, 2}, seeds}}); err == nil {
			t.Errorf("%s: a batch holding the set planned", name)
		}
	}
	if _, err := EstimateOpinionSpreadContext(ctx, g, []NodeID{5, 99}, served); err != nil {
		t.Errorf("valid seeds: %v", err)
	}
}

func TestNeutralOpinionsZeroSpread(t *testing.T) {
	g := GenerateBA(200, 3, 5)
	g.SetUniformProb(0.2)
	// All opinions left at the zero value: every final opinion is 0, so
	// opinion spread must be exactly 0 in every run.
	est := mustOpinionSpread(t, g, []NodeID{0, 1}, Options{MCRuns: 200, Seed: 3})
	if est.OpinionSpread != 0 || est.PositiveSpread != 0 || est.NegativeSpread != 0 {
		t.Fatalf("neutral graph produced opinion spread %v", est.OpinionSpread)
	}
	if est.Spread <= 0 {
		t.Fatal("activation spread should still be positive")
	}
}

func TestExtremeOpinions(t *testing.T) {
	// All-negative graph: effective spread with λ=1 must be ≤ 0.
	g := GenerateBA(200, 3, 7)
	g.SetUniformProb(0.2)
	for v := NodeID(0); v < g.NumNodes(); v++ {
		g.SetOpinion(v, -1)
	}
	g.SetUniformPhi(1) // full agreement: negativity propagates undiluted
	est := mustOpinionSpread(t, g, []NodeID{0, 1, 2}, Options{MCRuns: 300, Seed: 5})
	if est.EffectiveOpinionSpread(1) > 0 {
		t.Fatalf("all-negative graph yielded positive effective spread %v",
			est.EffectiveOpinionSpread(1))
	}
	if est.PositiveSpread != 0 {
		t.Fatalf("positive spread %v on all-negative graph", est.PositiveSpread)
	}
}

func TestFacadeDeterminismQuick(t *testing.T) {
	f := func(seed uint64) bool {
		g1 := GenerateBA(120, 2, seed)
		g1.SetUniformProb(0.15)
		AssignOpinions(g1, OpinionUniform, seed+1)
		AssignInteractions(g1, seed+2)
		g2 := GenerateBA(120, 2, seed)
		g2.SetUniformProb(0.15)
		AssignOpinions(g2, OpinionUniform, seed+1)
		AssignInteractions(g2, seed+2)
		a, err1 := SelectSeeds(g1, 4, AlgOSIM, Options{MCRuns: 30, Seed: seed + 3})
		b, err2 := SelectSeeds(g2, 4, AlgOSIM, Options{MCRuns: 30, Seed: seed + 3})
		if err1 != nil || err2 != nil || len(a.Seeds) != len(b.Seeds) {
			return false
		}
		for i := range a.Seeds {
			if a.Seeds[i] != b.Seeds[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestSeedsAreValidQuick(t *testing.T) {
	f := func(seed uint64) bool {
		g := GenerateRMAT(256, 1500, true, seed)
		g.SetUniformProb(0.1)
		res, err := SelectSeeds(g, 5, AlgEaSyIM, Options{MCRuns: 20, Seed: seed})
		if err != nil {
			return false
		}
		seen := map[NodeID]bool{}
		for _, s := range res.Seeds {
			if s < 0 || s >= g.NumNodes() || seen[s] {
				return false
			}
			seen[s] = true
		}
		return len(res.Seeds) == 5
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestEstimateMoreRunsLowersVariance(t *testing.T) {
	g := GenerateBA(300, 3, 9)
	g.SetUniformProb(0.1)
	seeds := []NodeID{0, 1, 2}
	small := mustSpread(t, g, seeds, Options{MCRuns: 50, Seed: 11})
	big := mustSpread(t, g, seeds, Options{MCRuns: 5000, Seed: 11})
	if small.Runs != 50 || big.Runs != 5000 {
		t.Fatalf("run counts %d/%d", small.Runs, big.Runs)
	}
	// Variances are sample estimates of the same per-run variance; the
	// two must be in the same ballpark (ratio < 5x), and both positive.
	if small.SpreadVariance <= 0 || big.SpreadVariance <= 0 {
		t.Fatal("variance should be positive on a stochastic graph")
	}
	ratio := small.SpreadVariance / big.SpreadVariance
	if ratio < 0.2 || ratio > 5 {
		t.Fatalf("variance estimates inconsistent: %v vs %v", small.SpreadVariance, big.SpreadVariance)
	}
}

package heuristics

import (
	"math"
	"testing"

	"github.com/holisticim/holisticim/internal/diffusion"
	"github.com/holisticim/holisticim/internal/graph"
	"github.com/holisticim/holisticim/internal/rng"
)

func TestDegreeDiscountAvoidsClusteredSeeds(t *testing.T) {
	// Clique of 4 (node 0..3) plus a separate star at 4: plain degree
	// would take two clique members; degree discount should take one
	// clique node then the star hub.
	b := graph.NewBuilder(9)
	for u := graph.NodeID(0); u < 4; u++ {
		for v := graph.NodeID(0); v < 4; v++ {
			if u != v {
				b.AddEdge(u, v)
			}
		}
	}
	for v := graph.NodeID(5); v <= 7; v++ {
		b.AddEdge(4, v)
	}
	g := b.Build()
	g.SetUniformProb(0.1)
	res := runSelect(NewDegreeDiscount(g, 0.1), 2)
	if res.Seeds[1] != 4 {
		t.Fatalf("degree discount picked %v, want the star hub second", res.Seeds)
	}
}

func TestIRIESelectsHub(t *testing.T) {
	g := graph.Star(20, 0.2, 0.5)
	res := runSelect(NewIRIE(g, 0, 0, 0), 1)
	if res.Seeds[0] != 0 {
		t.Fatalf("IRIE picked %v", res.Seeds)
	}
}

func TestIRIEDiscountsCoveredRegion(t *testing.T) {
	// Two stars, first bigger: after taking hub A, AP discount must push
	// IRIE to hub B rather than a leaf of star A.
	b := graph.NewBuilder(16)
	for v := graph.NodeID(1); v <= 9; v++ {
		b.AddEdgeP(0, v, 0.9, 0.5)
	}
	for v := graph.NodeID(11); v <= 15; v++ {
		b.AddEdgeP(10, v, 0.9, 0.5)
	}
	g := b.Build()
	res := runSelect(NewIRIE(g, 0, 0, 0), 2)
	if res.Seeds[0] != 0 || res.Seeds[1] != 10 {
		t.Fatalf("IRIE picked %v, want [0 10]", res.Seeds)
	}
}

func TestIRIEQualityVsDegreeOnRandomGraph(t *testing.T) {
	g := graph.ErdosRenyi(300, 2400, rng.New(3))
	g.SetWeightedCascadeProb()
	seedsIRIE := runSelect(NewIRIE(g, 0, 0, 0), 5).Seeds
	seedsDeg := graph.TopKByOutDegree(g, 5)
	m := diffusion.NewIC(g)
	ei := diffusion.MonteCarlo(m, seedsIRIE, diffusion.MCOptions{Runs: 4000, Seed: 7})
	ed := diffusion.MonteCarlo(m, seedsDeg, diffusion.MCOptions{Runs: 4000, Seed: 7})
	if ei.Spread < 0.85*ed.Spread {
		t.Fatalf("IRIE spread %v well below degree %v", ei.Spread, ed.Spread)
	}
}

func TestSimpathSpreadOnChain(t *testing.T) {
	// Chain with weights 1: σ(u0) enumerates the full path, = n.
	g := graph.Path(5, 0.5, 0.5) // LT weights = 1 (indeg 1)
	sp := NewSIMPATH(g, 1e-6, 0)
	got := sp.spread(0, nil, nil)
	if math.Abs(got-5) > 1e-9 {
		t.Fatalf("chain spread %v want 5", got)
	}
}

func TestSimpathSpreadMatchesExactLT(t *testing.T) {
	// On tiny DAGs with full enumeration (η→0) SIMPATH's path sum equals
	// the exact LT spread + 1 (it counts the root).
	for trial := 0; trial < 5; trial++ {
		r := rng.Split(11, uint64(trial))
		g := graph.RandomDAG(7, 0.4, 0.3, 0.5, r)
		g.SetDefaultLTWeights()
		sp := NewSIMPATH(g, 1e-12, 0)
		for v := graph.NodeID(0); v < g.NumNodes(); v++ {
			got := sp.spread(v, nil, nil) - 1
			want := diffusion.ExactLTSpread(g, []graph.NodeID{v})
			if math.Abs(got-want) > 1e-9 {
				t.Fatalf("trial %d node %d: simpath %v vs exact %v", trial, v, got, want)
			}
		}
	}
}

func TestSimpathThroughCounters(t *testing.T) {
	// Diamond 0->{1,2}->3 (weights 1/2 at 3; 1 at 1,2): through[1] equals
	// the mass of paths through node 1.
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(0, 2)
	b.AddEdge(1, 3)
	b.AddEdge(2, 3)
	g := b.Build()
	g.SetDefaultLTWeights() // w(0,1)=1, w(0,2)=1... indeg(1)=1 ⇒ 1; w(·,3)=1/2
	sp := NewSIMPATH(g, 1e-12, 0)
	through := make([]float64, 4)
	total := sp.spread(0, nil, through)
	// paths: 0-1 (1), 0-2 (1), 0-1-3 (.5), 0-2-3 (.5) ⇒ total = 1+1+1+.5+.5 = 4? no:
	// total = 1 (self) + 1 + 1 + 0.5 + 0.5 = 4.
	if math.Abs(total-4) > 1e-9 {
		t.Fatalf("total %v want 4", total)
	}
	// through node 1: paths 0-1 (1) and 0-1-3 (0.5) = 1.5
	if math.Abs(through[1]-1.5) > 1e-9 {
		t.Fatalf("through[1] = %v want 1.5", through[1])
	}
	// σ^{V−1}(0) = 4 − 1.5 = 2.5 (self + 0-2 + 0-2-3)
	if got := total - through[1]; math.Abs(got-2.5) > 1e-9 {
		t.Fatalf("pruned spread %v want 2.5", got)
	}
}

func TestSimpathSelectQuality(t *testing.T) {
	g := graph.ErdosRenyi(150, 900, rng.New(19))
	g.SetDefaultLTWeights()
	res := runSelect(NewSIMPATH(g, 1e-3, 4), 5)
	if len(res.Seeds) != 5 {
		t.Fatalf("seeds %v", res.Seeds)
	}
	m := diffusion.NewLT(g)
	est := diffusion.MonteCarlo(m, res.Seeds, diffusion.MCOptions{Runs: 4000, Seed: 3})
	deg := graph.TopKByOutDegree(g, 5)
	estDeg := diffusion.MonteCarlo(m, deg, diffusion.MCOptions{Runs: 4000, Seed: 3})
	if est.Spread < 0.85*estDeg.Spread {
		t.Fatalf("SIMPATH spread %v below degree %v", est.Spread, estDeg.Spread)
	}
	if res.Metrics["enumerations"] <= 0 {
		t.Fatal("missing enumeration metric")
	}
}

func TestSimpathEstimateSpreadLTSeedSet(t *testing.T) {
	// Two disjoint chains: σ({heads}) = total nodes.
	b := graph.NewBuilder(6)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(3, 4)
	b.AddEdge(4, 5)
	g := b.Build()
	g.SetDefaultLTWeights()
	sp := NewSIMPATH(g, 1e-12, 0)
	got := sp.EstimateSpreadLT([]graph.NodeID{0, 3})
	if math.Abs(got-6) > 1e-9 {
		t.Fatalf("seed-set spread %v want 6", got)
	}
}

func TestSimpathSeedsExcludeEachOther(t *testing.T) {
	// Chain 0→1→2→3: once 0 is a seed, 1's marginal gain shrinks because
	// σ^{V−S}(1) still counts 2,3 but σ(S) pricing removes overlap;
	// SIMPATH should pick the two chain heads of two components instead.
	b := graph.NewBuilder(8)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	b.AddEdge(4, 5)
	b.AddEdge(5, 6)
	b.AddEdge(6, 7)
	g := b.Build()
	g.SetDefaultLTWeights()
	res := runSelect(NewSIMPATH(g, 1e-12, 2), 2)
	s := sortSeeds(res.Seeds)
	if s[0] != 0 || s[1] != 4 {
		t.Fatalf("SIMPATH picked %v, want chain heads {0,4}", res.Seeds)
	}
}

func TestVertexCoverCoversAllEdges(t *testing.T) {
	g := graph.ErdosRenyi(120, 600, rng.New(23))
	sp := NewSIMPATH(g, 1e-3, 4)
	cover := sp.vertexCover()
	for u := graph.NodeID(0); u < g.NumNodes(); u++ {
		for _, v := range g.OutNeighbors(u) {
			if !cover[u] && !cover[v] {
				t.Fatalf("edge (%d,%d) uncovered", u, v)
			}
		}
	}
}

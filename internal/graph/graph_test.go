package graph

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/holisticim/holisticim/internal/rng"
)

func TestBuilderBasic(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdgeP(0, 1, 0.5, 0.3)
	b.AddEdgeP(0, 2, 0.25, 0.9)
	b.AddEdgeP(2, 3, 1.0, 0.0)
	g := b.Build()
	if g.NumNodes() != 4 {
		t.Fatalf("nodes = %d", g.NumNodes())
	}
	if g.NumEdges() != 3 {
		t.Fatalf("edges = %d", g.NumEdges())
	}
	if g.OutDegree(0) != 2 || g.OutDegree(1) != 0 || g.OutDegree(2) != 1 {
		t.Fatalf("out degrees wrong: %d %d %d", g.OutDegree(0), g.OutDegree(1), g.OutDegree(2))
	}
	if g.InDegree(3) != 1 || g.InDegree(1) != 1 || g.InDegree(0) != 0 {
		t.Fatalf("in degrees wrong")
	}
	if p, ok := g.EdgeProb(0, 2); !ok || p != 0.25 {
		t.Fatalf("EdgeProb(0,2) = %v, %v", p, ok)
	}
	if phi, ok := g.EdgePhi(0, 1); !ok || phi != 0.3 {
		t.Fatalf("EdgePhi(0,1) = %v, %v", phi, ok)
	}
	if g.HasEdge(1, 0) {
		t.Fatal("phantom edge (1,0)")
	}
}

func TestBuilderDedupAndSelfLoops(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdgeP(0, 1, 0.9, 0.1)
	b.AddEdgeP(0, 1, 0.2, 0.2) // duplicate — first wins
	b.AddEdge(1, 1)            // self loop — dropped
	g := b.Build()
	if g.NumEdges() != 1 {
		t.Fatalf("edges = %d, want 1", g.NumEdges())
	}
	if p, _ := g.EdgeProb(0, 1); p != 0.9 {
		t.Fatalf("dedupe kept wrong edge, p=%v", p)
	}
}

func TestBuilderOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewBuilder(2).AddEdge(0, 5)
}

func TestBuilderRejectsBadEdgeParams(t *testing.T) {
	cases := map[string]func(*Builder){
		"p-negative":   func(b *Builder) { b.AddEdgeFull(0, 1, -0.1, 0, 0) },
		"p-above-one":  func(b *Builder) { b.AddEdgeFull(0, 1, 1.5, 0, 0) },
		"p-nan":        func(b *Builder) { b.AddEdgeFull(0, 1, math.NaN(), 0, 0) },
		"phi-negative": func(b *Builder) { b.AddEdgeFull(0, 1, 0, -0.1, 0) },
		"phi-above":    func(b *Builder) { b.AddEdgeFull(0, 1, 0, 2, 0) },
		"phi-nan":      func(b *Builder) { b.AddEdgeFull(0, 1, 0, math.NaN(), 0) },
		"w-negative":   func(b *Builder) { b.AddEdgeFull(0, 1, 0, 0, -1) },
		"w-nan":        func(b *Builder) { b.AddEdgeFull(0, 1, 0, 0, math.NaN()) },
		"w-inf":        func(b *Builder) { b.AddEdgeFull(0, 1, 0, 0, math.Inf(1)) },
		"u-negative":   func(b *Builder) { b.AddEdgeFull(-1, 1, 0, 0, 0) },
		"v-range":      func(b *Builder) { b.AddEdgeFull(0, 2, 0, 0, 0) },
	}
	for name, add := range cases {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s accepted", name)
				}
			}()
			add(NewBuilder(2))
		})
	}
	// Boundary values pass; self-loops validate, then drop silently.
	b := NewBuilder(2)
	b.AddEdgeFull(0, 1, 1, 1, 0)
	b.AddEdgeFull(1, 0, 0, 0, 2.5)
	b.AddEdgeFull(1, 1, 0.5, 0.5, 0.5)
	if g := b.Build(); g.NumEdges() != 2 {
		t.Fatalf("edges = %d, want 2 (self-loop dropped)", g.NumEdges())
	}
}

func TestInOutConsistency(t *testing.T) {
	r := rng.New(1)
	g := ErdosRenyi(200, 1500, r)
	// Every out-edge must appear exactly once as an in-edge with matching
	// parameter index.
	var outSum, inSum int64
	for u := NodeID(0); u < g.NumNodes(); u++ {
		outSum += int64(g.OutDegree(u))
		inSum += int64(g.InDegree(u))
	}
	if outSum != g.NumEdges() || inSum != g.NumEdges() {
		t.Fatalf("degree sums %d/%d != m %d", outSum, inSum, g.NumEdges())
	}
	for v := NodeID(0); v < g.NumNodes(); v++ {
		froms := g.InNeighbors(v)
		idxs := g.InEdgeIndices(v)
		for i, u := range froms {
			e := idxs[i]
			if g.outTo[e] != v {
				t.Fatalf("in-edge index mismatch: edge %d points to %d not %d", e, g.outTo[e], v)
			}
			if !g.HasEdge(u, v) {
				t.Fatalf("in-edge (%d,%d) not found in out view", u, v)
			}
		}
	}
}

func TestTransposeInvolution(t *testing.T) {
	r := rng.New(2)
	g := ErdosRenyi(100, 500, r)
	g.SetUniformProb(0.1)
	g.SetUniformPhi(0.7)
	tt := g.Transpose().Transpose()
	if tt.NumNodes() != g.NumNodes() || tt.NumEdges() != g.NumEdges() {
		t.Fatalf("transpose^2 changed size")
	}
	for u := NodeID(0); u < g.NumNodes(); u++ {
		a, b := g.OutNeighbors(u), tt.OutNeighbors(u)
		if len(a) != len(b) {
			t.Fatalf("node %d degree changed", u)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("node %d adjacency changed", u)
			}
		}
	}
	if p, _ := tt.EdgeProb(g.OutNeighbors(0)[0], 0); false && p != 0.1 {
		t.Fatal("unused")
	}
}

func TestTransposeMovesParams(t *testing.T) {
	b := NewBuilder(2)
	b.AddEdgeP(0, 1, 0.42, 0.24)
	g := b.Build()
	tr := g.Transpose()
	if p, ok := tr.EdgeProb(1, 0); !ok || p != 0.42 {
		t.Fatalf("transpose lost p: %v %v", p, ok)
	}
	if phi, ok := tr.EdgePhi(1, 0); !ok || phi != 0.24 {
		t.Fatalf("transpose lost phi: %v %v", phi, ok)
	}
}

func TestWeightedCascadeAssignment(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 3)
	b.AddEdge(1, 3)
	b.AddEdge(2, 3)
	b.AddEdge(0, 1)
	g := b.Build()
	g.SetWeightedCascadeProb()
	if p, _ := g.EdgeProb(0, 3); math.Abs(p-1.0/3) > 1e-12 {
		t.Fatalf("WC p(0,3)=%v want 1/3", p)
	}
	if p, _ := g.EdgeProb(0, 1); p != 1.0 {
		t.Fatalf("WC p(0,1)=%v want 1", p)
	}
}

func TestLTWeightsSumToOne(t *testing.T) {
	r := rng.New(3)
	g := ErdosRenyi(150, 900, r)
	g.SetDefaultLTWeights()
	for v := NodeID(0); v < g.NumNodes(); v++ {
		if g.InDegree(v) == 0 {
			continue
		}
		sum := 0.0
		for _, e := range g.InEdgeIndices(v) {
			sum += g.WeightAt(int64(e))
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("LT weights of node %d sum to %v", v, sum)
		}
	}
}

func TestTrivalencyAssignment(t *testing.T) {
	g := ErdosRenyi(300, 3000, rng.New(41))
	g.SetTrivalencyProb(nil, 7)
	counts := map[float64]int{}
	for u := NodeID(0); u < g.NumNodes(); u++ {
		for _, p := range outProbs(g, u) {
			counts[p]++
		}
	}
	for _, want := range []float64{0.1, 0.01, 0.001} {
		frac := float64(counts[want]) / float64(g.NumEdges())
		if frac < 0.25 || frac > 0.42 {
			t.Fatalf("trivalency value %v frequency %v, want ≈1/3", want, frac)
		}
	}
	// Deterministic given the seed.
	g2 := ErdosRenyi(300, 3000, rng.New(41))
	g2.SetTrivalencyProb(nil, 7)
	for u := NodeID(0); u < g.NumNodes(); u++ {
		a, b := outProbs(g, u), outProbs(g2, u)
		for i := range a {
			if a[i] != b[i] {
				t.Fatal("trivalency not deterministic")
			}
		}
	}
}

func TestTrivalencyRejectsBadValues(t *testing.T) {
	g := Path(3, 0.5, 0.5)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	g.SetTrivalencyProb([]float64{1.5}, 1)
}

func TestOpinionValidation(t *testing.T) {
	g := Path(3, 0.5, 0.5)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for opinion out of range")
		}
	}()
	g.SetOpinion(0, 1.5)
}

func TestCloneIndependence(t *testing.T) {
	g := Path(5, 0.5, 0.5)
	c := g.Clone()
	c.SetUniformProb(0.9)
	c.SetOpinion(0, -1)
	if p, _ := g.EdgeProb(0, 1); p != 0.5 {
		t.Fatal("clone mutated original probs")
	}
	if g.Opinion(0) != 0 {
		t.Fatal("clone mutated original opinions")
	}
}

func TestInducedSubgraph(t *testing.T) {
	b := NewBuilder(5)
	b.AddEdgeP(0, 1, 0.1, 0.2)
	b.AddEdgeP(1, 2, 0.3, 0.4)
	b.AddEdgeP(2, 3, 0.5, 0.6)
	b.AddEdgeP(3, 4, 0.7, 0.8)
	g := b.Build()
	g.SetOpinion(1, 0.5)
	g.SetOpinion(2, -0.5)
	sub, remap := g.InducedSubgraph([]NodeID{1, 2, 3})
	if sub.NumNodes() != 3 || sub.NumEdges() != 2 {
		t.Fatalf("subgraph size %d/%d", sub.NumNodes(), sub.NumEdges())
	}
	if remap[0] != -1 || remap[4] != -1 {
		t.Fatal("excluded nodes should map to -1")
	}
	n1, n2 := remap[1], remap[2]
	if p, ok := sub.EdgeProb(n1, n2); !ok || p != 0.3 {
		t.Fatalf("subgraph edge prob %v %v", p, ok)
	}
	if sub.Opinion(n1) != 0.5 || sub.Opinion(n2) != -0.5 {
		t.Fatal("subgraph opinions not carried")
	}
}

func TestFromEdges(t *testing.T) {
	g := FromEdges(3, [][2]NodeID{{0, 1}, {1, 2}})
	if g.NumEdges() != 2 || !g.HasEdge(0, 1) || !g.HasEdge(1, 2) {
		t.Fatal("FromEdges wrong")
	}
}

func TestCSRInvariantsQuick(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.Split(seed, 0)
		n := int32(2 + r.Intn(60))
		m := int64(r.Intn(4 * int(n)))
		g := ErdosRenyi(n, m+1, r)
		// outStart monotone, covers all edges
		if g.outStart[0] != 0 || g.outStart[n] != g.NumEdges() {
			return false
		}
		for i := int32(0); i < n; i++ {
			if g.outStart[i] > g.outStart[i+1] {
				return false
			}
		}
		// neighbor lists sorted, no self loops, no duplicates
		for u := NodeID(0); u < n; u++ {
			nbrs := g.OutNeighbors(u)
			for i, v := range nbrs {
				if v == u {
					return false
				}
				if i > 0 && nbrs[i-1] >= v {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestMemoryFootprintPositive(t *testing.T) {
	g := Path(10, 0.1, 0.5)
	if g.MemoryFootprint() <= 0 {
		t.Fatal("footprint should be positive")
	}
	big := Path(1000, 0.1, 0.5)
	if big.MemoryFootprint() <= g.MemoryFootprint() {
		t.Fatal("bigger graph should have bigger footprint")
	}
}

func TestExampleFigure1Params(t *testing.T) {
	g := ExampleFigure1()
	if g.NumNodes() != 4 || g.NumEdges() != 4 {
		t.Fatalf("figure-1 graph size %d/%d", g.NumNodes(), g.NumEdges())
	}
	if p, _ := g.EdgeProb(2, 3); p != 0.9 { // C->D
		t.Fatalf("p(C,D)=%v", p)
	}
	if phi, _ := g.EdgePhi(0, 3); phi != 0.9 { // A->D
		t.Fatalf("phi(A,D)=%v", phi)
	}
	if g.Opinion(3) != -0.3 {
		t.Fatalf("o(D)=%v", g.Opinion(3))
	}
}

func TestMeanEdgeProb(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdgeP(0, 1, 0.2, 0)
	b.AddEdgeP(1, 2, 0.4, 0)
	g := b.Build()
	if got := MeanEdgeProb(g); math.Abs(got-0.3) > 1e-12 {
		t.Fatalf("MeanEdgeProb = %v, want 0.3", got)
	}
	if got := MeanEdgeProb(NewBuilder(2).Build()); got != 0 {
		t.Fatalf("edgeless MeanEdgeProb = %v, want 0", got)
	}
}

package graph

import (
	"math"
	"testing"

	"github.com/holisticim/holisticim/internal/rng"
)

func TestErdosRenyiShape(t *testing.T) {
	g := ErdosRenyi(500, 3000, rng.New(7))
	if g.NumNodes() != 500 {
		t.Fatalf("n=%d", g.NumNodes())
	}
	// duplicates collapse, so m <= 3000 but should be close
	if g.NumEdges() < 2800 || g.NumEdges() > 3000 {
		t.Fatalf("m=%d", g.NumEdges())
	}
}

func TestErdosRenyiDeterminism(t *testing.T) {
	a := ErdosRenyi(100, 400, rng.New(9))
	b := ErdosRenyi(100, 400, rng.New(9))
	if a.NumEdges() != b.NumEdges() {
		t.Fatal("nondeterministic edge count")
	}
	for u := NodeID(0); u < 100; u++ {
		an, bn := a.OutNeighbors(u), b.OutNeighbors(u)
		if len(an) != len(bn) {
			t.Fatalf("node %d degree differs", u)
		}
		for i := range an {
			if an[i] != bn[i] {
				t.Fatalf("node %d adjacency differs", u)
			}
		}
	}
}

func TestBarabasiAlbertDegreeSkew(t *testing.T) {
	g := BarabasiAlbert(2000, 3, rng.New(11))
	st := ComputeStats(g, 16, 1)
	// Each new node adds 3 undirected edges = 6 arcs ⇒ avg out-degree ≈ 6.
	if st.AvgOutDegree < 4.5 || st.AvgOutDegree > 7.5 {
		t.Fatalf("avg degree %v", st.AvgOutDegree)
	}
	// Preferential attachment must create hubs: max degree well above avg.
	if float64(st.MaxOutDegree) < 5*st.AvgOutDegree {
		t.Fatalf("no hubs: max %d avg %v", st.MaxOutDegree, st.AvgOutDegree)
	}
	// Undirected expansion means out-degree == in-degree per node.
	for v := NodeID(0); v < g.NumNodes(); v++ {
		if g.OutDegree(v) != g.InDegree(v) {
			t.Fatalf("node %d asymmetric in undirected graph", v)
		}
	}
}

func TestBarabasiAlbertDeterminism(t *testing.T) {
	a := BarabasiAlbert(500, 3, rng.New(77))
	b := BarabasiAlbert(500, 3, rng.New(77))
	if a.NumEdges() != b.NumEdges() {
		t.Fatal("edge counts differ")
	}
	for u := NodeID(0); u < a.NumNodes(); u++ {
		an, bn := a.OutNeighbors(u), b.OutNeighbors(u)
		if len(an) != len(bn) {
			t.Fatalf("node %d degree differs", u)
		}
		for i := range an {
			if an[i] != bn[i] {
				t.Fatalf("node %d adjacency differs", u)
			}
		}
	}
}

func TestRMATShapeAndSkew(t *testing.T) {
	g := RMAT(1<<12, 40000, DefaultRMAT, false, rng.New(13))
	if g.NumNodes() != 1<<12 {
		t.Fatalf("n=%d", g.NumNodes())
	}
	if g.NumEdges() < 30000 {
		t.Fatalf("m=%d too small after dedupe", g.NumEdges())
	}
	st := ComputeStats(g, 8, 3)
	if float64(st.MaxOutDegree) < 4*st.AvgOutDegree {
		t.Fatalf("R-MAT not skewed: max %d avg %v", st.MaxOutDegree, st.AvgOutDegree)
	}
}

func TestRMATUndirectedSymmetry(t *testing.T) {
	g := RMAT(256, 2000, DefaultRMAT, true, rng.New(17))
	for u := NodeID(0); u < g.NumNodes(); u++ {
		for _, v := range g.OutNeighbors(u) {
			if !g.HasEdge(v, u) {
				t.Fatalf("missing reverse arc (%d,%d)", v, u)
			}
		}
	}
}

func TestPathStructure(t *testing.T) {
	g := Path(5, 0.3, 0.6)
	if g.NumEdges() != 4 {
		t.Fatalf("m=%d", g.NumEdges())
	}
	d := BFSDistances(g, 0)
	for i := int32(0); i < 5; i++ {
		if d[i] != i {
			t.Fatalf("dist[%d]=%d", i, d[i])
		}
	}
}

func TestRandomTreeIsTree(t *testing.T) {
	g := RandomTree(200, 0.1, 0.5, rng.New(19))
	if g.NumEdges() != 199 {
		t.Fatalf("tree should have n-1 edges, got %d", g.NumEdges())
	}
	if !IsDAG(g) {
		t.Fatal("tree is not a DAG?!")
	}
	d := BFSDistances(g, 0)
	for i, dist := range d {
		if dist == -1 {
			t.Fatalf("node %d unreachable from root", i)
		}
	}
	for v := NodeID(1); v < g.NumNodes(); v++ {
		if g.InDegree(v) != 1 {
			t.Fatalf("node %d has in-degree %d", v, g.InDegree(v))
		}
	}
}

func TestRandomDAGIsDAG(t *testing.T) {
	g := RandomDAG(80, 0.15, 0.1, 0.5, rng.New(23))
	if !IsDAG(g) {
		t.Fatal("RandomDAG produced a cycle")
	}
	g2 := Cycle(5, 0.1, 0.5)
	if IsDAG(g2) {
		t.Fatal("cycle misclassified as DAG")
	}
}

func TestLayeredBipartiteConstruction(t *testing.T) {
	g := LayeredBipartite(4)
	if g.NumNodes() != 12 || g.NumEdges() != 8 {
		t.Fatalf("size %d/%d", g.NumNodes(), g.NumEdges())
	}
	// last source's edges have phi=0
	if phi, _ := g.EdgePhi(3, 4+6); phi != 0 {
		t.Fatalf("phi of last source = %v", phi)
	}
	if phi, _ := g.EdgePhi(0, 4); phi != 1 {
		t.Fatalf("phi of first source = %v", phi)
	}
	if g.Opinion(0) != 1 || g.Opinion(5) != 0 {
		t.Fatal("opinions wrong")
	}
}

func TestSetCoverReductionShape(t *testing.T) {
	g, seeds := SetCoverReduction(3, [][]int{{0, 1}, {1, 2}})
	// layers: 2 subsets + 3 elements + (2+3-2)=3 z nodes + sink = 9
	if g.NumNodes() != 9 {
		t.Fatalf("n=%d", g.NumNodes())
	}
	if len(seeds) != 2 {
		t.Fatalf("seeds %v", seeds)
	}
	if math.Abs(g.Opinion(2)-1.0/3) > 1e-12 { // first element node
		t.Fatalf("element opinion %v", g.Opinion(2))
	}
	if math.Abs(g.Opinion(8)-(-1+1.0/3)) > 1e-12 { // sink
		t.Fatalf("sink opinion %v", g.Opinion(8))
	}
}

func TestStatsOnKnownGraph(t *testing.T) {
	g := Path(10, 0.1, 0.5)
	st := ComputeStats(g, 10, 5)
	if st.Nodes != 10 || st.Arcs != 9 {
		t.Fatalf("stats %+v", st)
	}
	if st.AvgOutDegree != 0.9 {
		t.Fatalf("avg degree %v", st.AvgOutDegree)
	}
}

func TestTopKByOutDegree(t *testing.T) {
	g := Star(6, 0.1, 0.5)
	top := TopKByOutDegree(g, 2)
	if top[0] != 0 {
		t.Fatalf("hub should rank first, got %v", top)
	}
}

func TestDegreeHistogram(t *testing.T) {
	g := Star(5, 0.1, 0.5) // node 0 has degree 4, others 0
	h := DegreeHistogram(g, 10)
	if h[0] != 4 || h[4] != 1 {
		t.Fatalf("hist %v", h)
	}
}

// Build sorts arcs stably by (tail, head) and keeps the first of parallel
// arcs, an order with one answer, so no change to how it sorts may move a
// generated graph: fingerprints pinned from the commit before Build moved
// from sort.SliceStable to slices.SortStableFunc (and the columns to their
// per-head form, which the fingerprint does not see).
func TestGeneratedFingerprintsPinned(t *testing.T) {
	wc := BarabasiAlbert(3000, 3, rng.New(21))
	wc.SetWeightedCascadeProb()
	sc, _ := SetCoverReduction(4, [][]int{{0, 1}, {1, 2, 3}, {0, 3}})
	for _, c := range []struct {
		name string
		g    *Graph
		want uint64
	}{
		{"ErdosRenyi", ErdosRenyi(500, 3000, rng.New(7)), 0x9d2817052badc353},
		{"BarabasiAlbert", BarabasiAlbert(2000, 3, rng.New(11)), 0xc7c4c4a567e88abc},
		{"BarabasiAlbert/wc", wc, 0x6b0269359857b89c},
		{"RMAT", RMAT(1<<12, 30000, DefaultRMAT, false, rng.New(5)), 0x423275ad9ff003b7},
		{"RMAT/undirected", RMAT(1<<10, 8000, DefaultRMAT, true, rng.New(6)), 0x31a911ea1c7adc63},
		{"RandomTree", RandomTree(300, 0.2, 0.6, rng.New(8)), 0x9830e3a44cde3ba9},
		{"RandomDAG", RandomDAG(80, 0.1, 0.3, 0.4, rng.New(9)), 0x2be979c63d4b59ca},
		{"Complete", Complete(12, 0.25, 0.5), 0xd48aab05dbc075b5},
		{"SetCoverReduction", sc, 0x534c69ad40af4fd1},
		{"ExampleFigure1", ExampleFigure1(), 0x9a0dad31cfb7e1ee},
	} {
		if got := c.g.Fingerprint(); got != c.want {
			t.Errorf("%s: fingerprint %016x, pinned %016x", c.name, got, c.want)
		}
	}
}

package ris

import (
	"context"
	"math"
	"slices"
	"testing"

	"github.com/holisticim/holisticim/internal/graph"
	"github.com/holisticim/holisticim/internal/live"
	"github.com/holisticim/holisticim/internal/rng"
)

// referenceSample is the sampler as it was before it walked the in-CSR
// whole and knew about uniform rows: every parameter looked up per arc
// through the graph's accessors, visited marks in a map. SampleInto must
// produce this, set for set, whatever mix of row kinds the graph holds.
func referenceSample(g *graph.Graph, kind ModelKind, seed, setIndex uint64) []graph.NodeID {
	r := rng.New(rng.SplitSeed(seed, setIndex))
	root := graph.NodeID(r.Int31n(g.NumNodes()))
	seen := map[graph.NodeID]bool{root: true}
	set := []graph.NodeID{root}
	if kind == ModelIC {
		for head := 0; head < len(set); head++ {
			x := set[head]
			idxs := g.InEdgeIndices(x)
			for j, u := range g.InNeighbors(x) {
				if seen[u] {
					continue
				}
				if r.Float64() < g.ProbAt(idxs[j]) {
					seen[u] = true
					set = append(set, u)
				}
			}
		}
		return set
	}
	for x := root; ; {
		idxs, froms := g.InEdgeIndices(x), g.InNeighbors(x)
		if len(idxs) == 0 {
			return set
		}
		draw, acc := r.Float64(), 0.0
		chosen := graph.NodeID(-1)
		for j, e := range idxs {
			acc += g.WeightAt(e)
			if draw < acc {
				chosen = froms[j]
				break
			}
		}
		if chosen < 0 || seen[chosen] {
			return set
		}
		seen[chosen] = true
		set = append(set, chosen)
		x = chosen
	}
}

// rowKindGraphs returns seeded graphs that between them hold every kind of
// in-row the sampler distinguishes: all uniform (weighted cascade, one p),
// mostly mixed (trivalency), a weighted-cascade graph after a live batch,
// and a hand-made one with rows of p = 0, p = 1, NaN and no arcs at all.
func rowKindGraphs(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	base := func(seed uint64) *graph.Graph {
		g := graph.BarabasiAlbert(600, 3, rng.New(seed))
		g.SetDefaultLTWeights()
		return g
	}
	wc := base(1)
	wc.SetWeightedCascadeProb()
	uniform := base(2)
	uniform.SetUniformProb(0.15)
	tri := base(3)
	tri.SetTrivalencyProb([]float64{0.3, 0.1, 0.01}, 7)

	// Extremes: node v's in-arcs all carry 0 (v%5 == 0), all 1 (== 1), NaN
	// (== 2), or a mix of 0.05 and 0.4 (the rest). Isolated nodes 590..599
	// keep their (empty) rows: 0 arcs in, 0 out.
	b := graph.NewBuilder(600)
	r := rng.New(4)
	for i := 0; i < 3000; i++ {
		u, v := r.Int31n(590), r.Int31n(590)
		b.AddEdgeFull(u, v, 0, 0, r.Float64()/8)
	}
	extremes := b.Build()
	extremes.SetEdgeParamsFunc(func(u, v graph.NodeID) (float64, float64) {
		switch v % 5 {
		case 0:
			return 0, 0
		case 1:
			return 1, 0
		case 2:
			return math.NaN(), 0
		}
		return []float64{0.05, 0.4}[u%2], 0
	})

	return map[string]*graph.Graph{
		"weighted-cascade": wc,
		"uniform":          uniform,
		"trivalency":       tri,
		"after-live-batch": churned(t, base(5)),
		"extremes":         extremes,
	}
}

// churned returns a weighted-cascade graph after one live batch of adds,
// removals and reweights, each into a head of its own with at least two
// in-arcs — having first checked what the batch did to the graph's
// uniform-row set, which Apply's graph inherits rather than derives: a
// row that gained or had reweighted an arc at p = 0.9 beside its 1/indeg
// ones lost its bit, a row that lost an arc kept it (the rest still agree),
// and so did every row no op names.
func churned(t *testing.T, g *graph.Graph) *graph.Graph {
	t.Helper()
	g.SetWeightedCascadeProb()
	before := Bitset(slices.Clone(g.UniformProbRows()))
	r := rng.New(6)
	var ops []live.EdgeOp
	mixed := map[graph.NodeID]bool{} // head -> the op leaves its row mixed
	for len(ops) < 30 {
		u, v := r.Int31n(g.NumNodes()), r.Int31n(g.NumNodes())
		if _, named := mixed[v]; u == v || named || g.InDegree(v) < 2 || g.HasEdge(u, v) {
			continue
		}
		p, w := 0.9, 0.05
		switch len(ops) % 3 {
		case 0:
			ops = append(ops, live.EdgeOp{Op: live.OpAdd, From: u, To: v, P: &p, W: &w})
		case 1:
			ops = append(ops, live.EdgeOp{Op: live.OpRemove, From: g.InNeighbors(v)[0], To: v})
		default:
			ops = append(ops, live.EdgeOp{Op: live.OpReweight, From: g.InNeighbors(v)[0], To: v, P: &p, W: &w})
		}
		mixed[v] = len(ops)%3 != 2
	}
	lv := live.Wrap(g, live.Options{})
	if _, err := lv.Apply(context.Background(), ops, live.ApplyOptions{}); err != nil {
		t.Fatal(err)
	}
	after := Bitset(lv.Graph().UniformProbRows())
	for v := graph.NodeID(0); v < g.NumNodes(); v++ {
		if want := before.Has(v) && !mixed[v]; after.Has(v) != want {
			t.Fatalf("node %d (named by an op: %v): uniform bit %v after the batch, want %v", v, mixed[v], after.Has(v), want)
		}
	}
	return lv.Graph()
}

func TestSamplerMatchesPerArcReference(t *testing.T) {
	const seed, sets = 77, 1500
	for name, g := range rowKindGraphs(t) {
		// How many rows of each kind this graph really holds.
		probRows, uniP := Bitset(g.UniformProbRows()), 0
		for v := graph.NodeID(0); v < g.NumNodes(); v++ {
			if probRows.Has(v) {
				uniP++
			}
		}
		t.Logf("%s: %d/%d rows uniform in p", name, uniP, g.NumNodes())
		for _, kind := range []ModelKind{ModelIC, ModelLT, ModelOC} {
			want := make([][]graph.NodeID, sets)
			for i := range want {
				want[i] = referenceSample(g, kind, seed, uint64(i))
			}
			for _, workers := range []int{1, 2} {
				col := NewCollection(g, kind)
				if err := col.generate(context.Background(), sets, seed, workers); err != nil {
					t.Fatal(err)
				}
				for i := range want {
					if !slices.Equal(col.Set(i), want[i]) {
						t.Fatalf("%s/%v/workers=%d: set %d = %v, per-arc reference %v", name, kind, workers, i, col.Set(i), want[i])
					}
				}
			}
		}
	}
}

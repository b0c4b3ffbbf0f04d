package graph

import (
	"bytes"
	"math"
	"slices"
	"sort"
	"testing"

	"github.com/holisticim/holisticim/internal/rng"
)

// probs and weights are the p and LT-weight columns per arc, in out-array
// order, whatever form the graph holds them in.
func probs(g *Graph) []float64   { return arcValues(g, g.ProbAt) }
func weights(g *Graph) []float64 { return arcValues(g, g.WeightAt) }

func arcValues(g *Graph, at func(int64) float64) []float64 {
	out := make([]float64, g.NumEdges())
	for i := range out {
		out[i] = at(int64(i))
	}
	return out
}

// outProbs and outWeights are u's out-row of p and of the LT weight.
func outProbs(g *Graph, u NodeID) []float64 {
	return probs(g)[g.outStart[u]:g.outStart[u+1]]
}

func outWeights(g *Graph, u NodeID) []float64 {
	return weights(g)[g.outStart[u]:g.outStart[u+1]]
}

// perHeadOf is the definition of the per-head form, written the slow way:
// when every non-empty in-row of g holds one value of arc bit for bit, the
// column of those values (0 for a row with no arcs), and nil otherwise.
func perHeadOf(g *Graph, arc []float64) []float64 {
	head := make([]float64, g.NumNodes())
	for v := NodeID(0); v < g.NumNodes(); v++ {
		idxs := g.InEdgeIndices(v)
		for _, a := range idxs {
			for _, b := range idxs {
				if math.Float64bits(arc[a]) != math.Float64bits(arc[b]) {
					return nil
				}
			}
		}
		if len(idxs) > 0 {
			head[v] = arc[idxs[0]]
		}
	}
	return head
}

// sameBits compares two columns bit for bit: slices.Equal would call two
// NaNs different and +0 and −0 the same.
func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// checkColumns fails unless each of g's two columns is in its canonical
// form for the values it gives its arcs.
func checkColumns(t *testing.T, step string, g *Graph) {
	t.Helper()
	for _, c := range []struct {
		name  string
		col   column
		arc   []float64
		check func(float64) bool
	}{
		{"p", g.prob, probs(g), ValidProb},
		{"LT weight", g.wt, weights(g), ValidWeight},
	} {
		want := perHeadOf(g, c.arc)
		switch {
		case want != nil && (!c.col.perHead || !sameBits(c.col.v, want)):
			t.Fatalf("%s: %s column per head %v (%d entries), want per head %v", step, c.name, c.col.perHead, len(c.col.v), want)
		case want == nil && (c.col.perHead || len(c.col.v) != len(g.outTo)):
			t.Fatalf("%s: %s column per head %v (%d entries), want per arc (%d)", step, c.name, c.col.perHead, len(c.col.v), len(g.outTo))
		}
		for i, x := range c.arc {
			if !c.check(x) {
				t.Fatalf("%s: %s %v at arc %d", step, c.name, x, i)
			}
		}
	}
}

// The form each parameterization leaves, and what a per-head entry holds.
func TestColumnForms(t *testing.T) {
	g := BarabasiAlbert(400, 3, rng.New(9))
	g.SetWeightedCascadeProb()
	checkColumns(t, "weighted cascade", g)
	col, perHead := g.ProbColumn()
	if !perHead {
		t.Fatal("weighted cascade: p held per arc")
	}
	for v, p := range col {
		if d := g.InDegree(NodeID(v)); d > 0 && p != 1/float64(d) {
			t.Fatalf("weighted cascade: node %d holds %v, want 1/%d", v, p, d)
		}
	}
	if _, perHead := g.WeightColumn(); !perHead {
		t.Fatal("default LT weights held per arc")
	}
	g.SetUniformProb(0.1)
	checkColumns(t, "uniform p", g)
	g.SetTrivalencyProb(nil, 5)
	checkColumns(t, "trivalency", g)
	if _, perHead := g.ProbColumn(); perHead {
		t.Fatal("trivalency: p held per head")
	}

	// A row of +0 and −0 holds two values; a row of 0 and 0.5 too; rows of
	// one value each, whatever the value, and an empty row (node 0) are
	// per head, the empty one at 0.
	negZero := math.Copysign(0, -1)
	b := NewBuilder(6)
	b.AddEdgeFull(0, 1, 0, 0, 0)
	b.AddEdgeFull(2, 1, negZero, 0, 0)
	small := b.Build()
	checkColumns(t, "±0", small)
	if _, perHead := small.ProbColumn(); perHead {
		t.Fatal("a row of +0 and −0 held per head")
	}
	b = NewBuilder(6)
	b.AddEdgeFull(2, 3, negZero, 0, 0.5)
	b.AddEdgeFull(0, 3, negZero, 0, 0.5)
	b.AddEdgeFull(0, 4, 0.25, 0, 1)
	b.AddEdgeFull(2, 4, 0.25, 0, 1)
	b.AddEdgeFull(0, 5, 1, 0, 2)
	b.AddEdgeFull(3, 2, 0.5, 0, 3)
	small = b.Build()
	checkColumns(t, "one value a row", small)
	if col, _ := small.ProbColumn(); !sameBits(col, []float64{0, 0, 0.5, negZero, 0.25, 1}) {
		t.Fatalf("p column %v", col)
	}
	if col, _ := small.WeightColumn(); !sameBits(col, []float64{0, 0, 3, 0.5, 1, 2}) {
		t.Fatalf("LT weight column %v", col)
	}
	b.AddEdgeFull(1, 4, 0.5, 0, 1)
	checkColumns(t, "one row of two values", b.Build())
}

// Every writer of a column leaves it canonical: each Set* mutator, Clone,
// Transpose, InducedSubgraph and a binary round trip.
func TestSettersKeepColumnsCanonical(t *testing.T) {
	g := BarabasiAlbert(300, 2, rng.New(4))
	checkColumns(t, "built", g)
	ops := make([]float64, g.NumNodes())
	mutators := []struct {
		name string
		do   func()
	}{
		{"SetUniformProb", func() { g.SetUniformProb(0.2) }},
		{"SetTrivalencyProb", func() { g.SetTrivalencyProb(nil, 3) }},
		{"SetWeightedCascadeProb", g.SetWeightedCascadeProb},
		{"SetEdgeParamsFunc/mixed", func() {
			g.SetEdgeParamsFunc(func(u, v NodeID) (float64, float64) { return float64(u%3) / 4, float64(v%10) / 10 })
		}},
		{"SetEdgeParamsFunc/by head", func() {
			g.SetEdgeParamsFunc(func(u, v NodeID) (float64, float64) { return float64(v%5) / 4, float64(u%10) / 10 })
		}},
		{"SetDefaultLTWeights", g.SetDefaultLTWeights},
		{"SetUniformPhi", func() { g.SetUniformPhi(0.7) }},
		{"SetOpinions", func() { g.SetOpinions(ops) }},
		{"SetOpinion", func() { g.SetOpinion(5, -0.25) }},
		{"SetTrivalencyProb/one value", func() { g.SetTrivalencyProb([]float64{0.3}, 3) }},
	}
	for _, m := range mutators {
		m.do()
		checkColumns(t, m.name, g)
	}
	if _, perHead := g.ProbColumn(); !perHead {
		t.Fatal("a one-value trivalency left p per arc")
	}
	checkColumns(t, "Clone", g.Clone())
	checkColumns(t, "Transpose", g.Transpose())
	sub, _ := g.InducedSubgraph([]NodeID{0, 1, 2, 3, 5, 8, 13, 21})
	checkColumns(t, "InducedSubgraph", sub)
	g.SetTrivalencyProb(nil, 8)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	back, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	checkColumns(t, "ReadBinary", back)
}

// randomEdits is a sorted batch of ten arc edits on g: removals, sets of
// the weighted-cascade value of the new graph (which keep or break a row)
// and sets of values from a small grid.
func randomEdits(g *Graph, r *rng.RNG) []ArcEdit {
	var edits []ArcEdit
	named := map[[2]NodeID]bool{}
	for len(edits) < 10 {
		u, v := NodeID(r.Intn(int(g.NumNodes()))), NodeID(r.Intn(int(g.NumNodes())))
		if u == v || named[[2]NodeID{u, v}] {
			continue
		}
		named[[2]NodeID{u, v}] = true
		e := ArcEdit{From: u, To: v}
		switch kind := r.Intn(4); {
		case kind == 0 && g.OutDegree(u) > 0: // remove one of u's arcs instead
			e.To = g.OutNeighbors(u)[r.Intn(int(g.OutDegree(u)))]
			if named[[2]NodeID{u, e.To}] && e.To != v {
				continue
			}
			named[[2]NodeID{u, e.To}] = true
			e.Remove = true
		case kind == 1: // the value weighted cascade would give it, or not
			p := 1 / float64(g.InDegree(v)+1)
			e.P, e.W = &p, &p
		default:
			p, w := float64(r.Intn(5))/4, float64(r.Intn(3))/2
			e.P, e.W = &p, &w
		}
		edits = append(edits, e)
	}
	sort.Slice(edits, func(i, j int) bool {
		return edits[i].From < edits[j].From || edits[i].From == edits[j].From && edits[i].To < edits[j].To
	})
	return edits
}

// WithArcEdits leaves both columns canonical and the parent untouched, over
// 100 seeded batches chained onto one another — from per-head columns into
// per-arc ones and, once a rebalance or a batch of removals mends every
// broken row, back — and a batch of removals alone keeps a per-head column
// per head. Each batch must give every arc the value it gets when the
// same batch is applied to the parent held per arc.
func TestWithArcEditsKeepsColumnsCanonical(t *testing.T) {
	r := rng.New(12)
	g := BarabasiAlbert(250, 3, r)
	g.SetWeightedCascadeProb()
	g.SetDefaultLTWeights()
	var removals []ArcEdit
	for u := NodeID(0); u < 40; u += 3 {
		removals = append(removals, ArcEdit{From: u, To: g.OutNeighbors(u)[0], Remove: true})
	}
	ng := g.WithArcEdits(removals, nil)
	checkColumns(t, "removals", ng)
	if _, perHead := ng.ProbColumn(); !perHead {
		t.Fatal("removals alone broke a row")
	}
	// A row emptied holds 0; a row whose every arc an edit sets holds the
	// new value.
	star := Star(5, 0.5, 0.5)
	p, q := 0.25, 0.75
	ng = star.WithArcEdits([]ArcEdit{{From: 0, To: 1, Remove: true}, {From: 0, To: 2, P: &p}, {From: 2, To: 1, P: &q}}, nil)
	checkColumns(t, "star", ng)
	if col, perHead := ng.ProbColumn(); !perHead || !sameBits(col, []float64{0, 0.75, 0.25, 0.5, 0.5}) {
		t.Fatalf("star: p column %v (per head %v)", col, perHead)
	}
	if col, perHead := ng.WeightColumn(); !perHead || !sameBits(col, []float64{0, 0, 1, 1, 1}) {
		t.Fatalf("star: LT weight column %v (per head %v)", col, perHead)
	}

	forms := map[[2]bool]int{}
	for batch := 0; batch < 100; batch++ {
		parentP, parentW := probs(g), weights(g)
		pCol, _ := g.ProbColumn()
		pCol = slices.Clone(pCol)
		edits := randomEdits(g, r)
		var rebalance []NodeID
		if batch%3 == 0 {
			for _, e := range edits[:5] {
				rebalance = append(rebalance, e.To)
			}
		}
		if batch%10 == 9 { // every row's weight back to the default
			for v := NodeID(0); v < g.NumNodes(); v++ {
				rebalance = append(rebalance, v)
			}
		}
		ng := g.WithArcEdits(edits, rebalance)
		checkColumns(t, "batch", ng)
		want := g.PerArcClone().WithArcEdits(edits, rebalance)
		if !sameBits(probs(ng), probs(want)) || !sameBits(weights(ng), weights(want)) {
			t.Fatalf("batch %d: the arcs' values differ from the per-arc path's", batch)
		}
		_, pHead := ng.ProbColumn()
		_, wHead := ng.WeightColumn()
		forms[[2]bool{pHead, wHead}]++
		if col, _ := g.ProbColumn(); !sameBits(probs(g), parentP) || !sameBits(weights(g), parentW) || !sameBits(col, pCol) {
			t.Fatalf("batch %d: the parent's columns moved", batch)
		}
		g = ng
	}
	if forms[[2]bool{false, true}] == 0 || forms[[2]bool{false, false}] == 0 {
		t.Fatalf("the batches never left p per arc beside a per-head and a per-arc weight column: %v", forms)
	}
}

// Every parameter setter refuses NaN as the Builder and ReadBinary do, so
// whatever a setter accepts, the graph's own file carries back: the graph
// after each setter round-trips through WriteBinary/ReadBinary.
func TestSettersRefuseNaN(t *testing.T) {
	nan := math.NaN()
	setters := []struct {
		name string
		set  func(g *Graph, x float64)
	}{
		{"SetUniformProb", func(g *Graph, x float64) { g.SetUniformProb(x) }},
		{"SetUniformPhi", func(g *Graph, x float64) { g.SetUniformPhi(x) }},
		{"SetTrivalencyProb", func(g *Graph, x float64) { g.SetTrivalencyProb([]float64{0.1, x}, 1) }},
		{"SetEdgeParamsFunc/p", func(g *Graph, x float64) {
			g.SetEdgeParamsFunc(func(u, v NodeID) (float64, float64) { return x, 0.5 })
		}},
		{"SetEdgeParamsFunc/phi", func(g *Graph, x float64) {
			g.SetEdgeParamsFunc(func(u, v NodeID) (float64, float64) { return 0.5, x })
		}},
	}
	for _, s := range setters {
		for _, x := range []float64{nan, 0, math.Copysign(0, -1), 0.25, 1} {
			g := BarabasiAlbert(50, 2, rng.New(3))
			accepted := func() (ok bool) {
				defer func() { ok = recover() == nil }()
				s.set(g, x)
				return
			}()
			if accepted == math.IsNaN(x) {
				t.Errorf("%s(%v): accepted %v", s.name, x, accepted)
			}
			if !accepted {
				continue
			}
			var buf bytes.Buffer
			if err := WriteBinary(&buf, g); err != nil {
				t.Fatalf("%s(%v): WriteBinary: %v", s.name, x, err)
			}
			back, err := ReadBinary(&buf)
			if err != nil {
				t.Fatalf("%s(%v): the graph's own file does not read back: %v", s.name, x, err)
			}
			if !sameBits(probs(back), probs(g)) || !sameBits(back.Phis(), g.Phis()) {
				t.Fatalf("%s(%v): parameters changed on the round trip", s.name, x)
			}
		}
	}
}

// A weighted-cascade graph with the default LT weights holds 20 bytes an
// arc and 40 a node: the target, ϕ, the in-source and the 32-bit in-edge
// index per arc; two offsets, the opinion and the per-head p and w per node.
func TestMemoryFootprintPerHead(t *testing.T) {
	g := RMAT(1<<14, 120000, DefaultRMAT, false, rng.New(3))
	g.SetWeightedCascadeProb()
	n, m := int64(g.NumNodes()), g.NumEdges()
	if got, most := g.MemoryFootprint(), 20*m+40*n+16; got > most {
		t.Fatalf("footprint %d B on n=%d m=%d, want at most %d (20 B/arc + 40 B/node)", got, n, m, most)
	}
	g.SetTrivalencyProb(nil, 1)
	if got, want := g.MemoryFootprint(), 28*m+32*n+16; got != want {
		t.Fatalf("per-arc p: footprint %d B, want %d", got, want)
	}
}

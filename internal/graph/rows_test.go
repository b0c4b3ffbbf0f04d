package graph

import (
	"bytes"
	"math"
	"slices"
	"sort"
	"sync"
	"testing"

	"github.com/holisticim/holisticim/internal/rng"
)

// inRowProbsOf is the definition, written the slow way: v's entry is the p
// of its in-arcs when every one compares == to every other's and there is
// at least one, its first arc's then, and NaN otherwise.
func inRowProbsOf(g *Graph) []float64 {
	col := g.Probs()
	want := make([]float64, g.NumNodes())
	for v := NodeID(0); v < g.NumNodes(); v++ {
		idxs := g.InEdgeIndices(v)
		uniform := len(idxs) > 0
		for _, a := range idxs {
			for _, b := range idxs {
				if col[a] != col[b] {
					uniform = false
				}
			}
		}
		want[v] = math.NaN()
		if uniform {
			want[v] = col[idxs[0]]
		}
	}
	return want
}

// sameBits compares two columns bit for bit: slices.Equal would call two
// NaNs different and +0 and −0 the same.
func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

func checkInRowProbs(t *testing.T, step string, g *Graph) {
	t.Helper()
	for i := 0; i < 2; i++ { // the second call is a memo hit
		if got := g.InRowProbs(); !sameBits(got, inRowProbsOf(g)) {
			t.Fatalf("%s: InRowProbs() (call %d) differs from the column's own answer", step, i)
		}
	}
	if first, second := g.InRowProbs(), g.InRowProbs(); &first[0] != &second[0] {
		t.Fatalf("%s: a second call derived the column again", step)
	}
}

func countUniform(col []float64) (n int) {
	for _, p := range col {
		if !math.IsNaN(p) {
			n++
		}
	}
	return n
}

// What the column says under each conventional parameterization.
func TestInRowProbs(t *testing.T) {
	g := BarabasiAlbert(400, 3, rng.New(9))
	withIn := 0
	for v := NodeID(0); v < g.NumNodes(); v++ {
		if g.InDegree(v) > 0 {
			withIn++
		}
	}
	g.SetWeightedCascadeProb()
	checkInRowProbs(t, "weighted cascade", g)
	if got := countUniform(g.InRowProbs()); got != withIn {
		t.Fatalf("weighted cascade: %d uniform rows, want every one of the %d nodes with in-edges", got, withIn)
	}
	for v, p := range g.InRowProbs() {
		if d := g.InDegree(NodeID(v)); d > 0 && p != 1/float64(d) {
			t.Fatalf("weighted cascade: node %d holds %v, want 1/%d", v, p, d)
		}
	}
	g.SetUniformProb(0.1)
	if got := countUniform(g.InRowProbs()); got != withIn {
		t.Fatalf("uniform p: %d uniform rows, want %d", got, withIn)
	}
	g.SetTrivalencyProb(nil, 5)
	checkInRowProbs(t, "trivalency", g)
	if got := countUniform(g.InRowProbs()); got == 0 || got >= withIn {
		t.Fatalf("trivalency: %d uniform rows of %d, want some (single-arc rows) and not all", got, withIn)
	}

	// A row of +0 and −0 is uniform and holds its first arc's zero; a row
	// of 0 and 0.5 is mixed; an empty row is NaN.
	negZero := math.Copysign(0, -1)
	b := NewBuilder(6)
	b.AddEdgeFull(0, 1, 0, 0, 0)
	b.AddEdgeFull(2, 1, negZero, 0, 0)
	b.AddEdgeFull(2, 3, negZero, 0, 0)
	b.AddEdgeFull(0, 3, 0, 0, 0)
	b.AddEdgeFull(0, 4, 0, 0, 0)
	b.AddEdgeFull(2, 4, 0.5, 0, 0)
	b.AddEdgeFull(0, 5, 1, 0, 0)
	small := b.Build()
	checkInRowProbs(t, "zeros", small)
	nan := math.NaN()
	if got, want := small.InRowProbs(), []float64{nan, 0, nan, 0, nan, 1}; !sameBits(got, want) {
		t.Fatalf("column %v, want %v", got, want)
	}
}

// The column is memoized beside the fingerprint: every Set* mutator must
// drop it (each step derives first, so a mutator that forgot would hand
// back the previous column), and a graph made from another must not
// inherit a stale one. Concurrent first callers of one graph agree (and
// are race-free).
func TestInRowProbsMemo(t *testing.T) {
	g := BarabasiAlbert(300, 2, rng.New(4))
	checkInRowProbs(t, "built", g)
	ops := make([]float64, g.NumNodes())
	mutators := []struct {
		name string
		do   func()
	}{
		{"SetUniformProb", func() { g.SetUniformProb(0.2) }},
		{"SetTrivalencyProb", func() { g.SetTrivalencyProb(nil, 3) }},
		{"SetWeightedCascadeProb", g.SetWeightedCascadeProb},
		{"SetEdgeParamsFunc", func() {
			g.SetEdgeParamsFunc(func(u, v NodeID) (float64, float64) { return float64(u%3) / 4, float64(v%10) / 10 })
		}},
		{"SetDefaultLTWeights", g.SetDefaultLTWeights},
		{"SetUniformPhi", func() { g.SetUniformPhi(0.7) }},
		{"SetOpinions", func() { g.SetOpinions(ops) }},
		{"SetOpinion", func() { g.SetOpinion(5, -0.25) }},
	}
	for _, m := range mutators {
		m.do()
		if g.rowProb.Load() != nil {
			t.Fatalf("%s kept the memoized column", m.name)
		}
		checkInRowProbs(t, m.name, g)
	}
	c := g.Clone()
	checkInRowProbs(t, "Clone", c)
	c.SetUniformProb(0.3)
	checkInRowProbs(t, "Clone then SetUniformProb", c)
	checkInRowProbs(t, "the clone's source", g)
	checkInRowProbs(t, "Transpose", g.Transpose())

	fresh := g.Clone()
	var wg sync.WaitGroup
	got := make([][]float64, 4)
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = fresh.InRowProbs()
		}()
	}
	wg.Wait()
	for _, col := range got {
		if !sameBits(col, inRowProbsOf(g)) {
			t.Fatal("concurrent first derivations disagree with the column")
		}
	}
}

// WithArcEdits hands the parent's column on, re-checking only the rows the
// batch touched: over 100 seeded batches chained onto one another, the
// child's inherited column must equal a derivation from scratch and the
// parent's must not move; a parent that never derived it hands on nothing.
func TestWithArcEditsInheritsInRowProbs(t *testing.T) {
	r := rng.New(12)
	g := BarabasiAlbert(250, 3, r)
	g.SetWeightedCascadeProb()
	g.SetDefaultLTWeights()
	p := 0.5
	if ng := g.WithArcEdits([]ArcEdit{{From: 0, To: 1, P: &p}}, nil); ng.rowProb.Load() != nil {
		t.Fatal("the child of a parent that never derived the column has one")
	}
	g.InRowProbs()
	for batch := 0; batch < 100; batch++ {
		parentCol := slices.Clone(g.InRowProbs())
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
		var rebalance []NodeID // moves LT weights only: no row's p changes with it
		if batch%3 == 0 {
			for _, e := range edits[:5] {
				rebalance = append(rebalance, e.To)
			}
		}
		ng := g.WithArcEdits(edits, rebalance)
		// Looked at through the memo field: the accessor would derive.
		if inherited := ng.rowProb.Load(); inherited == nil {
			t.Fatalf("batch %d: the child did not inherit the column", batch)
		} else if !sameBits(*inherited, inRowProbsOf(ng)) {
			t.Fatalf("batch %d: inherited column differs from a fresh derivation", batch)
		}
		if !sameBits(g.InRowProbs(), parentCol) {
			t.Fatalf("batch %d: the parent's column moved", batch)
		}
		g = ng
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
			if !sameBits(back.Probs(), g.Probs()) || !sameBits(back.Phis(), g.Phis()) {
				t.Fatalf("%s(%v): parameters changed on the round trip", s.name, x)
			}
		}
	}
}

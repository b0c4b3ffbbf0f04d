package graph

import (
	"math"
	"math/bits"
	"slices"
	"sort"
	"sync"
	"testing"

	"github.com/holisticim/holisticim/internal/rng"
)

// uniformRowsOf is the definition, written the slow way: v is in the set
// when it has in-edges and the p of every one compares == to every other's.
func uniformRowsOf(g *Graph) []uint64 {
	col := g.Probs()
	bits := make([]uint64, (int(g.NumNodes())+63)/64)
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
		if uniform {
			bits[v/64] |= 1 << (v % 64)
		}
	}
	return bits
}

func checkUniformRows(t *testing.T, step string, g *Graph) {
	t.Helper()
	for i := 0; i < 2; i++ { // the second call is a memo hit
		if got, want := g.UniformProbRows(), uniformRowsOf(g); !slices.Equal(got, want) {
			t.Fatalf("%s: UniformProbRows() (call %d) differs from the column's own answer", step, i)
		}
	}
}

func countBits(set []uint64) (n int) {
	for _, w := range set {
		n += bits.OnesCount64(w)
	}
	return n
}

// What the sets say under each conventional parameterization.
func TestUniformRows(t *testing.T) {
	g := BarabasiAlbert(400, 3, rng.New(9))
	withIn := 0
	for v := NodeID(0); v < g.NumNodes(); v++ {
		if g.InDegree(v) > 0 {
			withIn++
		}
	}
	g.SetWeightedCascadeProb()
	checkUniformRows(t, "weighted cascade", g)
	if got := countBits(g.UniformProbRows()); got != withIn {
		t.Fatalf("weighted cascade: %d uniform rows, want every one of the %d nodes with in-edges", got, withIn)
	}
	g.SetUniformProb(0.1)
	if got := countBits(g.UniformProbRows()); got != withIn {
		t.Fatalf("uniform p: %d uniform rows, want %d", got, withIn)
	}
	g.SetTrivalencyProb(nil, 5)
	checkUniformRows(t, "trivalency", g)
	if got := countBits(g.UniformProbRows()); got == 0 || got >= withIn {
		t.Fatalf("trivalency: %d uniform rows of %d, want some (single-arc rows) and not all", got, withIn)
	}

	// Rows of zeros of either sign are uniform; a row holding a NaN — only
	// SetEdgeParamsFunc lets one in — is not, even a single-arc one; an
	// empty row is not.
	b := NewBuilder(6)
	b.AddEdgeFull(0, 1, 0, 0, 0)
	b.AddEdgeFull(2, 1, math.Copysign(0, -1), 0, 0)
	b.AddEdgeFull(0, 3, 0, 0, 0)
	b.AddEdgeFull(0, 4, 0, 0, 0)
	b.AddEdgeFull(2, 4, 0, 0, 0)
	b.AddEdgeFull(0, 5, 1, 0, 0)
	small := b.Build()
	small.SetEdgeParamsFunc(func(u, v NodeID) (float64, float64) {
		if v == 3 || v == 4 {
			return math.NaN(), 0
		}
		p, _ := small.EdgeProb(u, v)
		return p, 0
	})
	checkUniformRows(t, "zeros and NaNs", small)
	if got := small.UniformProbRows()[0]; got != 1<<1|1<<5 {
		t.Fatalf("uniform rows %06b, want nodes 1 and 5", got)
	}
}

// The set is memoized beside the fingerprint: every Set* mutator must
// drop it (each step derives first, so a mutator that forgot would hand
// back the previous set), and a graph made from another must not inherit
// a stale one.
func TestUniformRowsMemo(t *testing.T) {
	g := BarabasiAlbert(300, 2, rng.New(4))
	checkUniformRows(t, "built", g)
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
		if g.uniProb.Load() != nil {
			t.Fatalf("%s kept the memoized set", m.name)
		}
		checkUniformRows(t, m.name, g)
	}
	c := g.Clone()
	checkUniformRows(t, "Clone", c)
	c.SetUniformProb(0.3)
	checkUniformRows(t, "Clone then SetUniformProb", c)
	checkUniformRows(t, "the clone's source", g)
	checkUniformRows(t, "Transpose", g.Transpose())

	// Concurrent first use of one graph agrees (and is race-free).
	fresh := g.Clone()
	var wg sync.WaitGroup
	got := make([][]uint64, 4)
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = fresh.UniformProbRows()
		}()
	}
	wg.Wait()
	for _, set := range got {
		if !slices.Equal(set, uniformRowsOf(g)) {
			t.Fatal("concurrent first derivations disagree with the column")
		}
	}
}

// WithArcEdits hands the parent's set on, re-checking only the rows the
// batch touched: over 100 seeded batches chained onto one another, the
// child's inherited set must equal a derivation from scratch and the
// parent's must not move; a parent that never derived it hands on nothing.
func TestWithArcEditsInheritsUniformRows(t *testing.T) {
	r := rng.New(12)
	g := BarabasiAlbert(250, 3, r)
	g.SetWeightedCascadeProb()
	g.SetDefaultLTWeights()
	p := 0.5
	if ng := g.WithArcEdits([]ArcEdit{{From: 0, To: 1, P: &p}}, nil); ng.uniProb.Load() != nil {
		t.Fatal("the child of a parent that never derived the set has one")
	}
	g.UniformProbRows()
	for batch := 0; batch < 100; batch++ {
		parentRows := slices.Clone(g.UniformProbRows())
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
		if inherited := ng.uniProb.Load(); inherited == nil {
			t.Fatalf("batch %d: the child did not inherit the set", batch)
		} else if !slices.Equal(*inherited, uniformRowsOf(ng)) {
			t.Fatalf("batch %d: inherited set differs from a fresh derivation", batch)
		}
		if !slices.Equal(g.UniformProbRows(), parentRows) {
			t.Fatalf("batch %d: the parent's set moved", batch)
		}
		g = ng
	}
}

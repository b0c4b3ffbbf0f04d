package graph

import "fmt"

// ArcEdit is one change WithArcEdits makes to the arc set: the arc
// (From,To) is removed, or set — changed in place when it exists,
// inserted when it does not. A nil parameter of a set keeps the existing
// arc's value and is zero on an inserted one.
type ArcEdit struct {
	From, To  NodeID
	Remove    bool
	P, Phi, W *float64
}

// WithArcEdits returns a new graph that is g with the edits applied; g is
// not touched. The result is what a Builder fed the edited arc list would
// Build — rows sorted by target, the same in-CSR, each parameter column in
// its canonical form — with g's opinions, but its cost beyond a block copy
// of the arrays follows the edits: the out-arrays are copied across in the
// stretches between edit positions, outStart is g's offsets plus the
// running count of net insertions, and only the in-CSR is re-derived (by
// the counting sort Build uses). Each parameter column is edited in its
// per-arc form, whatever form g holds it in, and folded back to its
// canonical form once the arcs are in place.
//
// edits must be sorted by (From, To) with no arc named twice, and a
// removed arc must exist; like the Builder's, parameter bounds are
// enforced by panic, so callers holding outside input validate it first.
//
// rebalanceLT lists targets whose in-arcs get the default LT weight
// 1/|In(v)| of the NEW graph, overriding kept and edited weights alike —
// the weighted-cascade convention under topology churn.
func (g *Graph) WithArcEdits(edits []ArcEdit, rebalanceLT []NodeID) *Graph {
	// Sized for every edit being an insertion; clipped to the arc count below.
	most := len(g.outTo) + len(edits)
	ng := &Graph{
		n:        g.n,
		outStart: make([]int64, len(g.outStart)),
		outTo:    make([]NodeID, most),
		outPhi:   make([]float64, most),
		opinion:  append([]float64(nil), g.opinion...),
	}
	prob, wt := make([]float64, most), make([]float64, most)
	// src is the next position of g not yet carried over, dst where it
	// goes: dst-src is the net number of arcs inserted so far.
	var src, dst int64
	carry := func(end int64) {
		copy(ng.outTo[dst:], g.outTo[src:end])
		copy(ng.outPhi[dst:], g.outPhi[src:end])
		g.prob.expand(g.outTo, int(src), prob[dst:dst+end-src])
		g.wt.expand(g.outTo, int(src), wt[dst:dst+end-src])
		dst += end - src
		src = end
	}
	// Row u starts where it did plus the net insertions of the rows before
	// it; rows are stamped up to the one the next edit falls in.
	row := NodeID(0)
	startRows := func(through NodeID) {
		for ; row <= through; row++ {
			ng.outStart[row] = g.outStart[row] + dst - src
		}
	}
	// Edits are in (From, To) order and rows sorted by target, so their
	// positions ascend across the whole array.
	for i, e := range edits {
		if i > 0 {
			if prev := edits[i-1]; prev.From > e.From || prev.From == e.From && prev.To >= e.To {
				panic(fmt.Sprintf("graph: arc edits not sorted: (%d,%d) before (%d,%d)", prev.From, prev.To, e.From, e.To))
			}
		}
		if e.Remove { // a removal's parameters are not read, so not checked either
			e.P, e.Phi, e.W = nil, nil, nil
		}
		checkArc(g.n, e.From, e.To, valueOr(e.P, 0), valueOr(e.Phi, 0), valueOr(e.W, 0))
		if e.From == e.To {
			panic(fmt.Sprintf("graph: arc edit names self-loop (%d,%d)", e.From, e.To))
		}
		at, exists := g.findEdge(e.From, e.To)
		if e.Remove && !exists {
			panic(fmt.Sprintf("graph: arc edit removes absent arc (%d,%d)", e.From, e.To))
		}
		startRows(e.From)
		carry(at)
		var p, phi, w float64
		if exists {
			p, phi, w = g.ProbAt(src), g.outPhi[src], g.WeightAt(src)
			src++
		}
		if e.Remove {
			continue
		}
		ng.outTo[dst] = e.To
		ng.outPhi[dst] = valueOr(e.Phi, phi)
		prob[dst] = valueOr(e.P, p)
		wt[dst] = valueOr(e.W, w)
		dst++
	}
	startRows(g.n)
	carry(int64(len(g.outTo)))
	ng.outTo = ng.outTo[:dst:dst]
	ng.outPhi = ng.outPhi[:dst:dst]

	ng.buildInAdjacency()
	wt = wt[:dst:dst]
	for _, v := range rebalanceLT {
		x := 1 / float64(ng.InDegree(v))
		for _, e := range ng.InEdgeIndices(v) {
			wt[e] = x
		}
	}
	ng.prob = ng.foldColumn(prob[:dst:dst])
	ng.wt = ng.foldColumn(wt)
	return ng
}

func valueOr(p *float64, def float64) float64 {
	if p != nil {
		return *p
	}
	return def
}

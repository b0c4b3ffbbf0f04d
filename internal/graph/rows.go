package graph

import "math"

// InRowProbs returns a column indexed by node: entry v is the p every
// in-arc of v carries when they all carry the same one — every node with
// in-edges under weighted cascade and uniform p — and NaN otherwise: a row
// holding a trivalency mix or one a live batch reweighted in part, and an
// empty row. No arc holds a NaN p (every writer of the column refuses one,
// see ValidProb), so NaN is free to mean "mixed". A reverse traversal
// reads a row's entry with one load and gathers per arc only where it is
// NaN. Equality is float ==: a row of +0 and −0 holds one p (they act
// alike under the sampler's draw < p), stored as its first arc's.
//
// One pass over the in-edges on first use, 8n bytes kept; every Set*
// mutator drops it, WithArcEdits hands it on (see inheritInRowProbs).
// Concurrent first callers each derive it and store equal columns. The
// slice must not be modified.
func (g *Graph) InRowProbs() []float64 {
	if col := g.rowProb.Load(); col != nil {
		return *col
	}
	col := make([]float64, g.n)
	for v := NodeID(0); v < g.n; v++ {
		col[v] = g.inRowProb(v)
	}
	g.rowProb.Store(&col)
	return col
}

// inRowProb is v's InRowProbs entry from its in-row as it is now.
func (g *Graph) inRowProb(v NodeID) float64 {
	row := g.inEdge[g.inStart[v]:g.inStart[v+1]]
	if len(row) == 0 {
		return math.NaN()
	}
	p := g.outProb[row[0]]
	for _, e := range row[1:] {
		if g.outProb[e] != p {
			return math.NaN()
		}
	}
	return p
}

// inheritInRowProbs gives g, just derived from parent by WithArcEdits, the
// column parent had derived: a copy, with only the rows the edits could
// have changed — the heads of edited arcs — looked at again, so a live
// batch pays for its own rows and not for a pass over the graph. If parent
// never derived it, it stays underived.
func (g *Graph) inheritInRowProbs(parent *Graph, edits []ArcEdit) {
	old := parent.rowProb.Load()
	if old == nil {
		return
	}
	col := append([]float64(nil), *old...)
	for _, e := range edits {
		col[e.To] = g.inRowProb(e.To)
	}
	g.rowProb.Store(&col)
}

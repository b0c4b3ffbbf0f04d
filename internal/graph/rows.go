package graph

// UniformProbRows returns a set of nodes, bit v&63 of word v>>6: v is in
// it when it has in-edges and they all carry the same p — every such node
// under weighted cascade and uniform p, not a row holding a trivalency mix
// or one a live batch reweighted in part. A reverse traversal reads such
// a row's p once, from any of its arcs, and gathers per arc only in the
// others. Equality is float ==: ±0 compare equal (and act alike under the
// sampler's draw < p), a NaN differs from everything, itself included.
//
// One pass over the in-edges on first use, n/8 bytes kept; every Set*
// mutator drops it, WithArcEdits hands it on (see inheritUniformRows).
// Concurrent first callers each derive it and store equal sets. The slice
// must not be modified.
func (g *Graph) UniformProbRows() []uint64 {
	if bits := g.uniProb.Load(); bits != nil {
		return *bits
	}
	bits := make([]uint64, (int(g.n)+63)/64)
	for v := NodeID(0); v < g.n; v++ {
		g.markUniform(bits, v)
	}
	g.uniProb.Store(&bits)
	return bits
}

// markUniform sets or clears v's bit from its in-row as it is now.
func (g *Graph) markUniform(bits []uint64, v NodeID) {
	row := g.inEdge[g.inStart[v]:g.inStart[v+1]]
	uniform := len(row) > 0
	for _, e := range row { // the first arc included: a NaN equals nothing
		if g.outProb[e] != g.outProb[row[0]] {
			uniform = false
			break
		}
	}
	if uniform {
		bits[v>>6] |= 1 << (uint32(v) & 63)
	} else {
		bits[v>>6] &^= 1 << (uint32(v) & 63)
	}
}

// inheritUniformRows gives g, just derived from parent by WithArcEdits,
// the set parent had derived: a copy, with only the rows the edits could
// have changed — the heads of edited arcs — looked at again, so a live
// batch pays for its own rows and not for a pass over the graph. If parent
// never derived it, it stays underived.
func (g *Graph) inheritUniformRows(parent *Graph, edits []ArcEdit) {
	old := parent.uniProb.Load()
	if old == nil {
		return
	}
	bits := append([]uint64(nil), *old...)
	for _, e := range edits {
		g.markUniform(bits, e.To)
	}
	g.uniProb.Store(&bits)
}

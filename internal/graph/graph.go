// Package graph provides the directed-graph substrate used by every
// algorithm in this repository: an immutable CSR (compressed sparse row)
// representation with per-edge influence probability p(u,v), per-edge
// interaction probability ϕ(u,v) (Def. 5 of the paper) and per-node opinion
// o_v ∈ [-1,1] (Def. 4), plus builders, text I/O, statistics and synthetic
// generators.
//
// The representation stores both out-adjacency (used by forward simulation
// and by EaSyIM/OSIM score assignment) and in-adjacency (used by the LT
// model, weighted-cascade assignment and reverse-reachable sampling). Edge
// parameters are stored once, in out-array order; an in-edge carries the
// 32-bit position of its arc there (InCSR, InEdgeIndices).
//
// The p and LT-weight columns hold only what they cannot derive. Under the
// conventional parameterizations every arc into a node carries one value —
// weighted cascade and the default LT weights are 1/|In(v)|, a property of
// the head, and a uniform p is one value throughout — so such a column is
// kept per head, n floats instead of m (see column). Which form a column
// takes is a function of its values alone: every writer (Build, ReadBinary,
// the Set* mutators, WithArcEdits) leaves the per-head form exactly when
// every non-empty in-row holds one value bit for bit. The form is invisible
// to ProbAt, WeightAt, WriteBinary and Fingerprint, which read the same
// value for every arc either way; kernels that care ask ProbColumn or
// WeightColumn and pick their loop once per call.
package graph

import (
	"fmt"
	"math"
	"sync/atomic"
)

// NodeID identifies a node. Graphs are limited to ~2.1 billion nodes which
// is far beyond what this library targets in memory.
type NodeID = int32

// maxArcs is the largest arc count a graph holds: an in-edge stores its
// arc's out-array position in 32 bits.
const maxArcs = math.MaxInt32

// Graph is an immutable directed graph in CSR form. Use a Builder to
// construct one. The zero value is an empty graph.
//
// Mutating methods (SetUniformProb, SetOpinions, ...) are provided for the
// model-parameter layers only — the topology is fixed after Build.
type Graph struct {
	n int32

	outStart []int64  // len n+1; out-edges of u are indices [outStart[u], outStart[u+1])
	outTo    []NodeID // len m
	outPhi   []float64
	prob     column // p(u,v)
	wt       column // LT weight w(u,v); by convention 1/|In(v)| unless overridden

	inStart []int64
	inFrom  []NodeID
	inEdge  []int32 // index into out arrays for the same edge

	opinion []float64 // len n, in [-1,1]

	// fp memoizes the Fingerprint, 0 = not hashed; every Set* mutator
	// drops it.
	fp atomic.Uint64
}

// column is the p or the LT-weight column in one of its two forms. Per
// arc, v has one entry per arc in out-array order. Per head, v has one
// entry per node: v[h] is the value every arc into h carries, and 0 for a
// node with no in-arcs. The per-head form is used exactly when every
// non-empty in-row holds one value bit for bit (so a row of +0 and −0 stays
// per arc), which makes the form a function of the values: two graphs with
// the same arcs and values hold the same column.
type column struct {
	v       []float64
	perHead bool
}

// at returns the value of the arc at out-array position i, whose head is
// to[i].
func (c column) at(to []NodeID, i int64) float64 {
	if c.perHead {
		return c.v[to[i]]
	}
	return c.v[i]
}

// eachChunk hands fn the column's values arc by arc, in out-array order, a
// bufferful at a time, whatever the form: what WriteBinary writes and
// Fingerprint hashes.
func (c column) eachChunk(to []NodeID, fn func(vals []float64) error) error {
	var buf [4096]float64
	for i := 0; i < len(to); i += len(buf) {
		run := buf[:min(len(buf), len(to)-i)]
		c.expand(to, i, run)
		if err := fn(run); err != nil {
			return err
		}
	}
	return nil
}

// expand writes the values of the arcs at out-array positions [i,
// i+len(dst)) into dst, the per-arc column's stretch whatever the form.
func (c column) expand(to []NodeID, i int, dst []float64) {
	if !c.perHead {
		copy(dst, c.v[i:])
		return
	}
	for j, h := range to[i : i+len(dst)] {
		dst[j] = c.v[h]
	}
}

// headFold folds a per-arc column, fed in out-array order, into its
// per-head form for as long as one exists, and materialises the per-arc
// form at the first arc that breaks its row. The writers that produce a
// column arc by arc feed it a value (put) or a chunk (add) at a time, so
// they allocate an m-long column only for a column that needs one.
type headFold struct {
	to   []NodeID
	head []float64 // NaN: no arc into the node seen yet (no arc holds a NaN)
	arc  []float64 // the per-arc form, once some row broke

	buf  [1024]float64 // put's values not yet folded in
	nbuf int
	next int // the position of buf[0]
}

func newHeadFold(n int32, to []NodeID) *headFold {
	head := make([]float64, n)
	for i := range head {
		head[i] = math.NaN()
	}
	return &headFold{to: to, head: head}
}

// put folds in the value of the next arc, a buffer at a time.
func (f *headFold) put(x float64) {
	f.buf[f.nbuf] = x
	if f.nbuf++; f.nbuf == len(f.buf) {
		f.flush()
	}
}

// flush folds in what put buffered.
func (f *headFold) flush() {
	f.add(f.next, f.buf[:f.nbuf])
	f.next += f.nbuf
	f.nbuf = 0
}

// add folds in vals, the values of the arcs at positions i, i+1, ...
func (f *headFold) add(i int, vals []float64) {
	if f.arc == nil {
		k := f.fold(i, vals)
		if k == len(vals) {
			return
		}
		f.arc = make([]float64, len(f.to))
		column{v: f.head, perHead: true}.expand(f.to, 0, f.arc[:i+k])
		f.head = nil
		i, vals = i+k, vals[k:]
	}
	copy(f.arc[i:], vals)
}

// fold folds vals, the values of the arcs at positions i, i+1, ..., into
// the per-head column and returns how many it took: all of them, or k when
// vals[k] breaks its row (bit for bit), which leaves the column stale.
func (f *headFold) fold(i int, vals []float64) int {
	head := f.head
	for j, h := range f.to[i : i+len(vals)] {
		x, cur := vals[j], head[h]
		if math.Float64bits(x) == math.Float64bits(cur) {
			continue
		}
		if cur != cur { // first arc into h
			head[h] = x
			continue
		}
		return j
	}
	return len(vals)
}

// column returns the folded column.
func (f *headFold) column() column {
	f.flush()
	if f.arc != nil {
		return column{v: f.arc}
	}
	for v, x := range f.head {
		if x != x { // no in-arcs
			f.head[v] = 0
		}
	}
	return column{v: f.head, perHead: true}
}

// foldColumn is the canonical form of the per-arc column arc over g's arcs:
// arc itself when some row holds two values.
func (g *Graph) foldColumn(arc []float64) column {
	f := newHeadFold(g.n, g.outTo)
	if f.fold(0, arc) < len(arc) {
		return column{v: arc}
	}
	return f.column()
}

// headColumn is the per-head column that gives every arc into v the value
// of(|In(v)|) (and a node with no in-arcs 0).
func (g *Graph) headColumn(of func(indeg int32) float64) column {
	head := make([]float64, g.n)
	for v := NodeID(0); v < g.n; v++ {
		if d := g.InDegree(v); d > 0 {
			head[v] = of(d)
		}
	}
	return column{v: head, perHead: true}
}

// cascade is the weighted-cascade value 1/|In(v)|.
func cascade(indeg int32) float64 { return 1 / float64(indeg) }

// NumNodes returns |V|.
func (g *Graph) NumNodes() int32 { return g.n }

// NumEdges returns |E| (number of directed arcs).
func (g *Graph) NumEdges() int64 { return int64(len(g.outTo)) }

// OutDegree returns |Out(u)|.
func (g *Graph) OutDegree(u NodeID) int32 {
	return int32(g.outStart[u+1] - g.outStart[u])
}

// InDegree returns |In(v)|.
func (g *Graph) InDegree(v NodeID) int32 {
	return int32(g.inStart[v+1] - g.inStart[v])
}

// OutNeighbors returns the slice of targets of u's out-edges. The slice
// aliases internal storage and must not be modified.
func (g *Graph) OutNeighbors(u NodeID) []NodeID {
	return g.outTo[g.outStart[u]:g.outStart[u+1]]
}

// OutPhis returns the interaction probabilities aligned with OutNeighbors(u).
func (g *Graph) OutPhis(u NodeID) []float64 {
	return g.outPhi[g.outStart[u]:g.outStart[u+1]]
}

// InNeighbors returns the slice of sources of v's in-edges. The slice
// aliases internal storage and must not be modified.
func (g *Graph) InNeighbors(v NodeID) []NodeID {
	return g.inFrom[g.inStart[v]:g.inStart[v+1]]
}

// InEdgeIndices returns, aligned with InNeighbors(v), the positions of those
// edges in the out-edge arrays; pass them to ProbAt/PhiAt/WeightAt or index
// Phis with them.
func (g *Graph) InEdgeIndices(v NodeID) []int32 {
	return g.inEdge[g.inStart[v]:g.inStart[v+1]]
}

// OutCSR returns the out-adjacency whole: u's out-edges are positions
// [start[u], start[u+1]) of to. Flat kernels loop over these (and the
// aligned Phis and parameter columns) instead of slicing per row. The
// slices alias internal storage and must not be modified.
func (g *Graph) OutCSR() (start []int64, to []NodeID) { return g.outStart, g.outTo }

// InCSR returns the in-adjacency whole: v's in-edges are positions
// [start[v], start[v+1]) of from, and edge[i] is the position of in-edge i
// in the out-edge arrays. The slices alias internal storage and must not be
// modified.
func (g *Graph) InCSR() (start []int64, from []NodeID, edge []int32) {
	return g.inStart, g.inFrom, g.inEdge
}

// ProbColumn returns p in the form the graph holds it. Per head (perHead
// true), col has one entry per node and col[v] is the p of every arc into
// v — weighted cascade, a uniform p — so a kernel reads an arc's p from
// its head, or a whole in-row's with one load. Otherwise col is indexed by
// out-array position. The form follows from the values alone (see
// column); the slice aliases internal storage and must not be modified.
func (g *Graph) ProbColumn() (col []float64, perHead bool) { return g.prob.v, g.prob.perHead }

// WeightColumn returns the LT weights in the form the graph holds them, as
// ProbColumn does p.
func (g *Graph) WeightColumn() (col []float64, perHead bool) { return g.wt.v, g.wt.perHead }

// Phis returns ϕ for every edge, indexed by out-array position.
func (g *Graph) Phis() []float64 { return g.outPhi }

// OutEdgeBase returns the position in the out-edge arrays of u's first
// out-edge; the edge to OutNeighbors(u)[i] has position OutEdgeBase(u)+i.
func (g *Graph) OutEdgeBase(u NodeID) int64 { return g.outStart[u] }

// ProbAt returns p for the edge at out-array position idx.
func (g *Graph) ProbAt(idx int64) float64 { return g.prob.at(g.outTo, idx) }

// PhiAt returns ϕ for the edge at out-array position idx.
func (g *Graph) PhiAt(idx int64) float64 { return g.outPhi[idx] }

// WeightAt returns the LT weight for the edge at out-array position idx.
func (g *Graph) WeightAt(idx int64) float64 { return g.wt.at(g.outTo, idx) }

// Opinion returns o_v.
func (g *Graph) Opinion(v NodeID) float64 { return g.opinion[v] }

// Opinions returns the full opinion vector. The slice aliases internal
// storage; treat it as read-only unless you own the graph.
func (g *Graph) Opinions() []float64 { return g.opinion }

// HasEdge reports whether the arc (u,v) exists. O(log outdeg(u)) — the
// out-neighbor lists are sorted by Build.
func (g *Graph) HasEdge(u, v NodeID) bool {
	_, ok := g.findEdge(u, v)
	return ok
}

// EdgeProb returns p(u,v) and whether the arc exists.
func (g *Graph) EdgeProb(u, v NodeID) (float64, bool) {
	i, ok := g.findEdge(u, v)
	if !ok {
		return 0, false
	}
	return g.ProbAt(i), true
}

// EdgePhi returns ϕ(u,v) and whether the arc exists.
func (g *Graph) EdgePhi(u, v NodeID) (float64, bool) {
	i, ok := g.findEdge(u, v)
	if !ok {
		return 0, false
	}
	return g.outPhi[i], true
}

// findEdge returns the out-array position of the arc (u,v), or, when it is
// absent, the position at which it would keep u's row sorted.
func (g *Graph) findEdge(u, v NodeID) (int64, bool) {
	lo, hi := g.outStart[u], g.outStart[u+1]
	for lo < hi {
		mid := (lo + hi) / 2
		switch {
		case g.outTo[mid] == v:
			return mid, true
		case g.outTo[mid] < v:
			lo = mid + 1
		default:
			hi = mid
		}
	}
	return lo, false
}

// SetUniformProb assigns p(u,v)=p to every edge (the conventional IC
// parameterization, p=0.1 in the paper's experiments).
func (g *Graph) SetUniformProb(p float64) {
	if !ValidProb(p) {
		panic(fmt.Sprintf("graph: probability %v out of [0,1]", p))
	}
	g.fp.Store(0)
	g.prob = g.headColumn(func(int32) float64 { return p })
}

// SetWeightedCascadeProb assigns p(u,v)=1/|In(v)| (the WC model convention).
// Nodes with in-degree 0 cannot be targets of any edge, so no division by
// zero can occur.
func (g *Graph) SetWeightedCascadeProb() {
	g.fp.Store(0)
	g.prob = g.headColumn(cascade)
}

// SetDefaultLTWeights assigns w(u,v)=1/|In(v)|, the conventional LT
// parameterization used in the paper's experiments. Incoming weights of
// every node then sum to at most 1, as the LT model requires.
func (g *Graph) SetDefaultLTWeights() {
	g.fp.Store(0)
	g.wt = g.headColumn(cascade)
}

// SetTrivalencyProb assigns each edge a probability drawn uniformly from
// the given values (the TRIVALENCY scheme of Chen et al., conventionally
// {0.1, 0.01, 0.001}), using a deterministic per-edge hash of (u,v) and
// the seed so assignments are reproducible and order-independent.
func (g *Graph) SetTrivalencyProb(values []float64, seed uint64) {
	if len(values) == 0 {
		values = []float64{0.1, 0.01, 0.001}
	}
	for _, p := range values {
		if !ValidProb(p) {
			panic(fmt.Sprintf("graph: trivalency probability %v out of [0,1]", p))
		}
	}
	g.fp.Store(0)
	fold := newHeadFold(g.n, g.outTo)
	for u := int32(0); u < g.n; u++ {
		for i := g.outStart[u]; i < g.outStart[u+1]; i++ {
			v := g.outTo[i]
			h := seed ^ uint64(u)*0x9e3779b97f4a7c15 ^ uint64(v)*0xd1342543de82ef95
			h ^= h >> 33
			h *= 0xff51afd7ed558ccd
			h ^= h >> 33
			fold.put(values[h%uint64(len(values))])
		}
	}
	g.prob = fold.column()
}

// SetUniformPhi assigns ϕ(u,v)=phi to every edge.
func (g *Graph) SetUniformPhi(phi float64) {
	if !ValidProb(phi) {
		panic(fmt.Sprintf("graph: interaction probability %v out of [0,1]", phi))
	}
	g.fp.Store(0)
	for i := range g.outPhi {
		g.outPhi[i] = phi
	}
}

// SetEdgeParamsFunc assigns p and ϕ for every edge from a callback. The
// callback receives (u, v) and returns (p, phi). Useful for data-driven
// parameterizations such as the Twitter interaction estimates. The
// callback may read the graph: p takes its new values after the last call,
// and ϕ(u,v) after the call for (u,v).
func (g *Graph) SetEdgeParamsFunc(f func(u, v NodeID) (p, phi float64)) {
	g.fp.Store(0)
	fold := newHeadFold(g.n, g.outTo)
	for u := int32(0); u < g.n; u++ {
		for i := g.outStart[u]; i < g.outStart[u+1]; i++ {
			p, phi := f(u, g.outTo[i])
			if !ValidProb(p) || !ValidProb(phi) {
				panic(fmt.Sprintf("graph: edge params (%v,%v) out of [0,1]", p, phi))
			}
			fold.put(p)
			g.outPhi[i] = phi
		}
	}
	g.prob = fold.column()
}

// SetOpinions copies the given opinion vector into the graph. The slice
// length must equal NumNodes and every value must lie in [-1,1].
func (g *Graph) SetOpinions(o []float64) {
	if int32(len(o)) != g.n {
		panic(fmt.Sprintf("graph: opinion vector length %d != n %d", len(o), g.n))
	}
	for i, v := range o {
		if v < -1 || v > 1 || math.IsNaN(v) {
			panic(fmt.Sprintf("graph: opinion %v at node %d out of [-1,1]", v, i))
		}
	}
	g.fp.Store(0)
	copy(g.opinion, o)
}

// SetOpinion sets a single node's opinion.
func (g *Graph) SetOpinion(v NodeID, o float64) {
	if o < -1 || o > 1 || math.IsNaN(o) {
		panic(fmt.Sprintf("graph: opinion %v out of [-1,1]", o))
	}
	g.fp.Store(0)
	g.opinion[v] = o
}

// Transpose returns a new graph with every arc reversed. Edge parameters
// follow their arcs; opinions are copied. Used by tests and by reverse
// sampling diagnostics.
func (g *Graph) Transpose() *Graph {
	b := NewBuilder(g.n)
	for u := int32(0); u < g.n; u++ {
		base := g.OutEdgeBase(u)
		for i, v := range g.OutNeighbors(u) {
			e := base + int64(i)
			b.AddEdgeFull(v, u, g.ProbAt(e), g.outPhi[e], 0)
		}
	}
	t := b.Build()
	copy(t.opinion, g.opinion)
	t.SetDefaultLTWeights()
	return t
}

// Clone returns a deep copy. Useful when an experiment needs to vary edge
// parameters without disturbing a shared topology.
func (g *Graph) Clone() *Graph {
	c := &Graph{n: g.n}
	c.outStart = append([]int64(nil), g.outStart...)
	c.outTo = append([]NodeID(nil), g.outTo...)
	c.outPhi = append([]float64(nil), g.outPhi...)
	c.prob = column{append([]float64(nil), g.prob.v...), g.prob.perHead}
	c.wt = column{append([]float64(nil), g.wt.v...), g.wt.perHead}
	c.inStart = append([]int64(nil), g.inStart...)
	c.inFrom = append([]NodeID(nil), g.inFrom...)
	c.inEdge = append([]int32(nil), g.inEdge...)
	c.opinion = append([]float64(nil), g.opinion...)
	return c
}

// InducedSubgraph returns the subgraph on the given node set plus a mapping
// old→new id (-1 for excluded nodes). Edge parameters and opinions are
// carried over. Used by the Twitter topic-subgraph pipeline.
func (g *Graph) InducedSubgraph(nodes []NodeID) (*Graph, []NodeID) {
	remap := make([]NodeID, g.n)
	for i := range remap {
		remap[i] = -1
	}
	for i, v := range nodes {
		if remap[v] != -1 {
			panic("graph: duplicate node in InducedSubgraph")
		}
		remap[v] = NodeID(i)
	}
	b := NewBuilder(int32(len(nodes)))
	for _, u := range nodes {
		nu := remap[u]
		base := g.OutEdgeBase(u)
		for i, v := range g.OutNeighbors(u) {
			if nv := remap[v]; nv != -1 {
				e := base + int64(i)
				b.AddEdgeFull(nu, nv, g.ProbAt(e), g.outPhi[e], 0)
			}
		}
	}
	sub := b.Build()
	for i, v := range nodes {
		sub.opinion[i] = g.opinion[v]
	}
	sub.SetDefaultLTWeights()
	return sub, remap
}

// MemoryFootprint returns the approximate number of bytes held by the
// graph's slices. Used by the experiment harness to separate "graph
// loading" memory from algorithm "execution" memory, mirroring the stacked
// bars in Figures 5h and 6j. Under weighted cascade or a uniform p with the
// default LT weights it is 20 bytes per arc (target, ϕ, in-source, in-edge
// index) and 40 per node (two offsets, opinion, the per-head p and w).
func (g *Graph) MemoryFootprint() int64 {
	return int64(len(g.outStart))*8 +
		int64(len(g.outTo))*4 +
		int64(len(g.outPhi))*8 +
		int64(len(g.prob.v))*8 +
		int64(len(g.wt.v))*8 +
		int64(len(g.inStart))*8 +
		int64(len(g.inFrom))*4 +
		int64(len(g.inEdge))*4 +
		int64(len(g.opinion))*8
}

// PerArcClone returns a deep copy that holds its p and LT-weight columns
// per arc whatever their values: the form a per-head graph's kernels must
// agree with bit for bit, which tests compare them against. Every other
// way of making a graph leaves each column in its canonical form.
func (g *Graph) PerArcClone() *Graph {
	c := g.Clone()
	for _, col := range []*column{&c.prob, &c.wt} {
		arc := make([]float64, len(c.outTo))
		col.expand(c.outTo, 0, arc)
		*col = column{v: arc}
	}
	return c
}

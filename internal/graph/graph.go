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
// parameters are stored once, on the out-edge arrays; an in-edge carries
// the position of its arc there (InCSR, InEdgeIndices), so a reverse
// traversal that wants a parameter gathers it from the out-ordered column.
// Under the conventional parameterizations that gather is the same p for a
// whole in-row — weighted cascade is 1/|In(v)|, a property of the head — so
// the graph also keeps, lazily, a per-node column of each in-row's one p,
// NaN where the row is mixed (InRowProbs): the IC RR sampler reads a
// visited node's entry with one load and gathers per arc only in the mixed
// rows. That is derived from the column, like the Fingerprint, and dropped
// with it by every mutator: the two views cannot disagree.
package graph

import (
	"fmt"
	"math"
	"sync/atomic"
)

// NodeID identifies a node. Graphs are limited to ~2.1 billion nodes which
// is far beyond what this library targets in memory.
type NodeID = int32

// Graph is an immutable directed graph in CSR form. Use a Builder to
// construct one. The zero value is an empty graph.
//
// Mutating methods (SetUniformProb, SetOpinions, ...) are provided for the
// model-parameter layers only — the topology is fixed after Build.
type Graph struct {
	n int32

	outStart []int64  // len n+1; out-edges of u are indices [outStart[u], outStart[u+1])
	outTo    []NodeID // len m
	outProb  []float64
	outPhi   []float64
	outWt    []float64 // LT weight w(u,v); by convention 1/|In(v)| unless overridden

	inStart []int64
	inFrom  []NodeID
	inEdge  []int64 // index into out arrays for the same edge

	opinion []float64 // len n, in [-1,1]

	// Memos derived from the arrays on first use; every Set* mutator drops
	// them (dropMemos). fp is the Fingerprint, 0 = not hashed; rowProb is
	// InRowProbs, nil = not derived.
	fp      atomic.Uint64
	rowProb atomic.Pointer[[]float64]
}

// dropMemos forgets everything derived from arrays a mutator is about to
// change.
func (g *Graph) dropMemos() {
	g.fp.Store(0)
	g.rowProb.Store(nil)
}

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

// OutProbs returns the influence probabilities aligned with OutNeighbors(u).
func (g *Graph) OutProbs(u NodeID) []float64 {
	return g.outProb[g.outStart[u]:g.outStart[u+1]]
}

// OutPhis returns the interaction probabilities aligned with OutNeighbors(u).
func (g *Graph) OutPhis(u NodeID) []float64 {
	return g.outPhi[g.outStart[u]:g.outStart[u+1]]
}

// OutWeights returns the LT edge weights aligned with OutNeighbors(u).
func (g *Graph) OutWeights(u NodeID) []float64 {
	return g.outWt[g.outStart[u]:g.outStart[u+1]]
}

// InNeighbors returns the slice of sources of v's in-edges. The slice
// aliases internal storage and must not be modified.
func (g *Graph) InNeighbors(v NodeID) []NodeID {
	return g.inFrom[g.inStart[v]:g.inStart[v+1]]
}

// InEdgeIndices returns, aligned with InNeighbors(v), the positions of those
// edges in the out-edge arrays; pass them to ProbAt/PhiAt/WeightAt or index
// Probs/Phis/Weights with them.
func (g *Graph) InEdgeIndices(v NodeID) []int64 {
	return g.inEdge[g.inStart[v]:g.inStart[v+1]]
}

// OutCSR returns the out-adjacency whole: u's out-edges are positions
// [start[u], start[u+1]) of to. Flat kernels loop over these (and the
// aligned Probs/Phis/Weights) instead of slicing per row. The slices alias
// internal storage and must not be modified.
func (g *Graph) OutCSR() (start []int64, to []NodeID) { return g.outStart, g.outTo }

// InCSR returns the in-adjacency whole: v's in-edges are positions
// [start[v], start[v+1]) of from, and edge[i] is the position of in-edge i
// in the out-edge arrays (Probs/Phis/Weights). The slices alias internal
// storage and must not be modified.
func (g *Graph) InCSR() (start []int64, from []NodeID, edge []int64) {
	return g.inStart, g.inFrom, g.inEdge
}

// Probs returns p for every edge, indexed by out-array position.
func (g *Graph) Probs() []float64 { return g.outProb }

// Phis returns ϕ for every edge, indexed by out-array position.
func (g *Graph) Phis() []float64 { return g.outPhi }

// Weights returns the LT weight of every edge, indexed by out-array position.
func (g *Graph) Weights() []float64 { return g.outWt }

// OutEdgeBase returns the position in the out-edge arrays of u's first
// out-edge; the edge to OutNeighbors(u)[i] has position OutEdgeBase(u)+i.
func (g *Graph) OutEdgeBase(u NodeID) int64 { return g.outStart[u] }

// ProbAt returns p for the edge at out-array position idx.
func (g *Graph) ProbAt(idx int64) float64 { return g.outProb[idx] }

// PhiAt returns ϕ for the edge at out-array position idx.
func (g *Graph) PhiAt(idx int64) float64 { return g.outPhi[idx] }

// WeightAt returns the LT weight for the edge at out-array position idx.
func (g *Graph) WeightAt(idx int64) float64 { return g.outWt[idx] }

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
	return g.outProb[i], true
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
	g.dropMemos()
	for i := range g.outProb {
		g.outProb[i] = p
	}
}

// SetWeightedCascadeProb assigns p(u,v)=1/|In(v)| (the WC model convention).
// Nodes with in-degree 0 cannot be targets of any edge, so no division by
// zero can occur.
func (g *Graph) SetWeightedCascadeProb() {
	g.dropMemos()
	for v := int32(0); v < g.n; v++ {
		d := g.InDegree(v)
		if d == 0 {
			continue
		}
		p := 1 / float64(d)
		for _, e := range g.InEdgeIndices(v) {
			g.outProb[e] = p
		}
	}
}

// SetDefaultLTWeights assigns w(u,v)=1/|In(v)|, the conventional LT
// parameterization used in the paper's experiments. Incoming weights of
// every node then sum to at most 1, as the LT model requires.
func (g *Graph) SetDefaultLTWeights() {
	g.dropMemos()
	for v := int32(0); v < g.n; v++ {
		g.defaultLTWeightsInto(v)
	}
}

// defaultLTWeightsInto assigns w(u,v)=1/|In(v)| to the arcs into v.
func (g *Graph) defaultLTWeightsInto(v NodeID) {
	d := g.InDegree(v)
	if d == 0 {
		return
	}
	w := 1 / float64(d)
	for _, e := range g.InEdgeIndices(v) {
		g.outWt[e] = w
	}
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
	g.dropMemos()
	for u := int32(0); u < g.n; u++ {
		for i := g.outStart[u]; i < g.outStart[u+1]; i++ {
			v := g.outTo[i]
			h := seed ^ uint64(u)*0x9e3779b97f4a7c15 ^ uint64(v)*0xd1342543de82ef95
			h ^= h >> 33
			h *= 0xff51afd7ed558ccd
			h ^= h >> 33
			g.outProb[i] = values[h%uint64(len(values))]
		}
	}
}

// SetUniformPhi assigns ϕ(u,v)=phi to every edge.
func (g *Graph) SetUniformPhi(phi float64) {
	if !ValidProb(phi) {
		panic(fmt.Sprintf("graph: interaction probability %v out of [0,1]", phi))
	}
	g.dropMemos()
	for i := range g.outPhi {
		g.outPhi[i] = phi
	}
}

// SetEdgeParamsFunc assigns p and ϕ for every edge from a callback. The
// callback receives (u, v) and returns (p, phi). Useful for data-driven
// parameterizations such as the Twitter interaction estimates.
func (g *Graph) SetEdgeParamsFunc(f func(u, v NodeID) (p, phi float64)) {
	g.dropMemos()
	for u := int32(0); u < g.n; u++ {
		for i := g.outStart[u]; i < g.outStart[u+1]; i++ {
			p, phi := f(u, g.outTo[i])
			if !ValidProb(p) || !ValidProb(phi) {
				panic(fmt.Sprintf("graph: edge params (%v,%v) out of [0,1]", p, phi))
			}
			g.outProb[i] = p
			g.outPhi[i] = phi
		}
	}
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
	g.dropMemos()
	copy(g.opinion, o)
}

// SetOpinion sets a single node's opinion.
func (g *Graph) SetOpinion(v NodeID, o float64) {
	if o < -1 || o > 1 || math.IsNaN(o) {
		panic(fmt.Sprintf("graph: opinion %v out of [-1,1]", o))
	}
	g.dropMemos()
	g.opinion[v] = o
}

// Transpose returns a new graph with every arc reversed. Edge parameters
// follow their arcs; opinions are copied. Used by tests and by reverse
// sampling diagnostics.
func (g *Graph) Transpose() *Graph {
	b := NewBuilder(g.n)
	for u := int32(0); u < g.n; u++ {
		nbrs := g.OutNeighbors(u)
		ps := g.OutProbs(u)
		phis := g.OutPhis(u)
		for i, v := range nbrs {
			b.AddEdgeFull(v, u, ps[i], phis[i], 0)
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
	c.outProb = append([]float64(nil), g.outProb...)
	c.outPhi = append([]float64(nil), g.outPhi...)
	c.outWt = append([]float64(nil), g.outWt...)
	c.inStart = append([]int64(nil), g.inStart...)
	c.inFrom = append([]NodeID(nil), g.inFrom...)
	c.inEdge = append([]int64(nil), g.inEdge...)
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
		nbrs := g.OutNeighbors(u)
		ps := g.OutProbs(u)
		phis := g.OutPhis(u)
		for i, v := range nbrs {
			if nv := remap[v]; nv != -1 {
				b.AddEdgeFull(nu, nv, ps[i], phis[i], 0)
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
// bars in Figures 5h and 6j.
func (g *Graph) MemoryFootprint() int64 {
	bytes := int64(len(g.outStart))*8 +
		int64(len(g.outTo))*4 +
		int64(len(g.outProb))*8 +
		int64(len(g.outPhi))*8 +
		int64(len(g.outWt))*8 +
		int64(len(g.inStart))*8 +
		int64(len(g.inFrom))*4 +
		int64(len(g.inEdge))*8 +
		int64(len(g.opinion))*8
	return bytes
}

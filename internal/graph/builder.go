package graph

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// Builder accumulates edges and produces an immutable Graph. Parallel arcs
// are collapsed (the first occurrence's parameters win); self-loops are
// dropped, matching the conventions of the IM literature.
type Builder struct {
	n     int32
	edges []builderEdge
}

type builderEdge struct {
	u, v   NodeID
	p, phi float64
	w      float64
}

// NewBuilder returns a Builder for a graph with n nodes (ids 0..n-1).
func NewBuilder(n int32) *Builder {
	if n < 0 {
		panic("graph: negative node count")
	}
	return &Builder{n: n}
}

// Grow ensures the builder can accept node ids up to n-1, enlarging the
// eventual graph if needed. Useful for loaders that discover the node count
// while scanning.
func (b *Builder) Grow(n int32) {
	if n > b.n {
		b.n = n
	}
}

// NumNodes returns the current node count.
func (b *Builder) NumNodes() int32 { return b.n }

// AddEdge adds the arc (u,v) with zero-valued parameters (assign them later
// via the Graph's Set* methods).
func (b *Builder) AddEdge(u, v NodeID) { b.AddEdgeFull(u, v, 0, 0, 0) }

// AddEdgeP adds the arc (u,v) with influence probability p and interaction
// probability phi.
func (b *Builder) AddEdgeP(u, v NodeID, p, phi float64) { b.AddEdgeFull(u, v, p, phi, 0) }

// AddEdgeFull adds the arc (u,v) with all edge parameters. Parameters are
// validated with the same bounds ReadBinary enforces — p and ϕ are
// probabilities in [0,1], the LT weight is non-negative and finite — so a
// graph assembled programmatically (including from live mutation batches)
// can never hold values a file load would have rejected.
func (b *Builder) AddEdgeFull(u, v NodeID, p, phi, w float64) {
	checkArc(b.n, u, v, p, phi, w)
	if u == v {
		return // self-loops are meaningless for diffusion
	}
	b.edges = append(b.edges, builderEdge{u, v, p, phi, w})
}

// ValidProb reports whether p may be stored as a p or ϕ: a probability in
// [0,1], NaN excluded. Every writer of those columns that takes a value
// from its caller — the Builder, live mutation batches, ReadBinary and the
// Set* mutators — checks with it, so a graph never holds a value its own
// file could not carry back, and a column being folded to its per-head
// form is free to mean "no arc seen yet" by NaN.
func ValidProb(p float64) bool { return p >= 0 && p <= 1 }

// ValidWeight reports whether w may be stored as an LT weight: non-negative
// and finite, NaN excluded. The same writers as ValidProb's check with it.
func ValidWeight(w float64) bool { return w >= 0 && !math.IsInf(w, 1) }

// checkArc panics unless (u,v) names two nodes of an n-node graph and the
// parameters are ones ReadBinary would accept.
func checkArc(n int32, u, v NodeID, p, phi, w float64) {
	if u < 0 || u >= n || v < 0 || v >= n {
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range [0,%d)", u, v, n))
	}
	if !ValidProb(p) {
		panic(fmt.Sprintf("graph: edge (%d,%d) probability %v out of [0,1]", u, v, p))
	}
	if !ValidProb(phi) {
		panic(fmt.Sprintf("graph: edge (%d,%d) interaction %v out of [0,1]", u, v, phi))
	}
	if !ValidWeight(w) {
		panic(fmt.Sprintf("graph: edge (%d,%d) LT weight %v negative or non-finite", u, v, w))
	}
}

// AddUndirected adds both arcs (u,v) and (v,u) with the same parameters —
// the paper's convention for undirected datasets ("the undirected graphs
// were made directed by considering, for each edge, the arcs in both the
// directions").
func (b *Builder) AddUndirected(u, v NodeID, p, phi float64) {
	b.AddEdgeFull(u, v, p, phi, 0)
	b.AddEdgeFull(v, u, p, phi, 0)
}

// Build produces the immutable CSR graph. The builder may be reused
// afterwards (its edge list is not consumed). Out-neighbor lists are sorted
// by target id, enabling binary-search HasEdge and deterministic iteration.
// The p and LT-weight columns come out in their canonical form (see
// column): per head when every in-row holds one value.
func (b *Builder) Build() *Graph {
	// Sort by (u,v) and dedupe keeping the first occurrence.
	es := slices.Clone(b.edges)
	slices.SortStableFunc(es, func(x, y builderEdge) int {
		if x.u != y.u {
			return cmp.Compare(x.u, y.u)
		}
		return cmp.Compare(x.v, y.v)
	})
	dst := 0
	for i := range es {
		if i > 0 && es[i].u == es[dst-1].u && es[i].v == es[dst-1].v {
			continue
		}
		es[dst] = es[i]
		dst++
	}
	es = es[:dst]

	g := &Graph{n: b.n}
	m := int64(len(es))
	g.outStart = make([]int64, b.n+1)
	g.outTo = make([]NodeID, m)
	g.outPhi = make([]float64, m)
	g.opinion = make([]float64, b.n)

	for _, e := range es {
		g.outStart[e.u+1]++
	}
	for i := int32(0); i < b.n; i++ {
		g.outStart[i+1] += g.outStart[i]
	}
	for i, e := range es {
		g.outTo[i] = e.v
		g.outPhi[i] = e.phi
	}
	prob, wt := newHeadFold(b.n, g.outTo), newHeadFold(b.n, g.outTo)
	for _, e := range es {
		prob.put(e.p)
		wt.put(e.w)
	}
	g.prob, g.wt = prob.column(), wt.column()

	g.buildInAdjacency()
	return g
}

// FromEdges is a convenience constructor: build a graph over n nodes from a
// list of (u,v) pairs with zeroed parameters.
func FromEdges(n int32, edges [][2]NodeID) *Graph {
	b := NewBuilder(n)
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	return b.Build()
}

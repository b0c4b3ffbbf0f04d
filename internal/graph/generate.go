package graph

import (
	"fmt"

	"github.com/holisticim/holisticim/internal/rng"
)

// This file contains the synthetic graph generators used as stand-ins for
// the paper's SNAP/arXiv datasets (experiments.Datasets maps each one to
// its generator and sizes).
// All generators are deterministic given their RNG.

// ErdosRenyi samples a directed G(n, m) graph: m arcs chosen uniformly
// without self-loops. Duplicate arcs are collapsed by the builder so the
// resulting graph may have slightly fewer than m arcs on dense inputs.
func ErdosRenyi(n int32, m int64, r *rng.RNG) *Graph {
	if n < 2 {
		panic("graph: ErdosRenyi needs n >= 2")
	}
	b := NewBuilder(n)
	for i := int64(0); i < m; i++ {
		u := NodeID(r.Int31n(n))
		v := NodeID(r.Int31n(n))
		for v == u {
			v = NodeID(r.Int31n(n))
		}
		b.AddEdge(u, v)
	}
	return b.Build()
}

// BarabasiAlbert grows an undirected preferential-attachment graph with
// mPerNode edges added per new node, then expands each undirected edge to
// both arcs. This matches the heavy-tailed degree distribution of the
// co-authorship networks (NetHEPT, HepPh) at small scale.
func BarabasiAlbert(n int32, mPerNode int, r *rng.RNG) *Graph {
	if n < 2 || mPerNode < 1 {
		panic("graph: BarabasiAlbert needs n >= 2, mPerNode >= 1")
	}
	// repeated-nodes list implements preferential attachment in O(1) per
	// endpoint pick.
	targets := make([]NodeID, 0, int(n)*mPerNode*2)
	b := NewBuilder(n)
	// Seed clique over the first mPerNode+1 nodes.
	seedN := NodeID(mPerNode + 1)
	if seedN > n {
		seedN = n
	}
	for u := NodeID(0); u < seedN; u++ {
		for v := u + 1; v < seedN; v++ {
			b.AddUndirected(u, v, 0, 0)
			targets = append(targets, u, v)
		}
	}
	chosen := make([]NodeID, 0, mPerNode)
	for u := seedN; u < n; u++ {
		chosen = chosen[:0]
		for len(chosen) < mPerNode {
			var v NodeID
			if len(targets) == 0 || r.Bool(0.05) {
				v = NodeID(r.Int31n(u)) // small uniform component keeps the graph connected-ish
			} else {
				v = targets[r.Intn(len(targets))]
			}
			if v == u || containsNode(chosen, v) {
				continue
			}
			chosen = append(chosen, v)
		}
		// Insertion order (not map order) keeps the generator fully
		// deterministic: the targets list below feeds future picks.
		for _, v := range chosen {
			b.AddUndirected(u, v, 0, 0)
			targets = append(targets, u, v)
		}
	}
	return b.Build()
}

func containsNode(s []NodeID, v NodeID) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// RMATParams holds the recursive-quadrant probabilities of the R-MAT
// (Kronecker-like) generator. They must be positive and sum to ~1. The
// classical "nice skew" setting is {0.57, 0.19, 0.19, 0.05}.
type RMATParams struct {
	A, B, C, D float64
}

// DefaultRMAT is the standard skewed parameterization used for the scaled
// social-network stand-ins.
var DefaultRMAT = RMATParams{A: 0.57, B: 0.19, C: 0.19, D: 0.05}

// RMAT samples m arcs over n nodes (n rounded up to a power of two
// internally, ids > n-1 are rejected and resampled). If undirected is true,
// each sampled edge is expanded to both arcs.
func RMAT(n int32, m int64, p RMATParams, undirected bool, r *rng.RNG) *Graph {
	if n < 2 {
		panic("graph: RMAT needs n >= 2")
	}
	sum := p.A + p.B + p.C + p.D
	if sum <= 0 {
		panic("graph: RMAT params must be positive")
	}
	a, bb, c := p.A/sum, p.B/sum, p.C/sum
	levels := 0
	for (int32(1) << levels) < n {
		levels++
	}
	b := NewBuilder(n)
	// noise keeps the generated graph from being exactly self-similar,
	// which produces more realistic degree tails (cf. Chakrabarti et al.).
	for i := int64(0); i < m; i++ {
		var u, v int32
		for {
			u, v = 0, 0
			for l := 0; l < levels; l++ {
				x := r.Float64()
				switch {
				case x < a:
					// top-left: no bit set
				case x < a+bb:
					v |= 1 << l
				case x < a+bb+c:
					u |= 1 << l
				default:
					u |= 1 << l
					v |= 1 << l
				}
			}
			if u < n && v < n && u != v {
				break
			}
		}
		if undirected {
			b.AddUndirected(u, v, 0, 0)
		} else {
			b.AddEdge(u, v)
		}
	}
	return b.Build()
}

// Path returns the directed path u0 -> u1 -> ... -> u_{n-1} with the given
// uniform edge parameters; used by the OSIM closed-form tests (Lemma 8/9).
func Path(n int32, p, phi float64) *Graph {
	b := NewBuilder(n)
	for u := NodeID(0); u+1 < n; u++ {
		b.AddEdgeP(u, u+1, p, phi)
	}
	g := b.Build()
	g.SetDefaultLTWeights()
	return g
}

// Cycle returns the directed cycle over n nodes.
func Cycle(n int32, p, phi float64) *Graph {
	if n < 2 {
		panic("graph: Cycle needs n >= 2")
	}
	b := NewBuilder(n)
	for u := NodeID(0); u < n; u++ {
		b.AddEdgeP(u, (u+1)%n, p, phi)
	}
	g := b.Build()
	g.SetDefaultLTWeights()
	return g
}

// Star returns a star with node 0 pointing to nodes 1..n-1.
func Star(n int32, p, phi float64) *Graph {
	b := NewBuilder(n)
	for v := NodeID(1); v < n; v++ {
		b.AddEdgeP(0, v, p, phi)
	}
	g := b.Build()
	g.SetDefaultLTWeights()
	return g
}

// Complete returns the complete directed graph on n nodes (every ordered
// pair). Only sensible for tiny n; used by exact-enumeration tests.
func Complete(n int32, p, phi float64) *Graph {
	b := NewBuilder(n)
	for u := NodeID(0); u < n; u++ {
		for v := NodeID(0); v < n; v++ {
			if u != v {
				b.AddEdgeP(u, v, p, phi)
			}
		}
	}
	g := b.Build()
	g.SetDefaultLTWeights()
	return g
}

// RandomTree returns a uniformly random out-tree rooted at node 0: each
// node v>0 picks a parent uniformly from 0..v-1. Edge parameters are
// uniform. EaSyIM score assignment is exact on such trees (paper
// Conclusion 2), which the property tests exploit.
func RandomTree(n int32, p, phi float64, r *rng.RNG) *Graph {
	b := NewBuilder(n)
	for v := NodeID(1); v < n; v++ {
		parent := NodeID(r.Int31n(v))
		b.AddEdgeP(parent, v, p, phi)
	}
	g := b.Build()
	g.SetDefaultLTWeights()
	return g
}

// RandomDAG returns a random DAG: for every pair u<v the arc (u,v) is
// present with probability density. Edge probability parameters are set
// uniformly to p.
func RandomDAG(n int32, density, p, phi float64, r *rng.RNG) *Graph {
	b := NewBuilder(n)
	for u := NodeID(0); u < n; u++ {
		for v := u + 1; v < n; v++ {
			if r.Bool(density) {
				b.AddEdgeP(u, v, p, phi)
			}
		}
	}
	g := b.Build()
	g.SetDefaultLTWeights()
	return g
}

// LayeredBipartite builds the two-layer construction of the paper's
// Lemma 2 (Figure 3a): nx source nodes, each pointing at two dedicated
// targets, with p=1 everywhere, ϕ=1 on all but the last source's edges
// (ϕ=0 there), o=+1 on sources, o=0 on targets. The returned graph
// demonstrates that opinion spread is neither monotone nor submodular.
func LayeredBipartite(nx int32) *Graph {
	if nx < 2 {
		panic("graph: LayeredBipartite needs nx >= 2")
	}
	n := nx + 2*nx
	b := NewBuilder(n)
	for i := NodeID(0); i < nx; i++ {
		phi := 1.0
		if i == nx-1 {
			phi = 0.0
		}
		y1 := nx + 2*i
		y2 := nx + 2*i + 1
		b.AddEdgeP(i, y1, 1, phi)
		b.AddEdgeP(i, y2, 1, phi)
	}
	g := b.Build()
	for i := NodeID(0); i < nx; i++ {
		g.SetOpinion(i, 1)
	}
	g.SetDefaultLTWeights()
	return g
}

// SetCoverReduction builds the Theorem-1 construction (Figure 3b) from a
// set-cover instance: universe {0..nElems-1} and subsets. Layer 1 has one
// node per subset (o=0), layer 2 one node per element (o=1/n), layer 3
// nSubsets+nElems-2 nodes (o=-1/(2n)), plus a sink (o=-1+1/n). All edges
// have p=1, ϕ=1. Returns the graph and the ids of the layer-1 nodes.
func SetCoverReduction(nElems int, subsets [][]int) (*Graph, []NodeID) {
	nSub := len(subsets)
	if nSub == 0 || nElems == 0 {
		panic("graph: empty set-cover instance")
	}
	layer3 := nSub + nElems - 2
	if layer3 < 1 {
		layer3 = 1
	}
	n := int32(nSub + nElems + layer3 + 1)
	sink := n - 1
	b := NewBuilder(n)
	subsetNode := func(i int) NodeID { return NodeID(i) }
	elemNode := func(q int) NodeID { return NodeID(nSub + q) }
	zNode := func(i int) NodeID { return NodeID(nSub + nElems + i) }
	for i, sub := range subsets {
		for _, q := range sub {
			if q < 0 || q >= nElems {
				panic(fmt.Sprintf("graph: subset element %d out of range", q))
			}
			b.AddEdgeP(subsetNode(i), elemNode(q), 1, 1)
		}
	}
	for q := 0; q < nElems; q++ {
		for i := 0; i < layer3; i++ {
			b.AddEdgeP(elemNode(q), zNode(i), 1, 1)
		}
	}
	for i := 0; i < layer3; i++ {
		b.AddEdgeP(zNode(i), sink, 1, 1)
	}
	g := b.Build()
	nf := float64(nElems)
	for i := 0; i < nSub; i++ {
		g.SetOpinion(subsetNode(i), 0)
	}
	for q := 0; q < nElems; q++ {
		g.SetOpinion(elemNode(q), 1/nf)
	}
	for i := 0; i < layer3; i++ {
		g.SetOpinion(zNode(i), -1/(2*nf))
	}
	g.SetOpinion(sink, -1+1/nf)
	g.SetDefaultLTWeights()
	seeds := make([]NodeID, nSub)
	for i := range seeds {
		seeds[i] = subsetNode(i)
	}
	return g, seeds
}

// ExampleFigure1 builds the 4-node Twitter snapshot of the paper's
// Figure 1 / Examples 1-2: nodes A=0, B=1, C=2, D=3.
func ExampleFigure1() *Graph {
	const (
		A NodeID = 0
		B NodeID = 1
		C NodeID = 2
		D NodeID = 3
	)
	b := NewBuilder(4)
	b.AddEdgeP(B, A, 0.1, 0.7)
	b.AddEdgeP(B, C, 0.1, 0.8)
	b.AddEdgeP(A, D, 0.8, 0.9)
	b.AddEdgeP(C, D, 0.9, 0.1)
	g := b.Build()
	g.SetOpinion(A, 0.8)
	g.SetOpinion(B, 0)
	g.SetOpinion(C, 0.6)
	g.SetOpinion(D, -0.3)
	g.SetDefaultLTWeights()
	return g
}

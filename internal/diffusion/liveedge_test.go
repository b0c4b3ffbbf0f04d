package diffusion

import (
	"github.com/holisticim/holisticim/internal/graph"
	"github.com/holisticim/holisticim/internal/rng"
)

// The live-edge view of LT, kept as the oracle TestLTLiveEdgeEquivalence
// holds the LT simulation to.

// SampleLiveEdge draws one live-edge instance of the LT model: for every
// node v at most one incoming edge is selected, edge (u,v) with probability
// w(u,v) and none with probability 1−Σw. The result maps v to the out-array
// edge index of its live in-edge, or −1. Kempe et al. proved reachability
// over such instances is distributed exactly as LT activation; the
// equivalence test in this package exercises that claim.
func SampleLiveEdge(g *graph.Graph, r *rng.RNG, out []int64) []int64 {
	n := g.NumNodes()
	if out == nil {
		out = make([]int64, n)
	}
	for v := graph.NodeID(0); v < n; v++ {
		out[v] = -1
		idxs := g.InEdgeIndices(v)
		if len(idxs) == 0 {
			continue
		}
		x := r.Float64()
		acc := 0.0
		for _, e := range idxs {
			acc += g.WeightAt(int64(e))
			if x < acc {
				out[v] = int64(e)
				break
			}
		}
	}
	return out
}

// LiveEdgeSpread computes |reachable(S)|−|S| over a live-edge instance
// (liveIn[v] = live in-edge index or −1) by forward traversal: v becomes
// active when the source of its live in-edge is active.
func LiveEdgeSpread(g *graph.Graph, liveIn []int64, seeds []graph.NodeID, s *Scratch) int {
	s.begin()
	placed := s.seedSetup(g, seeds)
	// Forward propagation: from each active u, activate out-neighbors whose
	// live in-edge is exactly the (u,v) edge.
	count := placed
	for head := 0; head < len(s.order); head++ {
		u := s.order[head]
		nbrs := g.OutNeighbors(u)
		base := g.OutEdgeBase(u)
		for i, v := range nbrs {
			if s.isActive(v) || s.isBlocked(v) {
				continue
			}
			if liveIn[v] == base+int64(i) {
				s.activate(v, 0, 0)
				count++
			}
		}
	}
	return count - placed
}

// Package core implements the paper's contributions: the EaSyIM and OSIM
// score-assignment algorithms (Algorithms 4 and 5) and the ScoreGREEDY
// seed-selection loop (Algorithm 1). The dense Path-Union reference
// (Algorithm 3) and the live-edge ensemble extension to the LT model
// (Sec. 3.3) are kept in the package's tests, as the oracles EaSyIM is
// held to.
package core

import (
	"math"

	"github.com/holisticim/holisticim/internal/graph"
)

// EdgeWeight selects which per-edge parameter drives score assignment.
type EdgeWeight int

const (
	// WeightProb uses the influence probability p(u,v) — the IC and WC
	// parameterizations (WC merely assigns p=1/|In(v)| on the graph).
	WeightProb EdgeWeight = iota
	// WeightLT uses the LT weight w(u,v). Under the live-edge view the
	// probability that the (u,v) edge is live is exactly w(u,v), so score
	// assignment under LT runs unchanged with w in place of p (Sec. 3.3).
	WeightLT
)

// Scorer assigns the paper's ∆_l score to every node. Assign must write
// scores into out (allocating it when nil, length n) and return it.
// Excluded nodes (mask may be nil) receive score -Inf and contribute
// nothing to other nodes' scores — they model the removed vertex set
// V(a) of ScoreGREEDY's G(V \ V(a), E). Assign is always the whole
// O(l·(m+n)) pass; a LevelScorer can follow it with cheaper Exclude calls.
type Scorer interface {
	Name() string
	Graph() *graph.Graph
	Assign(excluded []bool, out []float64) []float64
}

// negInf marks excluded nodes so argmax never picks them.
var negInf = math.Inf(-1)

// edgeWeights returns the chosen parameter's column in the form the graph
// holds it: per head (one entry per node, the weight of every arc into it)
// or per arc (indexed by out-array position).
func edgeWeights(g *graph.Graph, w EdgeWeight) (col []float64, perHead bool) {
	if w == WeightLT {
		return g.WeightColumn()
	}
	return g.ProbColumn()
}

// ArgmaxScore returns the node with the largest finite score, breaking
// ties toward the smaller id (deterministic). Returns -1 when every node
// is excluded.
func ArgmaxScore(scores []float64) graph.NodeID {
	best := graph.NodeID(-1)
	bestScore := negInf
	for v, s := range scores {
		if s > bestScore {
			bestScore = s
			best = graph.NodeID(v)
		}
	}
	if bestScore == negInf {
		return -1
	}
	return best
}

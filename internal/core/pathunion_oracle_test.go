package core

import (
	"fmt"

	"github.com/holisticim/holisticim/internal/graph"
)

// PathUnion is the paper's Algorithm 3: a dense O(n³·l)-time, O(n²)-space
// reference score assignment. The matrix PU starts as the identity and is
// repeatedly combined with the probability-adjacency matrix M under the ⊗
// operator, whose inner combine is the probabilistic union
//
//	(PU ⊗ M)[i][j] = ⋃_k PU[i][k]·M[k][j] = 1 − Π_k (1 − PU[i][k]·M[k][j]),
//
// so parallel walk bundles combine like independent events instead of
// over-counting by summation. The diagonal is zeroed every iteration to
// discount walks that return to their source (lines 5–7). The score
// ∆_i(u) accumulates row sums across iterations (line 10).
//
// PathUnion is a test oracle for EaSyIM; it is far too expensive for real
// graphs and refuses n > MaxPathUnionNodes.
type PathUnion struct {
	g      *graph.Graph
	l      int
	weight EdgeWeight
}

// MaxPathUnionNodes bounds the dense matrix size (n² float64 words).
const MaxPathUnionNodes = 3000

// NewPathUnion returns a PU scorer with maximum walk length l.
func NewPathUnion(g *graph.Graph, l int, weight EdgeWeight) *PathUnion {
	if l < 1 {
		panic(fmt.Sprintf("core: PU walk length l=%d must be >= 1", l))
	}
	if g.NumNodes() > MaxPathUnionNodes {
		panic(fmt.Sprintf("core: PU limited to %d nodes, got %d", MaxPathUnionNodes, g.NumNodes()))
	}
	return &PathUnion{g: g, l: l, weight: weight}
}

// Name implements Scorer.
func (p *PathUnion) Name() string { return "PU" }

// Graph implements Scorer.
func (p *PathUnion) Graph() *graph.Graph { return p.g }

// Assign implements Scorer.
func (p *PathUnion) Assign(excluded []bool, out []float64) []float64 {
	g := p.g
	n := int(g.NumNodes())
	if out == nil {
		out = make([]float64, n)
	}
	// M[u][v] = edge weight, with excluded rows/columns zeroed.
	m := make([][]float64, n)
	pu := make([][]float64, n)
	next := make([][]float64, n)
	for i := 0; i < n; i++ {
		m[i] = make([]float64, n)
		pu[i] = make([]float64, n)
		next[i] = make([]float64, n)
		pu[i][i] = 1
	}
	for u := graph.NodeID(0); u < g.NumNodes(); u++ {
		if excluded != nil && excluded[u] {
			continue
		}
		base := g.OutEdgeBase(u)
		for j, v := range g.OutNeighbors(u) {
			if excluded != nil && excluded[v] {
				continue
			}
			if e := base + int64(j); p.weight == WeightLT {
				m[u][v] = g.WeightAt(e)
			} else {
				m[u][v] = g.ProbAt(e)
			}
		}
	}
	delta := make([]float64, n)
	for iter := 1; iter <= p.l; iter++ {
		// next = pu ⊗ m with the union combine.
		for i := 0; i < n; i++ {
			row := pu[i]
			dst := next[i]
			for j := 0; j < n; j++ {
				survive := 1.0
				for k := 0; k < n; k++ {
					t := row[k] * m[k][j]
					if t != 0 {
						survive *= 1 - t
					}
				}
				dst[j] = 1 - survive
			}
		}
		pu, next = next, pu
		for v := 0; v < n; v++ {
			pu[v][v] = 0 // lines 5–7: drop walks returning to the source
		}
		for u := 0; u < n; u++ {
			sum := 0.0
			for v := 0; v < n; v++ {
				sum += pu[u][v]
			}
			delta[u] += sum // line 10 accumulated over iterations
		}
	}
	for u := 0; u < n; u++ {
		if excluded != nil && excluded[u] {
			out[u] = negInf
		} else {
			out[u] = delta[u]
		}
	}
	return out
}

var _ Scorer = (*PathUnion)(nil)

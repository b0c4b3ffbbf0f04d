package core

import "github.com/holisticim/holisticim/internal/graph"

// EaSyIM is the paper's Algorithm 4: the score of a node u is the
// probability-weighted number of walks of length at most l starting at u,
//
//	∆_i(u) = Σ_{v ∈ Out(u)} w(u,v) · (1 + ∆_{i−1}(v)),   ∆_0 ≡ 0.
//
// A full Assign is O(l(m+n)) time. All l levels are kept, l·n floats beside
// the n scores (the paper's two rolling arrays would be 2n), as the
// contribution c_i(v) = 1 + ∆_i(v) a reader of v sums — 0 once v is excluded
// — so that Exclude re-sums only the rows an exclusion can reach (see
// levels.Exclude) instead of repeating the pass per seed. The score of a
// node mimics its expected spread: exactly on trees (Conclusion 2),
// exactly on DAGs under LT (Conclusion 3), and with a small bounded error
// otherwise (Sec. 3.4.2). Not safe for concurrent use.
type EaSyIM struct {
	levels
	c [][]float64 // c[i], i < l: level-i contributions
}

// NewEaSyIM returns an EaSyIM scorer with maximum path length l (the
// paper recommends l=3 as the quality/efficiency sweet spot; l must be at
// least 1 and at most the graph diameter to be meaningful).
func NewEaSyIM(g *graph.Graph, l int, weight EdgeWeight) *EaSyIM {
	e := &EaSyIM{}
	e.levels = newLevels(e, "EaSyIM", g, l, weight, l)
	e.c = make([][]float64, l)
	for i := range e.c {
		e.c[i] = make([]float64, g.NumNodes())
	}
	return e
}

func (e *EaSyIM) reset() {
	for v := range e.c[0] {
		e.c[0][v] = 1 // 1 + ∆_0
	}
}

func (e *EaSyIM) drop(v graph.NodeID) {
	for _, c := range e.c {
		c[v] = 0
	}
}

func (e *EaSyIM) sweep(i int, rows []graph.NodeID, scores []float64, changed []graph.NodeID) []graph.NodeID {
	start, to := e.g.OutCSR()
	ws := edgeWeights(e.g, e.weight)
	// Levels below l store 1+∆_i, 0 when excluded; level l is the score.
	src, dst, one, none := e.c[i-1], scores, 0.0, negInf
	if i < e.l {
		dst, one, none = e.c[i], 1, 0
	}
	if rows == nil {
		for u, gone := range e.gone {
			dst[u] = none
			if !gone {
				dst[u] = one + easyimRow(start, to, ws, src, u)
			}
		}
		return changed
	}
	for _, u := range rows { // listed rows are live
		if val := one + easyimRow(start, to, ws, src, int(u)); val != dst[u] {
			dst[u] = val
			changed = append(changed, u)
		}
	}
	return changed
}

// easyimRow is the row kernel: Σ_{v ∈ Out(u)} w(u,v)·c(v) over u's arcs in
// CSR order, with no branch on the mask — an excluded v contributes c(v)=0.
func easyimRow(start []int64, to []graph.NodeID, ws, src []float64, u int) float64 {
	sum := 0.0
	for j := start[u]; j < start[u+1]; j++ {
		sum += ws[j] * src[to[j]]
	}
	return sum
}

var _ LevelScorer = (*EaSyIM)(nil)

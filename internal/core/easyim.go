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
// otherwise (Sec. 3.4.2).
//
// On a graph that holds its weight column per head — weighted cascade, a
// uniform p, the default LT weights — every arc into v carries one weight
// w_v, and the contributions are stored premultiplied, w_v·c_i(v): a row
// then sums one gather per arc, with no weight stream and no multiply.
// These are the products the per-arc kernel forms, of the same operands, so
// the scores are the same bits in either form. The graph's representation
// picks the kernel, at every Assign.
//
// Not safe for concurrent use: one goroutine calls Assign and Exclude. A
// sweep over every row is itself split over SetWorkers goroutines (see
// levels.dense) and joined before the call returns; the sweeps over a listed
// few rows run on the caller. Scores are the same bits at any worker count.
type EaSyIM struct {
	levels
	c [][]float64 // c[i], i < l: level-i contributions, premultiplied when perHead
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
		if e.perHead {
			e.c[0][v] = e.ws[v] * 1
		}
	}
}

func (e *EaSyIM) drop(v graph.NodeID) {
	for _, c := range e.c {
		c[v] = 0
	}
}

func (e *EaSyIM) sweep(i int, rows []graph.NodeID, scores []float64, changed []graph.NodeID) []graph.NodeID {
	// Levels below l store 1+∆_i (times w_u per head), 0 when excluded;
	// level l is the score.
	k := easyimLevel{src: e.c[i-1], dst: scores, gone: e.gone, none: negInf}
	k.start, k.to = e.g.OutCSR()
	if e.perHead {
		k.premultiplied = true
	} else {
		k.ws = e.ws
	}
	if i < e.l {
		k.dst, k.one, k.none = e.c[i], 1, 0
		if e.perHead {
			k.scale = e.ws
		}
	}
	if rows == nil {
		e.dense(k.rows)
		return changed
	}
	for _, u := range rows { // listed rows are live
		if val := k.value(int(u)); val != k.dst[u] {
			k.dst[u] = val
			changed = append(changed, u)
		}
	}
	return changed
}

// easyimLevel is what one level's rows read and write: the arcs, the level
// below, and the level's own slots.
type easyimLevel struct {
	start         []int64
	to            []graph.NodeID
	ws            []float64 // per-arc weights; nil when src is premultiplied
	premultiplied bool
	src, dst      []float64
	scale         []float64 // the per-head weights dst is premultiplied by, or nil
	gone          []bool
	one, none     float64 // added to a live row's sum; an excluded row's value
}

// rows is the sweep of every row, over rows [lo, hi).
func (k *easyimLevel) rows(lo, hi int) {
	dst, gone, none := k.dst, k.gone, k.none
	for u := lo; u < hi; u++ {
		dst[u] = none
		if !gone[u] {
			dst[u] = k.value(u)
		}
	}
}

// value is a live row's slot: one plus its sum, premultiplied by u's
// weight where the level below is read that way.
func (k *easyimLevel) value(u int) float64 {
	val := k.one + k.row(u)
	if k.scale != nil {
		val *= k.scale[u]
	}
	return val
}

// row is the row kernel: Σ_{v ∈ Out(u)} w(u,v)·c(v) over u's arcs in CSR
// order, with no branch on the mask — an excluded v contributes c(v)=0. Per
// head the terms are the premultiplied slots themselves. The row is sliced
// once, so only the gather from src is bounds-checked, and float64(·)
// rounds each per-arc product before it is added, as the premultiplied
// slot was (no fused multiply-add on any platform).
func (k *easyimLevel) row(u int) float64 {
	lo, hi := k.start[u], k.start[u+1]
	to, src := k.to[lo:hi], k.src
	sum := 0.0
	if k.premultiplied {
		for _, v := range to {
			sum += src[v]
		}
		return sum
	}
	ws := k.ws[lo:hi]
	ws = ws[:len(to)]
	for j, v := range to {
		sum += float64(ws[j] * src[v])
	}
	return sum
}

var _ LevelScorer = (*EaSyIM)(nil)

package core

import (
	"fmt"

	"github.com/holisticim/holisticim/internal/graph"
)

// OSIM is the paper's Algorithm 5: the opinion-aware score assignment.
// Alongside EaSyIM's path weights it tracks, per node and per level i,
//
//	or_i(u) — weighted sum of the *initial* opinions of nodes reachable
//	          via length-i walks from u;
//	α_i(u)  — weighted product-sum of interaction terms ψ=(2ϕ−1)/2 along
//	          length-i walks (the expected sign attenuation);
//	sc_i(u) — accumulated opinion-change contributions of interior nodes;
//
// and scores ∆_i(u) = ∆_{i−1}(u) + (or_i(u) + sc_i(u) + o_u·α_i(u))/2,
// where sc_i(u) already contains one o_u·α_i(u) term (Algorithm 5 line
// 10) so the seed's own opinion enters with full weight, matching
// Lemma 8's closed form. The score equals the exact expected effective
// opinion spread on paths (Lemma 9) and approximates it elsewhere.
//
// Complexity matches EaSyIM: a full Assign is O(l(m+n)) time, and all l
// levels are kept — or/α/sc as one osimTerm per node and level, so a row's
// arc gathers once, plus each level's score increment: 4l·n floats beside
// the n scores — so that Exclude re-sums only the rows an exclusion can reach
// (see levels.Exclude). On a graph holding its weight column per head the
// terms are stored premultiplied by the weight of their node's in-arcs, as
// EaSyIM's contributions are, with the same bits for the scores.
//
// Not safe for concurrent use: one goroutine calls Assign and Exclude. A
// sweep over every row is itself split over SetWorkers goroutines (see
// levels.dense) and joined before the call returns; the sweeps over a listed
// few rows run on the caller. Scores are the same bits at any worker count.
type OSIM struct {
	levels
	lambda float64
	term   [][]osimTerm // term[i], i < l: level-i contributions
	inc    [][]float64  // inc[i-1]: level i's increment of ∆; the score is their sum in level order
}

// osimTerm is what a reader of a node sums at one level: all zero once the
// node is excluded.
type osimTerm struct{ or, al, sc float64 }

// times is t with each part premultiplied by w, the product the per-arc
// kernel forms for an arc of weight w into t's node.
func (t osimTerm) times(w float64) osimTerm { return osimTerm{w * t.or, w * t.al, w * t.sc} }

// NewOSIM returns an OSIM scorer with maximum path length l and penalty
// parameter lambda on negative opinion spread (Def. 7; λ=1 weighs negative
// opinions fully, λ=0 ignores them). The paper's experiments use λ=1, for
// which the score is exactly Algorithm 5's; for λ≠1 the per-level negative
// increments are scaled by λ — the natural heuristic extension, since
// Algorithm 5 aggregates over walks and its score cannot be split into the
// positive and negative parts Def. 7 penalizes separately.
func NewOSIM(g *graph.Graph, l int, weight EdgeWeight, lambda float64) *OSIM {
	if lambda < 0 {
		panic(fmt.Sprintf("core: OSIM lambda=%v must be >= 0", lambda))
	}
	o := &OSIM{lambda: lambda}
	o.levels = newLevels(o, "OSIM", g, l, weight, 4*l)
	o.term, o.inc = make([][]osimTerm, l), make([][]float64, l)
	for i := range o.term {
		o.term[i] = make([]osimTerm, g.NumNodes())
		o.inc[i] = make([]float64, g.NumNodes())
	}
	return o
}

// Lambda returns the negative-spread penalty.
func (o *OSIM) Lambda() float64 { return o.lambda }

// reset is Algorithm 5 line 1: α_0=1, or_0=o_u, sc_0=0.
func (o *OSIM) reset() {
	for v, opinion := range o.g.Opinions() {
		o.term[0][v] = osimTerm{or: opinion, al: 1}
		if o.perHead {
			o.term[0][v] = o.term[0][v].times(o.ws[v])
		}
	}
}

func (o *OSIM) drop(v graph.NodeID) {
	for _, t := range o.term {
		t[v] = osimTerm{}
	}
}

func (o *OSIM) sweep(i int, rows []graph.NodeID, scores []float64, changed []graph.NodeID) []graph.NodeID {
	k := osimLevel{src: o.term[i-1], phis: o.g.Phis(), opinions: o.g.Opinions(), lambda: o.lambda,
		o: o, incs: o.inc[i-1], scores: scores}
	k.start, k.to = o.g.OutCSR()
	if o.perHead {
		k.premultiplied = true
	} else {
		k.ws = o.ws
	}
	if i < o.l { // nobody reads level l's terms
		k.dst = o.term[i]
		if o.perHead {
			k.scale = o.ws
		}
	}
	if rows == nil {
		o.dense(k.rows)
		return changed
	}
	for _, u := range rows { // listed rows are live
		t, inc := k.row(int(u))
		if k.scale != nil {
			t = t.times(k.scale[u])
		}
		if k.dst != nil && t != k.dst[u] {
			k.dst[u] = t
			changed = append(changed, u)
		}
		if inc != k.incs[u] {
			k.incs[u] = inc
			scores[u] = o.score(int(u))
		}
	}
	return changed
}

// score is ∆_l(u): the level increments summed in level order.
func (o *OSIM) score(u int) float64 {
	if o.gone[u] {
		return negInf
	}
	score := 0.0
	for _, incs := range o.inc {
		score += incs[u]
	}
	return score
}

// osimLevel is what one level's rows read and write: the arcs, the level
// below, and the level's own slots.
type osimLevel struct {
	start          []int64
	to             []graph.NodeID
	ws             []float64 // per-arc weights; nil when src is premultiplied
	premultiplied  bool
	phis, opinions []float64
	src            []osimTerm
	scale          []float64 // the per-head weights dst is premultiplied by, or nil
	lambda         float64

	o      *OSIM
	dst    []osimTerm // nil at level l
	incs   []float64
	scores []float64
}

// rows is the sweep of every row, over rows [lo, hi).
func (k *osimLevel) rows(lo, hi int) {
	gone, dst, incs := k.o.gone, k.dst, k.incs
	for u := lo; u < hi; u++ {
		var t osimTerm
		incs[u] = 0
		if !gone[u] {
			t, incs[u] = k.row(u)
			if k.scale != nil {
				t = t.times(k.scale[u])
			}
		}
		if dst != nil {
			dst[u] = t
		} else { // level l: every increment is in
			k.scores[u] = k.o.score(u)
		}
	}
}

// row is the row kernel, Algorithm 5 lines 6–11 for one node: the three
// sums over u's arcs in CSR order — no branch on the mask, an excluded v
// contributes zeros — then u's own opinion and the level's increment of ∆.
// Per head the weighted terms are the premultiplied slots themselves. The
// row is sliced once, so only the gather from src is bounds-checked, and
// float64(·) rounds each per-arc product as the premultiplied slot was.
func (k *osimLevel) row(u int) (osimTerm, float64) {
	lo, hi := k.start[u], k.start[u+1]
	to, src := k.to[lo:hi], k.src
	phis := k.phis[lo:hi]
	phis = phis[:len(to)]
	var or, al, sc float64
	if k.premultiplied {
		for j, v := range to {
			c := src[v]
			or += c.or
			al += c.al * (2*phis[j] - 1) / 2
			sc += c.sc
		}
	} else {
		ws := k.ws[lo:hi]
		ws = ws[:len(to)]
		for j, v := range to {
			c, w := src[v], ws[j]
			or += float64(w * c.or)
			al += float64(w*c.al) * (2*phis[j] - 1) / 2
			sc += float64(w * c.sc)
		}
	}
	ou := k.opinions[u]
	sc += ou * al                // line 10
	inc := (or + sc + ou*al) / 2 // line 11
	if inc < 0 && k.lambda != 1 {
		inc *= k.lambda
	}
	return osimTerm{or, al, sc}, inc
}

var _ LevelScorer = (*OSIM)(nil)

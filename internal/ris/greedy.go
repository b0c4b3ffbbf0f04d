package ris

import (
	"math"
	"slices"

	"github.com/holisticim/holisticim/internal/graph"
)

// greedyMemo is the greedy max-coverage order over a collection's current
// sets, as far as it has been computed, with what each prefix covers. The
// marginal gain of every node is kept between calls — plain: in the
// collection's counts, as gain+1 so that 0 can mark a chosen node;
// weighted: in gain, −Inf marking a chosen node — which makes the order
// resumable at any prefix, and the argmax a scan of one array: a chosen
// node holds a value no candidate can tie.
type greedyMemo struct {
	started  bool           // false: the sets changed, or nobody asked yet
	weighted bool           // maximizes covered root-opinion weight, not covered sets
	gain     []float64      // weighted: uncovered weight per node
	covered  Bitset         // sets hit by order
	order    []graph.NodeID // the greedy permutation so far
	cov      []int          // cov[i]: sets covered by order[:i+1]
	wcov     []float64      // weighted: weight covered by order[:i+1]
	// opinion memoizes the depth-exact Def. 6 estimate per prefix length,
	// so repeat weighted selects do not re-walk every covered set.
	opinion map[int]float64
}

// drop forgets the order; the arrays stay for the next one.
func (m *greedyMemo) drop() {
	m.started = false
	m.order, m.cov, m.wcov, m.opinion = m.order[:0], m.cov[:0], m.wcov[:0], nil
}

// startGreedy empties the order and derives every node's marginal gain
// from the inverted index.
func (c *Collection) startGreedy(weighted bool) {
	m := &c.memo
	m.drop()
	m.started, m.weighted = true, weighted
	m.covered = m.covered.Reset(c.Len())
	if !weighted {
		for v := range c.counts {
			c.counts[v] = c.invOff[v+1] - c.invOff[v] + 1
		}
		return
	}
	if m.gain == nil {
		m.gain = make([]float64, c.g.NumNodes())
	}
	for v := range m.gain {
		m.gain[v] = 0
		for _, sid := range c.SetsContaining(graph.NodeID(v)) {
			m.gain[v] += c.weights[sid]
		}
	}
}

// extendGreedy grows the order to k seeds, or to every node if there are
// fewer. Each step is an O(n) argmax over the marginal gains, then an
// update of the gains of every member of the newly covered sets: the
// standard greedy max-coverage step, a (1−1/e)-approximation when plain.
// Weighted gains may go negative once only negative-opinion sets remain;
// the argmax then picks the least-damaging node, so a full-k selection is
// still returned.
//
// The update runs in blocks of up to coverBlock newly covered sets, in
// passes: collect the block's ids from the pick's index row (marking them
// covered), load their offsets — and weights — then take each set's gain
// off its members (uncover). Loaded in a pass, the block's scattered
// offsets miss cache together instead of one set after another. Sets are
// still uncovered in row order, so every gain and wcov takes the same
// terms in the same order, whatever the block size.
func (c *Collection) extendGreedy(k int) {
	m := &c.memo
	k = min(k, int(c.g.NumNodes()))
	have := len(m.order)
	if k <= have {
		return
	}
	// Sized like every array that grows here (see extend), not by append.
	m.order, m.cov = extend(m.order, k)[:have], extend(m.cov, k)[:have]
	if m.weighted {
		m.wcov = extend(m.wcov, k)[:have]
	}
	cov, wcov := 0, 0.0
	if have > 0 {
		cov = m.cov[have-1]
		if m.weighted {
			wcov = m.wcov[have-1]
		}
	}
	for len(m.order) < k {
		var best graph.NodeID // k ≤ n: an unchosen node exists, and beats the initial bound
		if m.weighted {
			bestGain := math.Inf(-1)
			for v, gain := range m.gain {
				if gain > bestGain {
					best, bestGain = graph.NodeID(v), gain
				}
			}
		} else {
			bestCount := uint32(0)
			for v, count := range c.counts {
				if count > bestCount {
					best, bestCount = graph.NodeID(v), count
				}
			}
		}
		var block [coverBlock]int32
		for row := c.SetsContaining(best); len(row) > 0; {
			size := 0
			for len(row) > 0 && size < coverBlock {
				sid := row[0]
				row = row[1:]
				if !m.covered.Has(sid) {
					m.covered.Set(sid)
					block[size] = sid
					size++
				}
			}
			cov += size
			wcov = c.uncover(block[:size], wcov)
		}
		// Every set containing best is covered now, so nothing updates its
		// gain again: retire it from the argmax.
		m.order, m.cov = append(m.order, best), append(m.cov, cov)
		if m.weighted {
			m.gain[best], m.wcov = math.Inf(-1), append(m.wcov, wcov)
		} else {
			c.counts[best] = 0
		}
	}
}

// uncover takes the sets of block — at most coverBlock ids, just covered —
// off the marginal gains of their members, in block order, and returns
// wcov plus their weight (wcov itself when plain).
func (c *Collection) uncover(block []int32, wcov float64) float64 {
	var start, end [coverBlock]uint32
	ids, off := c.ids, c.off
	for i, sid := range block {
		start[i], end[i] = off[sid], off[sid+1]
	}
	if !c.memo.weighted {
		counts := c.counts
		for i := range block {
			for _, u := range ids[start[i]:end[i]] {
				counts[u]--
			}
		}
		return wcov
	}
	var weight [coverBlock]float64
	for i, sid := range block {
		weight[i] = c.weights[sid]
	}
	gain := c.memo.gain
	for i, w := range weight[:len(block)] {
		wcov += w
		for _, u := range ids[start[i]:end[i]] {
			gain[u] -= w
		}
	}
	return wcov
}

// Greedy returns the first k seeds of the greedy order over the current
// sets and the number of sets they cover. Unweighted kinds maximize
// covered sets; weighted (OC) kinds the summed root-opinion weight of
// covered sets. The order is memoized: a repeat or a smaller k is a slice
// of it, a larger k extends it, and changing the sets drops it. The seeds
// are a read-only view, valid until the sets change or MaxCoverage runs;
// they are distinct, and fewer than k only when k exceeds the node count.
func (c *Collection) Greedy(k int) (seeds []graph.NodeID, covered int) {
	if m := &c.memo; !m.started || m.weighted != c.kind.Weighted() {
		c.startGreedy(c.kind.Weighted())
	}
	c.extendGreedy(k)
	if k = min(k, len(c.memo.order)); k <= 0 {
		return nil, 0
	}
	return c.memo.order[:k:k], c.memo.cov[k-1]
}

// GreedyLen returns how far the greedy order is memoized.
func (c *Collection) GreedyLen() int { return len(c.memo.order) }

// GreedyOpinion returns, for the k-prefix of a weighted collection's
// greedy order (1 ≤ k ≤ node count), the weight it covers — the objective
// the greedy maximized, summed scalar walk weights — and the depth-exact
// Def. 6 opinion-spread estimate for those seeds: the number
// EstimateOpinionSpread reports, memoized per k.
func (c *Collection) GreedyOpinion(k int) (weight, estimate float64) {
	seeds, _ := c.Greedy(k)
	m := &c.memo
	estimate, ok := m.opinion[k]
	if !ok {
		estimate = c.EstimateOpinionSpread(seeds)
		if m.opinion == nil {
			m.opinion = make(map[int]float64)
		}
		m.opinion[k] = estimate
	}
	return m.wcov[k-1], estimate
}

// MaxCoverage greedily picks k nodes maximizing the number of covered RR
// sets, whatever the kind, and returns them with the covered fraction:
// the node-selection phase shared by TIM+ and IMM. It always recomputes,
// and leaves its order behind as the memo (which a weighted collection's
// next Greedy replaces with the weighted one).
func (c *Collection) MaxCoverage(k int) ([]graph.NodeID, float64) {
	c.startGreedy(false)
	c.extendGreedy(k)
	frac := 0.0
	if n := len(c.memo.cov); n > 0 && c.Len() > 0 {
		frac = float64(c.memo.cov[n-1]) / float64(c.Len())
	}
	return slices.Clone(c.memo.order), frac
}

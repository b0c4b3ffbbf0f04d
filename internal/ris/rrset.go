// Package ris implements the reverse-influence-sampling family the paper
// benchmarks against: TIM+ (Tang, Xiao, Shi — SIGMOD'14) and its
// successor IMM (Tang, Shi, Xiao — SIGMOD'15). Both estimate influence by
// sampling Reverse-Reachable (RR) sets — the set of nodes that can reach
// a uniformly random root in a random live-edge world — and reduce seed
// selection to greedy maximum coverage over the sampled sets.
//
// The family's characteristic cost is memory (the paper's Figures 6i and
// 6j, Table 3): every sampled set is kept, plus a full node→sets inverted
// index. The reference implementations hold both as vectors of vectors;
// here the sets live back to back in one flat arena and the index is a
// second flat array built by counting sort, so a collection costs 8
// bytes per set member plus 4 per set: no per-set or per-row headers or
// allocations, and at most 1/32 of growth headroom.
//
// What the family derives from a sample lives here, once: the greedy
// max-coverage order (Collection.Greedy; MaxCoverage is its one-shot
// entry) and IMM's sampling phase (Collection.SampleIMM). Cold TIM+/IMM
// and the sketch index are callers. Generation and Resample share one
// sampling loop, split over workers by par.For: set i is a function of
// (graph, kind, seed, i) alone, whichever worker draws it.
package ris

import (
	"context"
	"math"
	"slices"
	"strings"

	"github.com/holisticim/holisticim/internal/graph"
	"github.com/holisticim/holisticim/internal/rng"
)

// ModelKind selects the diffusion model whose RR-set semantics to sample.
type ModelKind int

const (
	// ModelIC samples reverse IC/WC worlds (each in-edge live with
	// probability p).
	ModelIC ModelKind = iota
	// ModelLT samples reverse LT live-edge walks (at most one live in-edge
	// per node, chosen with probability w).
	ModelLT
	// ModelOC samples the same reverse LT live-edge walks as ModelLT —
	// the OC baseline activates by LT — but additionally records each
	// set's root-opinion weight (see OCRootWeight), turning the
	// collection into a weighted-RIS estimator of OC opinion spread in
	// the spirit of Gionis et al., "Opinion Maximization in Social
	// Networks". The sampled sets are bit-identical to ModelLT's: the
	// weight is derived from the walk, never drawn from the stream.
	ModelOC
)

func (m ModelKind) String() string { return strings.ToUpper(m.Semantics()) }

// Semantics returns the lower-case name of the kind — "ic", "lt" or "oc"
// — the one vocabulary sketch ids, routing keys and the facade's
// ModelKind.RRSemantics spell RR-set semantics in.
func (m ModelKind) Semantics() string {
	switch m {
	case ModelLT:
		return "lt"
	case ModelOC:
		return "oc"
	default:
		return "ic"
	}
}

// Weighted reports whether the kind records per-set root-opinion weights.
func (m ModelKind) Weighted() bool { return m == ModelOC }

// Collection holds sampled RR sets and their inverted index, both in
// CSR form, and owns the greedy order over them: Greedy memoizes it, and
// whatever changes sets — appending generated chunks, Install, a
// non-empty ReplaceSets — drops it, so no caller invalidates anything. It
// is not safe for concurrent use — even the read-only queries share
// scratch marks; the sketch index serializes access.
type Collection struct {
	g    *graph.Graph
	kind ModelKind

	// The arena: set i is ids[off[i]:off[i+1]], so len(off) == Len()+1.
	// A loaded arena is sized exactly; one that had to grow carries at
	// most 1/32 of headroom (see extend).
	ids []graph.NodeID
	off []uint32
	// The inverted index: inv[invOff[v]:invOff[v+1]] are the ids of the
	// sets containing v, ascending — a function of the sets alone, so the
	// same sets index identically however they got there. index maintains
	// it; inv has the arena's capacity.
	inv     []int32
	invOff  []uint32
	weights []float64 // per-set root-opinion weight (ModelOC only)
	smp     *Sampler  // reused by sequential generation

	// Scratch reused across calls, never part of the sample: a per-node
	// counter (index cursors while sets change, the plain greedy's
	// marginals while they do not) and set/node marks.
	counts    []uint32
	setMarks  Bitset
	nodeMarks Bitset

	memo greedyMemo // the greedy order so far: see Greedy
}

// NewCollection returns an empty RR-set collection over g.
func NewCollection(g *graph.Graph, kind ModelKind) *Collection {
	return &Collection{
		g:      g,
		kind:   kind,
		off:    make([]uint32, 1),
		invOff: make([]uint32, g.NumNodes()+1),
		counts: make([]uint32, g.NumNodes()),
		smp:    NewSampler(g, kind),
	}
}

// Bitset is a fixed-size set of small non-negative integers: the
// coverage marks of greedy selection and coverage queries, one bit per
// RR set (or node) instead of a per-call []bool or map.
type Bitset []uint64

// Reset returns an all-clear set of n bits, reusing b's storage when it
// is large enough.
func (b Bitset) Reset(n int) Bitset {
	words := (n + 63) >> 6
	if cap(b) < words {
		return make(Bitset, words)
	}
	b = b[:words]
	clear(b)
	return b
}

// Has reports whether i is in the set.
func (b Bitset) Has(i int32) bool { return b[i>>6]&(1<<(uint32(i)&63)) != 0 }

// Set adds i to the set.
func (b Bitset) Set(i int32) { b[i>>6] |= 1 << (uint32(i) & 63) }

// Unset removes i from the set.
func (b Bitset) Unset(i int32) { b[i>>6] &^= 1 << (uint32(i) & 63) }

// Len returns the number of sampled sets.
func (c *Collection) Len() int { return len(c.off) - 1 }

// Width returns the cumulative width Σ_R w(R) against the current graph,
// where w(R) counts the edges of G pointing into R — the quantity TIM+'s
// KPT estimator is built on. It factors through the inverted index —
// Σ_R Σ_{v∈R} indeg(v) = Σ_v |sets∋v|·indeg(v) — so the pass is O(n).
func (c *Collection) Width() int64 {
	var w int64
	for v := graph.NodeID(0); v < c.g.NumNodes(); v++ {
		w += int64(c.invOff[v+1]-c.invOff[v]) * int64(c.g.InDegree(v))
	}
	return w
}

// Set returns the i-th RR set (read-only): a window of the arena.
func (c *Collection) Set(i int) []graph.NodeID {
	lo, hi := c.off[i], c.off[i+1]
	return c.ids[lo:hi:hi]
}

// Sets materializes one slice header per set over the arena (read-only),
// 24 bytes per set per call: for diagnostics and tests; hot paths use Set.
func (c *Collection) Sets() [][]graph.NodeID {
	sets := make([][]graph.NodeID, c.Len())
	for i := range sets {
		sets[i] = c.Set(i)
	}
	return sets
}

// Members exposes the arena itself (read-only): the members of every
// set, back to back in set order — what a snapshot's payload holds.
func (c *Collection) Members() []graph.NodeID { return c.ids }

// Offsets exposes the arena's set boundaries (read-only): set i is
// Members()[Offsets()[i]:Offsets()[i+1]], so there are Len()+1 of them.
func (c *Collection) Offsets() []uint32 { return c.off }

// SetsContaining returns the ids of the sets containing v, ascending —
// one row of the inverted index (read-only). Selection layers maintaining
// their own coverage counters (the sketch index) are built on this
// accessor.
func (c *Collection) SetsContaining(v graph.NodeID) []int32 {
	lo, hi := c.invOff[v], c.invOff[v+1]
	return c.inv[lo:hi:hi]
}

// Weighted reports whether the collection records per-set root-opinion
// weights (ModelOC).
func (c *Collection) Weighted() bool { return c.kind.Weighted() }

// Rebind points the collection (and its sequential sampler) at a new
// graph instance. The caller guarantees identical content — the sketch
// index does so by fingerprint before rebinding — otherwise every
// sampled set would silently describe the wrong graph. Rebinding exists
// so a replaced-but-identical graph does not stay pinned in memory for
// the collection's lifetime.
func (c *Collection) Rebind(g *graph.Graph) {
	c.g = g
	c.smp.g = g
}

// Weights exposes the per-set root-opinion weights (read-only), aligned
// with the set ids. Nil for unweighted kinds.
func (c *Collection) Weights() []float64 { return c.weights }

// Install replaces the contents with an externally produced arena (one
// loaded from a sketch snapshot) and indexes it exactly as generation
// would. The collection takes ownership: set i is ids[off[i]:off[i+1]]
// with off[0] == 0. The caller guarantees every node id is in range and
// every set non-empty and duplicate-free. Weighted kinds take their
// weights column along, one stored weight per set — the persisted weight
// is authoritative, so a load→save round trip is byte-identical even
// across releases that refine the weight function; a column for an
// unweighted kind, or none for a weighted one, panics.
func (c *Collection) Install(ids []graph.NodeID, off []uint32, weights []float64) {
	if (weights != nil) != c.kind.Weighted() {
		panic("ris: Install needs a weights column exactly for weighted collections")
	}
	c.ids, c.off, c.weights = ids, off, weights
	clear(c.invOff)
	c.index(0)
}

// MemoryFootprint returns the bytes held by the arena, the inverted
// index, the weight column, the scratch and the memoized greedy order —
// exactly, in O(1): every one of them is a flat array.
func (c *Collection) MemoryFootprint() int64 {
	m := &c.memo
	words4 := cap(c.ids) + cap(c.off) + cap(c.inv) + cap(c.invOff) + cap(c.counts) + cap(c.smp.scratch) + cap(m.order)
	words8 := cap(c.weights) + cap(c.setMarks) + cap(c.nodeMarks) + cap(m.covered) + cap(m.gain) + cap(m.cov) + cap(m.wcov)
	return 4*int64(words4) + 8*int64(words8)
}

// extend returns s resized to n elements, contents kept, reallocating
// only when the capacity falls short — and then with 1/32 of headroom:
// growth comes in runs of small steps (a sketch's lazy extension settles
// on its θ through top-ups of a few sets; a repair swaps sets for ones a
// little larger), each of which would otherwise reallocate the sample.
func extend[T any](s []T, n int) []T {
	if n <= cap(s) {
		return s[:n]
	}
	grown := make([]T, n, n+n/32)
	copy(grown, s)
	return grown
}

// index brings the inverted index up to date with sets [first, Len()),
// which must be newer than every set indexed so far, by counting sort:
// count the new sets' members per node, move each node's existing row
// right to its new start — last node first, so rows slide within one
// array without overwriting each other — and scatter the new set ids, in
// ascending order, behind them. Rows therefore stay sorted, and the cost
// beyond one sequential pass over the old index follows the new sets.
// From an empty index (Install) this is the plain counting sort.
func (c *Collection) index(first int) {
	c.memo.drop() // the sets changed, and the counters are about to be cursors
	ids, invOff, cursor := c.ids, c.invOff, c.counts
	clear(cursor)
	for _, v := range ids[c.off[first]:] {
		cursor[v]++
	}
	inv := c.inv
	if cap(inv) < len(ids) {
		inv = make([]int32, len(ids), cap(ids))
	}
	inv = inv[:len(ids)]
	hi := invOff[len(cursor)]      // end of the old row being moved
	shift := uint32(len(ids)) - hi // new members in this row and all before it
	for v := len(cursor) - 1; v >= 0; v-- {
		lo := invOff[v]
		invOff[v+1] = hi + shift
		shift -= cursor[v]
		copy(inv[lo+shift:], c.inv[lo:hi])
		cursor[v] = hi + shift // where v's next set id goes
		hi = lo
	}
	c.inv = inv
	for sid := first; sid < c.Len(); sid++ {
		for _, v := range c.Set(sid) {
			inv[cursor[v]] = int32(sid)
			cursor[v]++
		}
	}
}

// Generate samples `count` additional RR sets, each rooted at a uniformly
// random node, using streams split from (seed, startIndex+i) so the
// collection contents are deterministic and extendable.
func (c *Collection) Generate(count int, seed uint64) {
	_ = c.GenerateCtx(context.Background(), count, seed)
}

// GenerateCtx is Generate under a context — GenerateParallelCtx, which the
// θ-sampling loops of TIM+/IMM run through, on one worker: a cancelled or
// deadline-expired call stops sampling within parallelChunk sets. The
// chunks completed before the stop remain in the collection (the streams
// are deterministic, so a later extension is unaffected).
func (c *Collection) GenerateCtx(ctx context.Context, count int, seed uint64) error {
	return c.GenerateParallelCtx(ctx, count, seed, 1)
}

// Sampler produces single RR sets from (seed, setIndex) pairs. Each
// Sampler owns its visited-stamp scratch and RNG, so one Sampler per
// goroutine is the unit of parallel generation; set contents depend only
// on (graph, kind, seed, setIndex), never on which Sampler — or how
// many — produced them.
//
// For IC a sampler walks the graph's in-CSR whole. On a graph that holds p
// per head (graph.ProbColumn) — weighted cascade, a uniform p — it reads
// each visited node's in-row p with one load; on one holding p per arc it
// gathers each arc's p from the out-ordered column, a random load per arc.
// The LT walk likewise reads a row's one weight with one load, or gathers
// per arc, and stops at the chosen arc.
type Sampler struct {
	g       *graph.Graph
	kind    ModelKind
	scratch []uint32 // visited stamps
	epoch   uint32
	rng     *rng.RNG
}

// NewSampler returns a sampler of RR sets over g.
func NewSampler(g *graph.Graph, kind ModelKind) *Sampler {
	return &Sampler{
		g:       g,
		kind:    kind,
		scratch: make([]uint32, g.NumNodes()),
		rng:     rng.New(0),
	}
}

// Sample builds the setIndex-th RR set of the stream keyed by seed in a
// slice of its own.
func (s *Sampler) Sample(seed, setIndex uint64) []graph.NodeID {
	return s.SampleInto(seed, setIndex, make([]graph.NodeID, 0, 4))
}

// SampleInto appends the setIndex-th RR set of the stream keyed by seed
// to buf and returns the extended slice: the root is drawn from the split
// stream (seed, setIndex), then a reverse live-edge traversal is run with
// the same stream. Batch generation samples whole chunks of sets into one
// buffer this way, with no allocation per set.
//
// The IC traversal copies the stream into a local for the whole set
// (rng.RNG.Next), so its state stays in registers rather than going
// through the sampler's RNG at every draw, and stores it back at the end;
// the draws are the ones Float64 would make, compared the same way. The p
// it tests is the row's per-head entry, one load per visited node, with the
// row's arcs scanned by drawUniformRow — or, on a graph holding p per arc,
// each arc's own — and either way it is the value the arc holds: the set is
// the same in either form.
func (s *Sampler) SampleInto(seed, setIndex uint64, buf []graph.NodeID) []graph.NodeID {
	s.rng.Reseed(rng.SplitSeed(seed, setIndex))
	root := graph.NodeID(s.rng.Int31n(s.g.NumNodes()))
	s.epoch++
	if s.epoch == 0 {
		clear(s.scratch)
		s.epoch = 1
	}
	g, r := s.g, s.rng
	s.scratch[root] = s.epoch
	head := len(buf)
	buf = append(buf, root)
	if s.kind == ModelIC {
		// Reverse BFS. Discovery order is the set, so the output doubles
		// as the queue. The stream, the stamps and the epoch live in
		// locals for the whole set.
		start, from, edge := g.InCSR()
		prob, perHead := g.ProbColumn()
		scratch, epoch, st := s.scratch, s.epoch, *r
		for ; head < len(buf); head++ {
			x := buf[head]
			us := from[start[x]:start[x+1]]
			if perHead { // one p throughout the row
				st, buf = drawUniformRow(us, prob[x], scratch, epoch, st, buf)
				continue
			}
			es := edge[start[x]:start[x+1]] // per arc: gather
			es = es[:len(us)]
			for j, u := range us {
				if scratch[u] == epoch {
					continue
				}
				var v uint64
				v, st = st.Next()
				if float64(v>>11)/(1<<53) < prob[es[j]] { // rng.Float64's draw
					scratch[u] = epoch
					buf = append(buf, u)
				}
			}
		}
		*r = st
		return buf
	}
	// LT: random walk choosing at most one live in-edge per node.
	start, from, edge := g.InCSR()
	wt, perHead := g.WeightColumn()
	x := root
	for {
		froms := from[start[x]:start[x+1]]
		if len(froms) == 0 {
			return buf
		}
		draw := r.Float64()
		acc := 0.0
		chosen := graph.NodeID(-1)
		if perHead { // one weight throughout the row, summed arc by arc as per arc
			w := wt[x]
			for _, u := range froms {
				acc += w
				if draw < acc {
					chosen = u
					break
				}
			}
		} else {
			idxs := edge[start[x]:start[x+1]]
			idxs = idxs[:len(froms)]
			for j, u := range froms {
				acc += wt[idxs[j]]
				if draw < acc {
					chosen = u
					break
				}
			}
		}
		if chosen < 0 || s.scratch[chosen] == s.epoch {
			return buf
		}
		s.scratch[chosen] = s.epoch
		buf = append(buf, chosen)
		x = chosen
	}
}

// drawUniformRow is SampleInto's IC loop over one in-row whose arcs all
// carry p: a draw per arc into a node not yet in the set, which joins it
// when the draw falls below p. It returns the stream and the set as they
// stand after the row. It is kept out of line so that its loop has the
// registers to itself: inlined into the breadth-first loop, it shared them
// with the outer loop's slices, and the compiler kept three of the
// stream's four words on the stack across every draw. The mixed rows' loop
// stays in SampleInto: taking them here too, behind a per-arc branch,
// cost the uniform rows most of their gain.
//
//go:noinline
func drawUniformRow(us []graph.NodeID, p float64, scratch []uint32, epoch uint32, st rng.RNG, buf []graph.NodeID) (rng.RNG, []graph.NodeID) {
	for _, u := range us {
		if scratch[u] == epoch {
			continue
		}
		var v uint64
		v, st = st.Next()
		if float64(v>>11)/(1<<53) < p { // rng.Float64's draw
			scratch[u] = epoch
			buf = append(buf, u)
		}
	}
	return st, buf
}

// edit is one change to a flat array: at pos, del elements go and ins
// take their place.
type edit struct {
	pos, del uint32
	ins      []int32
}

// splice applies edits — ascending and non-overlapping in pos — to data
// in place: the stretches between edits move as blocks, those going left
// first, in ascending order, then those going right in descending order,
// so no block overwrites one that has yet to move, and the inserts fill
// the gaps. Only growth beyond the capacity reallocates (see extend). The
// cost is the edits plus a memmove, never a walk over the elements.
func splice(data []int32, edits []edit) []int32 {
	// shift[k] is how far the stretch before edits[k] moves (the tail
	// after the last edit for k == len(edits)).
	shift := make([]int, len(edits)+1)
	for k, e := range edits {
		shift[k+1] = shift[k] + len(e.ins) - int(e.del)
	}
	total := len(data) + shift[len(edits)]
	if total > math.MaxUint32 {
		panic("ris: RR arena exceeds 2^32 members")
	}
	// A grown array starts as a copy, so stretches that stay put are in
	// place either way.
	dst := extend(data, max(total, len(data)))
	move := func(k int) {
		lo, hi := edits[k-1].pos+edits[k-1].del, uint32(len(data))
		if k < len(edits) {
			hi = edits[k].pos
		}
		copy(dst[int(lo)+shift[k]:], data[lo:hi])
	}
	for k := 1; k <= len(edits); k++ {
		if shift[k] < 0 {
			move(k)
		}
	}
	for k := len(edits); k > 0; k-- {
		if shift[k] > 0 {
			move(k)
		}
	}
	for k, e := range edits {
		copy(dst[int(e.pos)+shift[k]:], e.ins)
	}
	return dst[:total]
}

// ReplaceSets swaps the contents of the given set ids, exactly as if the
// new contents had been generated at those indices — root-opinion
// weights (for weighted kinds) and the inverted index included. ids must
// be sorted ascending and duplicate-free; sets[i] is the new contents of
// ids[i]. This is the primitive incremental sketch repair is built on:
// after a graph mutation, only the sets whose walks touched a dirty node
// are replaced (resampled deterministically from their (seed, id)
// streams), and because the layout is canonical the result is
// byte-identical to a collection generated from scratch over the current
// graph.
//
// Arena and index are both spliced in place: each replaced set is one
// edit of the arena, and each (node, set) pair the swap really adds or
// drops one entry inserted into or deleted from that node's index row. A
// resampled walk mostly retraces the old one, so the pairs present on
// both sides — which leave the row as it is — are dropped up front: mark
// the old members, unmark on sight in the new set; what stays marked is a
// deletion, what was never marked an insertion. The survivors arrive in
// ascending set id, so a stable counting sort on node puts them in row
// order, and the cost follows the changed pairs, not the sample.
func (c *Collection) ReplaceSets(ids []int32, sets [][]graph.NodeID) {
	if len(ids) != len(sets) {
		panic("ris: ReplaceSets ids/sets length mismatch")
	}
	if len(ids) == 0 {
		return
	}
	c.memo.drop()
	n := int(c.g.NumNodes())
	c.nodeMarks = c.nodeMarks.Reset(n)
	old := c.nodeMarks // all clear again after every set
	arena := make([]edit, len(ids))
	// One key per changed pair: node<<33 | set id<<1 | insert?.
	var keys []uint64
	perNode := c.counts
	clear(perNode)
	for r, id := range ids {
		was := c.Set(int(id))
		arena[r] = edit{pos: c.off[id], del: uint32(len(was)), ins: sets[r]}
		for _, v := range was {
			old.Set(v)
		}
		for _, v := range sets[r] {
			if old.Has(v) {
				old.Unset(v)
				continue
			}
			keys = append(keys, uint64(v)<<33|uint64(id)<<1|1)
			perNode[v]++
		}
		for _, v := range was {
			if old.Has(v) {
				old.Unset(v)
				keys = append(keys, uint64(v)<<33|uint64(id)<<1)
				perNode[v]++
			}
		}
		if c.kind.Weighted() {
			c.weights[id] = OCRootWeight(c.g, sets[r])
		}
	}
	// Counting sort by node, stable: perNode turns into each node's cursor.
	sum := uint32(0)
	for v, k := range perNode {
		perNode[v] = sum
		sum += k
	}
	sorted := make([]uint64, len(keys))
	for _, key := range keys {
		v := key >> 33
		sorted[perNode[v]] = key
		perNode[v]++
	}

	index := make([]edit, len(sorted))
	inserted := make([]int32, len(sorted))
	grow := c.counts // per-node change in row length, modulo 2^32
	clear(grow)
	for k, key := range sorted {
		v, id := graph.NodeID(key>>33), int32(key>>1)
		at, _ := slices.BinarySearch(c.SetsContaining(v), id)
		index[k].pos = c.invOff[v] + uint32(at)
		if key&1 == 0 {
			index[k].del = 1
			grow[v]--
			continue
		}
		inserted[k] = id
		index[k].ins = inserted[k : k+1]
		grow[v]++
	}

	c.ids = splice(c.ids, arena)
	delta, r := 0, 0
	for i := int(ids[0]) + 1; i < len(c.off); i++ {
		for ; r < len(ids) && int(ids[r]) < i; r++ {
			delta += len(sets[r]) - int(arena[r].del)
		}
		c.off[i] = uint32(int(c.off[i]) + delta)
	}
	c.inv = splice(c.inv, index)
	sum = 0
	for v, g := range grow {
		sum += g
		c.invOff[v+1] += sum
	}
}

// OCRootWeight returns the root-opinion weight of a reverse LT walk
// under OC semantics: the root's expected final opinion assuming
// activation reaches it along the sampled live-edge chain. With the walk
// u_0 (root) ← u_1 ← … ← u_L and the seed assumed at the chain's end
// (OC seeds keep their personal opinion; every relayed node averages its
// own opinion with its activator's, Sec. 2.1 of the paper's OC
// characterization):
//
//	w(R) = Σ_{i<L} o(u_i)/2^{i+1} + o(u_L)/2^L.
//
// The scalar is the greedy's coverage objective (one weight per set
// keeps the incremental counters O(1) per update) and what snapshots
// persist; a seed hitting the chain at depth j < L changes the true
// value by at most 2^{1-j}, so it is a good surrogate across hit
// positions. Estimation over a FIXED seed set does not pay even that:
// OpinionCoverage re-derives the depth-exact value by truncating the
// walk at the shallowest seed. A one-node walk (no live in-edge) weighs
// o(root): such a set is only ever covered by the root itself being a
// seed, and estimators exclude root-seeded sets anyway. |w| ≤ 1 always,
// since opinions live in [-1,1] and the coefficients sum to 1.
func OCRootWeight(g *graph.Graph, walk []graph.NodeID) float64 {
	last := len(walk) - 1
	w := g.Opinion(walk[last])
	for i := last - 1; i >= 0; i-- {
		w = (g.Opinion(walk[i]) + w) / 2
	}
	return w
}

// FractionCoveredBy returns the fraction of sets hit by the given seed
// set — used by TIM+'s KPT refinement step. It walks the seeds' index
// rows, so the cost follows the sets the seeds appear in, not θ.
// Duplicate and out-of-range seeds count for nothing.
func (c *Collection) FractionCoveredBy(seeds []graph.NodeID) float64 {
	if c.Len() == 0 {
		return 0
	}
	c.setMarks = c.setMarks.Reset(c.Len())
	hit := 0
	for _, s := range seeds {
		if s < 0 || s >= c.g.NumNodes() {
			continue
		}
		for _, sid := range c.SetsContaining(s) {
			if !c.setMarks.Has(sid) {
				c.setMarks.Set(sid)
				hit++
			}
		}
	}
	return float64(hit) / float64(c.Len())
}

// EstimateSpread returns the standard RIS estimator n·F(S) of σ(S), where
// F is the covered fraction. Unbiased for any fixed S.
func (c *Collection) EstimateSpread(seeds []graph.NodeID) float64 {
	return c.FractionCoveredBy(seeds) * float64(c.g.NumNodes())
}

// OpinionCoverage sums, over the RR walks hit by the seed set whose root
// is NOT itself a seed, the positive and negative parts of the root's
// final opinion under the live-edge chain, along with the total
// covered-set count (roots in S included — the plain coverage number).
//
// Unlike the per-set scalar weight the greedy optimizes — which fixes
// the activator chain at the full walk — a FIXED seed set lets the
// estimator be depth-exact: activation reaches the root from the
// shallowest seed on the walk (every deeper node is irrelevant, since
// each node has exactly one live in-edge and seeds keep their personal
// opinion), so the root's opinion is OCRootWeight over the walk prefix
// truncated at that seed. This is what makes the estimator track the
// Monte-Carlo OC spread instead of merely correlating with it.
//
// Root-seeded walks are excluded from the opinion sums because Def. 6
// counts opinions of activated NON-seed nodes only: a root in S
// contributes its activation (spread) but not a relayed opinion.
// Weighted kinds only.
//
// The walk runs in blocks of up to coverBlock newly covered sets, each in
// passes: collect the block's ids from the seeds' index rows (marking
// them hit), load their offsets, load their roots, then truncate and
// weigh each walk. Reached one at a time, a set is a chain of dependent
// cache misses — its offset, its root, its walk — and the depth loop's
// unpredictable exit keeps the core from starting the next chain early;
// in passes the misses of a whole block are independent and overlap.
// Sets are still weighed in the order the rows reach them, so every sum
// adds the same terms in the same order, whatever the block size.
func (c *Collection) OpinionCoverage(seeds []graph.NodeID) (covered int, pos, neg float64) {
	if !c.kind.Weighted() {
		panic("ris: OpinionCoverage on an unweighted collection")
	}
	n := c.g.NumNodes()
	c.nodeMarks = c.nodeMarks.Reset(int(n))
	c.setMarks = c.setMarks.Reset(c.Len())
	inSeeds, hit := c.nodeMarks, c.setMarks
	for _, s := range seeds {
		if s >= 0 && s < n {
			inSeeds.Set(s)
		}
	}
	var block [coverBlock]int32
	size := 0
	for _, s := range seeds {
		if s < 0 || s >= n {
			continue
		}
		for _, sid := range c.SetsContaining(s) {
			if hit.Has(sid) {
				continue
			}
			hit.Set(sid)
			block[size] = sid
			if size++; size == coverBlock {
				pos, neg = c.weighWalks(block[:], inSeeds, pos, neg)
				covered += size
				size = 0
			}
		}
	}
	pos, neg = c.weighWalks(block[:size], inSeeds, pos, neg)
	return covered + size, pos, neg
}

// coverBlock is how many newly covered sets OpinionCoverage and the
// greedy's per-pick update gather before walking them (see
// OpinionCoverage). A block must hold enough sets for their loads to
// overlap, and its arrays — ids, offsets, roots or weights, at most
// 4 KB — must stay small enough to live on the stack and in L1.
const coverBlock = 256

// weighWalks adds the truncated root opinions of the walks of block — at
// most coverBlock set ids — to pos and neg, in block order: the last three
// passes of OpinionCoverage.
func (c *Collection) weighWalks(block []int32, inSeeds Bitset, pos, neg float64) (float64, float64) {
	var start [coverBlock]uint32
	var root [coverBlock]graph.NodeID
	ids, off := c.ids, c.off
	for i, sid := range block {
		start[i] = off[sid]
	}
	for i, at := range start[:len(block)] {
		root[i] = ids[at] // walk roots are stored first
	}
	for i, r := range root[:len(block)] {
		if inSeeds.Has(r) {
			continue
		}
		walk := ids[start[i]:]
		depth := 1
		for !inSeeds.Has(walk[depth]) { // a seed exists: the walk is covered
			depth++
		}
		if w := OCRootWeight(c.g, walk[:depth+1]); w > 0 {
			pos += w
		} else {
			neg -= w
		}
	}
	return pos, neg
}

// EstimateOpinionSpread returns the weighted-RIS estimator of the OC
// opinion spread σ_o(S) (Def. 6): n/θ · Σ over covered, non-root-seeded
// sets of the root-opinion weight.
func (c *Collection) EstimateOpinionSpread(seeds []graph.NodeID) float64 {
	if c.Len() == 0 {
		return 0
	}
	_, pos, neg := c.OpinionCoverage(seeds)
	return (pos - neg) * float64(c.g.NumNodes()) / float64(c.Len())
}

// logNChooseK computes ln C(n,k) via lgamma.
func logNChooseK(n, k float64) float64 {
	a, _ := math.Lgamma(n + 1)
	b, _ := math.Lgamma(k + 1)
	cc, _ := math.Lgamma(n - k + 1)
	return a - b - cc
}

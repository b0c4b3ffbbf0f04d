package ris

import (
	"encoding/binary"
	"math"
	"slices"
	"testing"

	"github.com/holisticim/holisticim/internal/graph"
	"github.com/holisticim/holisticim/internal/opinion"
	"github.com/holisticim/holisticim/internal/rng"
)

// refOpinionCoverage is OpinionCoverage as it was before the blocked
// passes: one covered set at a time, walked as soon as its row reaches
// it. The blocked loop must return the same bits.
func refOpinionCoverage(c *Collection, seeds []graph.NodeID) (covered int, pos, neg float64) {
	n := c.g.NumNodes()
	inSeeds, hit := Bitset(nil).Reset(int(n)), Bitset(nil).Reset(c.Len())
	for _, s := range seeds {
		if s >= 0 && s < n {
			inSeeds.Set(s)
		}
	}
	for _, s := range seeds {
		if s < 0 || s >= n {
			continue
		}
		for _, sid := range c.SetsContaining(s) {
			if hit.Has(sid) {
				continue
			}
			hit.Set(sid)
			covered++
			walk := c.Set(int(sid))
			if inSeeds.Has(walk[0]) {
				continue
			}
			depth := 1
			for !inSeeds.Has(walk[depth]) {
				depth++
			}
			if w := OCRootWeight(c.g, walk[:depth+1]); w > 0 {
				pos += w
			} else {
				neg -= w
			}
		}
	}
	return covered, pos, neg
}

// refGreedy is the greedy order as it was derived before the blocked
// per-pick update — gains from the inverted index, then per pick one
// covered set at a time — on arrays of its own, so the collection's memo
// is left alone.
func refGreedy(c *Collection, weighted bool, k int) (order []graph.NodeID, cov []int, wcov []float64) {
	n := int(c.g.NumNodes())
	counts, gain := make([]uint32, n), make([]float64, n)
	covered := Bitset(nil).Reset(c.Len())
	for v := range counts {
		row := c.SetsContaining(graph.NodeID(v))
		counts[v] = uint32(len(row)) + 1
		for _, sid := range row {
			if weighted {
				gain[v] += c.weights[sid]
			}
		}
	}
	total, wtotal := 0, 0.0
	for len(order) < min(k, n) {
		var best graph.NodeID
		if weighted {
			bestGain := math.Inf(-1)
			for v, g := range gain {
				if g > bestGain {
					best, bestGain = graph.NodeID(v), g
				}
			}
		} else {
			bestCount := uint32(0)
			for v, count := range counts {
				if count > bestCount {
					best, bestCount = graph.NodeID(v), count
				}
			}
		}
		for _, sid := range c.SetsContaining(best) {
			if covered.Has(sid) {
				continue
			}
			covered.Set(sid)
			total++
			if weighted {
				w := c.weights[sid]
				wtotal += w
				for _, u := range c.Set(int(sid)) {
					gain[u] -= w
				}
			} else {
				for _, u := range c.Set(int(sid)) {
					counts[u]--
				}
			}
		}
		order, cov = append(order, best), append(cov, total)
		if weighted {
			gain[best], wcov = math.Inf(-1), append(wcov, wtotal)
		} else {
			counts[best] = 0
		}
	}
	return order, cov, wcov
}

// coverCollections are the seeded samples the blocked loops are held to
// their references over: OC walks on a weighted-cascade BA graph and on
// an R-MAT, LT walks and IC sets on a BA graph at p = 0.1, and an OC
// sample after a ReplaceSets swapped a tenth of its sets.
func coverCollections(t testing.TB) map[string]*Collection {
	t.Helper()
	ba := func() *graph.Graph {
		g := graph.BarabasiAlbert(3000, 3, rng.New(11))
		opinion.AssignOpinions(g, opinion.Normal, 12)
		g.SetDefaultLTWeights()
		return g
	}
	wc := ba()
	wc.SetWeightedCascadeProb()
	p01 := ba()
	p01.SetUniformProb(0.1)
	rmat := graph.RMAT(4096, 40000, graph.DefaultRMAT, false, rng.New(13))
	opinion.AssignOpinions(rmat, opinion.Normal, 14)
	rmat.SetDefaultLTWeights()

	sample := func(g *graph.Graph, kind ModelKind, sets int, seed uint64) *Collection {
		c := NewCollection(g, kind)
		c.Generate(sets, seed)
		return c
	}
	replaced := sample(wc, ModelOC, 30000, 3)
	var ids []int32
	var sets [][]graph.NodeID
	smp := NewSampler(wc, ModelOC)
	for id := int32(0); int(id) < replaced.Len(); id += 10 {
		ids = append(ids, id)
		sets = append(sets, smp.Sample(99, uint64(id)))
	}
	replaced.ReplaceSets(ids, sets)
	return map[string]*Collection{
		"ba-wc-oc":      sample(wc, ModelOC, 30000, 1),
		"ba-p0.1-lt":    sample(p01, ModelLT, 30000, 2),
		"ba-p0.1-ic":    sample(p01, ModelIC, 10000, 4),
		"rmat-oc":       sample(rmat, ModelOC, 30000, 5),
		"ba-wc-oc-swap": replaced,
	}
}

// coverSeedSets returns seed sets of 1, 10 and 64 nodes over c: the
// node in most sets, random nodes with duplicates and out-of-range ids
// mixed in, walk roots, and the 64 nodes in most sets.
func coverSeedSets(c *Collection, seed uint64) [][]graph.NodeID {
	n := c.g.NumNodes()
	byRow := make([]graph.NodeID, n)
	for v := range byRow {
		byRow[v] = graph.NodeID(v)
	}
	slices.SortStableFunc(byRow, func(a, b graph.NodeID) int {
		return len(c.SetsContaining(b)) - len(c.SetsContaining(a))
	})
	r := rng.New(seed)
	random := func(size int) []graph.NodeID {
		s := make([]graph.NodeID, size)
		for i := range s {
			s[i] = graph.NodeID(r.Int31n(n))
		}
		return s
	}
	roots := func(size int) []graph.NodeID {
		s := make([]graph.NodeID, size)
		for i := range s {
			s[i] = c.Set(int(r.Int31n(int32(c.Len()))))[0]
		}
		return s
	}
	withJunk := append(random(6), -1, n, math.MaxInt32, math.MinInt32)
	withDups := random(10)
	withDups[3], withDups[7] = withDups[1], withDups[1]
	mixed := append(roots(5), random(5)...)
	top := slices.Clone(byRow[:64])
	top[10], top[40] = top[0], -5 // a duplicate and an out-of-range id
	return [][]graph.NodeID{
		nil,
		{byRow[0]},
		random(1),
		roots(1),
		withJunk,
		withDups,
		mixed,
		roots(10),
		top,
		append(random(62), byRow[0], byRow[0]),
		append(roots(60), -1, n, byRow[1], byRow[1]),
	}
}

// The blocked OpinionCoverage returns exactly what the one-set-at-a-time
// loop did: the same covered count and the same bits of pos and neg, over
// every seeded OC collection and every kind of seed set, including ones
// covering more than three blocks.
func TestOpinionCoverageMatchesReference(t *testing.T) {
	maxCovered := 0
	for name, c := range coverCollections(t) {
		if !c.Weighted() {
			continue
		}
		for i, seeds := range coverSeedSets(c, uint64(len(name))) {
			cov, pos, neg := c.OpinionCoverage(seeds)
			wantCov, wantPos, wantNeg := refOpinionCoverage(c, seeds)
			if cov != wantCov || pos != wantPos || neg != wantNeg {
				t.Fatalf("%s seed set %d: (%d, %v, %v), reference (%d, %v, %v)",
					name, i, cov, pos, neg, wantCov, wantPos, wantNeg)
			}
			maxCovered = max(maxCovered, cov)
		}
	}
	if maxCovered <= 3*coverBlock {
		t.Fatalf("no seed set covered more than three blocks (max %d)", maxCovered)
	}
}

// The blocked per-pick update leaves the greedy order and what each
// prefix covers — set count and weight — bit for bit where the
// one-set-at-a-time update left them: plain on every collection, weighted
// on the OC ones, in one go and resumed from a shorter prefix.
func TestGreedyMatchesReference(t *testing.T) {
	const k = 150
	for name, c := range coverCollections(t) {
		order, cov, _ := refGreedy(c, false, k)
		seeds, frac := c.MaxCoverage(k)
		if !slices.Equal(seeds, order) || !slices.Equal(c.memo.cov, cov) {
			t.Fatalf("%s: plain greedy differs from the reference", name)
		}
		if want := float64(cov[k-1]) / float64(c.Len()); frac != want {
			t.Fatalf("%s: covered fraction %v, reference %v", name, frac, want)
		}
		if cov[0] <= coverBlock {
			t.Fatalf("%s: the first pick covers %d sets, not more than a block", name, cov[0])
		}
		if !c.Weighted() {
			continue
		}
		order, cov, wcov := refGreedy(c, true, k)
		for _, resumeAt := range []int{k, 7} {
			c.memo.drop()
			c.Greedy(resumeAt)
			c.Greedy(k)
			m := &c.memo
			if !slices.Equal(m.order, order) || !slices.Equal(m.cov, cov) || !slices.Equal(m.wcov, wcov) {
				t.Fatalf("%s: weighted greedy (resumed at %d) differs from the reference", name, resumeAt)
			}
		}
	}
}

// After its first call, which sizes the marks, OpinionCoverage allocates
// nothing: the blocks live on the stack.
func TestOpinionCoverageAllocatesNothing(t *testing.T) {
	c := coverCollections(t)["ba-wc-oc"]
	seeds := coverSeedSets(c, 1)[8]
	c.OpinionCoverage(seeds)
	if allocs := testing.AllocsPerRun(20, func() { c.OpinionCoverage(seeds) }); allocs != 0 {
		t.Fatalf("OpinionCoverage allocated %v times per call", allocs)
	}
}

// FuzzOpinionCoverage holds the blocked OpinionCoverage to the reference
// loop over a fixed OC collection, for any seed list: the input is read
// as little-endian int32s, so seeds may repeat, be negative or lie past
// the last node.
func FuzzOpinionCoverage(f *testing.F) {
	g := graph.BarabasiAlbert(1000, 3, rng.New(21))
	opinion.AssignOpinions(g, opinion.Normal, 22)
	g.SetDefaultLTWeights()
	c := NewCollection(g, ModelOC)
	c.Generate(20000, 23)
	for _, seeds := range coverSeedSets(c, 24) {
		var data []byte
		for _, s := range seeds {
			data = binary.LittleEndian.AppendUint32(data, uint32(s))
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		seeds := make([]graph.NodeID, len(data)/4)
		for i := range seeds {
			seeds[i] = graph.NodeID(binary.LittleEndian.Uint32(data[4*i:]))
		}
		cov, pos, neg := c.OpinionCoverage(seeds)
		wantCov, wantPos, wantNeg := refOpinionCoverage(c, seeds)
		if cov != wantCov || pos != wantPos || neg != wantNeg {
			t.Fatalf("seeds %v: (%d, %v, %v), reference (%d, %v, %v)", seeds, cov, pos, neg, wantCov, wantPos, wantNeg)
		}
	})
}

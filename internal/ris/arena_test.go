package ris

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"github.com/holisticim/holisticim/internal/graph"
	"github.com/holisticim/holisticim/internal/im/imtest"
	"github.com/holisticim/holisticim/internal/opinion"
	"github.com/holisticim/holisticim/internal/rng"
)

// flatten lays sets back to back the way Install expects them.
func flatten(sets [][]graph.NodeID) (ids []graph.NodeID, off []uint32) {
	off = make([]uint32, 1, len(sets)+1)
	for _, s := range sets {
		ids = append(ids, s...)
		off = append(off, uint32(len(ids)))
	}
	return ids, off
}

// refModel is the layout the arena replaced — one slice per set, index
// rows found by scanning — kept as the reference the flat Collection is
// checked against.
type refModel struct {
	g       *graph.Graph
	smp     *Sampler
	sets    [][]graph.NodeID
	weights []float64
}

func (m *refModel) generate(count int, seed uint64) {
	for i := 0; i < count; i++ {
		set := m.smp.Sample(seed, uint64(len(m.sets)))
		m.sets = append(m.sets, set)
		m.weights = append(m.weights, OCRootWeight(m.g, set))
	}
}

func (m *refModel) replace(ids []int32, sets [][]graph.NodeID) {
	for i, id := range ids {
		m.sets[id] = sets[i]
		m.weights[id] = OCRootWeight(m.g, sets[i])
	}
}

func (m *refModel) row(v graph.NodeID) []int32 {
	var row []int32
	for sid, set := range m.sets {
		if slices.Contains(set, v) {
			row = append(row, int32(sid))
		}
	}
	return row
}

func (m *refModel) width() int64 {
	var w int64
	for _, set := range m.sets {
		for _, v := range set {
			w += int64(m.g.InDegree(v))
		}
	}
	return w
}

// greedy is max coverage as it ran over the slice-of-slices layout — by
// set count, or by root-opinion weight — with the rule that a chosen node
// is never chosen again. It returns the seeds and the number and weight
// of the sets they cover.
func (m *refModel) greedy(k int, weighted bool) (seeds []graph.NodeID, covered int, weight float64) {
	n := m.g.NumNodes()
	gain := make([]float64, n)
	chosen := make([]bool, n)
	value := func(sid int32) float64 {
		if weighted {
			return m.weights[sid]
		}
		return 1
	}
	for v := graph.NodeID(0); v < n; v++ {
		for _, sid := range m.row(v) {
			gain[v] += value(sid)
		}
	}
	hit := make([]bool, len(m.sets))
	for i := 0; i < k && i < int(n); i++ {
		best := graph.NodeID(-1)
		for v := graph.NodeID(0); v < n; v++ {
			if !chosen[v] && (best < 0 || gain[v] > gain[best]) {
				best = v
			}
		}
		chosen[best] = true
		seeds = append(seeds, best)
		for _, sid := range m.row(best) {
			if !hit[sid] {
				hit[sid] = true
				covered++
				weight += m.weights[sid]
				for _, u := range m.sets[sid] {
					gain[u] -= value(sid)
				}
			}
		}
	}
	return seeds, covered, weight
}

// fractionCoveredBy is the scan over every member of every set that
// FractionCoveredBy used to be.
func (m *refModel) fractionCoveredBy(seeds []graph.NodeID) float64 {
	hit := 0
	for _, set := range m.sets {
		if slices.ContainsFunc(set, func(v graph.NodeID) bool { return slices.Contains(seeds, v) }) {
			hit++
		}
	}
	return float64(hit) / float64(len(m.sets))
}

func requireSameAsModel(t *testing.T, step string, c *Collection, m *refModel) {
	t.Helper()
	got := c.Sets()
	if len(got) != len(m.sets) || c.Len() != len(m.sets) {
		t.Fatalf("%s: %d sets, model has %d", step, c.Len(), len(m.sets))
	}
	for i := range got {
		if !slices.Equal(got[i], m.sets[i]) {
			t.Fatalf("%s: set %d = %v, model %v", step, i, got[i], m.sets[i])
		}
	}
	for v := graph.NodeID(0); v < m.g.NumNodes(); v++ {
		if row := c.SetsContaining(v); !slices.Equal(row, m.row(v)) {
			t.Fatalf("%s: index row %d = %v, model %v", step, v, row, m.row(v))
		}
	}
	if c.Weighted() && !slices.Equal(c.Weights(), m.weights) {
		t.Fatalf("%s: weights differ from the model's", step)
	}
	if c.Width() != m.width() {
		t.Fatalf("%s: width %d, model %d", step, c.Width(), m.width())
	}
	// The memoized order was dropped with the change that led here. It is
	// the model's greedy under the kind's objective, resumed at a prefix or
	// not, down to the last node — where coverage has long saturated — and
	// survives until the one-shot plain pass, which a weighted collection's
	// next Greedy must not mistake for its own order.
	if c.GreedyLen() != 0 {
		t.Fatalf("%s: %d seeds still memoized", step, c.GreedyLen())
	}
	for _, k := range []int{2, 6, 2, int(m.g.NumNodes())} {
		seeds, covered := c.Greedy(k)
		wantSeeds, wantCovered, wantWeight := m.greedy(k, c.Weighted())
		if !slices.Equal(seeds, wantSeeds) || covered != wantCovered {
			t.Fatalf("%s: Greedy(%d) %v covering %d, model %v covering %d", step, k, seeds, covered, wantSeeds, wantCovered)
		}
		if c.Weighted() {
			weight, estimate := c.GreedyOpinion(k)
			if weight != wantWeight || estimate != c.EstimateOpinionSpread(wantSeeds) {
				t.Fatalf("%s: GreedyOpinion(%d) = %v, %v; model weight %v, estimate %v", step, k, weight, estimate, wantWeight, c.EstimateOpinionSpread(wantSeeds))
			}
		}
		if c.GreedyLen() < k {
			t.Fatalf("%s: Greedy(%d) memoized only %d seeds", step, k, c.GreedyLen())
		}
	}
	c.ReplaceSets(nil, nil)
	if c.GreedyLen() != int(m.g.NumNodes()) {
		t.Fatalf("%s: a replacement of no set dropped the memoized order", step)
	}
	plain, frac := c.MaxCoverage(6)
	wantPlain, wantCovered, _ := m.greedy(6, false)
	if !slices.Equal(plain, wantPlain) || frac != float64(wantCovered)/float64(len(m.sets)) {
		t.Fatalf("%s: MaxCoverage %v/%v, model %v covering %d", step, plain, frac, wantPlain, wantCovered)
	}
	seeds, _ := c.Greedy(3)
	if want, _, _ := m.greedy(3, c.Weighted()); !slices.Equal(seeds, want) {
		t.Fatalf("%s: Greedy(3) after MaxCoverage %v, model %v", step, seeds, want)
	}
	wantBytes := 4*int64(cap(c.ids)+cap(c.off)+cap(c.inv)+cap(c.invOff)+2*int(m.g.NumNodes())+cap(c.memo.order)) +
		8*int64(cap(c.weights)+cap(c.setMarks)+cap(c.nodeMarks)+cap(c.memo.covered)+cap(c.memo.gain)+cap(c.memo.cov)+cap(c.memo.wcov))
	if c.MemoryFootprint() != wantBytes {
		t.Fatalf("%s: footprint %d, arrays hold %d", step, c.MemoryFootprint(), wantBytes)
	}
}

// The flat collection and the slice-of-slices model, driven through the
// same random generate / parallel-extend / replace sequences, must agree
// on everything observable, for all three RR semantics.
func TestArenaMatchesReferenceModel(t *testing.T) {
	ctx := context.Background()
	g := graph.BarabasiAlbert(120, 2, rng.New(3))
	g.SetUniformProb(0.15)
	g.SetDefaultLTWeights()
	opinion.AssignOpinions(g, opinion.Normal, 5)
	for _, kind := range []ModelKind{ModelIC, ModelLT, ModelOC} {
		t.Run(kind.String(), func(t *testing.T) {
			r := rng.New(uint64(kind) + 11)
			c := NewCollection(g, kind)
			m := &refModel{g: g, smp: NewSampler(g, kind)}
			other := NewSampler(g, kind)
			for round := 0; round < 6; round++ {
				seq := 1 + int(r.Int31n(300))
				if err := c.GenerateCtx(ctx, seq, 9); err != nil {
					t.Fatal(err)
				}
				m.generate(seq, 9)
				requireSameAsModel(t, "generate", c, m)
				if slack := cap(c.ids) - len(c.ids); slack > len(c.ids)/32 || cap(c.inv) != cap(c.ids) {
					t.Fatalf("generation left ids %d/%d, inv %d/%d: want at most 1/32 of headroom", len(c.ids), cap(c.ids), len(c.inv), cap(c.inv))
				}

				par := parallelMinCount + int(r.Int31n(300))
				if err := c.GenerateParallelCtx(ctx, par, 9, 3); err != nil {
					t.Fatal(err)
				}
				m.generate(par, 9)
				requireSameAsModel(t, "parallel extend", c, m)

				// Replace a random ascending subset with sets of another
				// stream, so sizes shrink and grow within one call.
				var ids []int32
				var sets [][]graph.NodeID
				for id := int(r.Int31n(40)); id < c.Len(); id += 1 + int(r.Int31n(80)) {
					ids = append(ids, int32(id))
					sets = append(sets, other.Sample(77, uint64(r.Int31n(1<<20))))
				}
				c.ReplaceSets(ids, sets)
				m.replace(ids, sets)
				requireSameAsModel(t, "replace", c, m)
			}
		})
	}
}

// ReplaceSets drops the (node, set) pairs a replacement keeps before it
// edits the index, so the cases are built around that overlap: none of a
// set kept, all of it, all of it in another order, a strict subset or
// superset, and a hub that every replaced set holds on both sides. After
// each case the five arrays must equal those of a collection Installed
// from the final contents.
func TestReplaceSetsOverlapCases(t *testing.T) {
	g := graph.BarabasiAlbert(200, 2, rng.New(8))
	g.SetUniformProb(0.2)
	g.SetDefaultLTWeights()
	opinion.AssignOpinions(g, opinion.Normal, 6)
	const hub = graph.NodeID(0)

	for _, kind := range []ModelKind{ModelIC, ModelOC} {
		t.Run(kind.String(), func(t *testing.T) {
			r := rng.New(uint64(kind) + 31)
			c := NewCollection(g, kind)
			c.Generate(400, 5)
			sets := make([][]graph.NodeID, c.Len())
			for i := range sets {
				sets[i] = slices.Clone(c.Set(i))
			}
			// without returns n random nodes that are not in set.
			without := func(set []graph.NodeID, n int) []graph.NodeID {
				var out []graph.NodeID
				for len(out) < n {
					if v := graph.NodeID(r.Int31n(g.NumNodes())); !slices.Contains(set, v) && !slices.Contains(out, v) {
						out = append(out, v)
					}
				}
				return out
			}
			shuffled := func(set []graph.NodeID) []graph.NodeID {
				out := slices.Clone(set)
				rng.Shuffle(r, out)
				return out
			}
			cases := []struct {
				name string
				next func(old []graph.NodeID) []graph.NodeID
			}{
				{"identical", func(old []graph.NodeID) []graph.NodeID { return slices.Clone(old) }},
				{"permutation", func(old []graph.NodeID) []graph.NodeID { return shuffled(old) }},
				{"disjoint", func(old []graph.NodeID) []graph.NodeID { return without(old, 1+r.Intn(6)) }},
				{"superset", func(old []graph.NodeID) []graph.NodeID {
					return shuffled(append(slices.Clone(old), without(old, 1+r.Intn(4))...))
				}},
				{"subset", func(old []graph.NodeID) []graph.NodeID {
					return slices.Clone(old[:1+r.Intn(max(1, len(old)-1))])
				}},
				{"shared hub", func(old []graph.NodeID) []graph.NodeID {
					rest := slices.DeleteFunc(slices.Clone(old), func(v graph.NodeID) bool { return v == hub })
					return append([]graph.NodeID{hub}, without(append(rest, hub), 2)...)
				}},
				{"hub kept, rest redrawn", func(old []graph.NodeID) []graph.NodeID {
					return append(without(append(slices.Clone(old), hub), 3), hub)
				}},
				{"random overlap", func(old []graph.NodeID) []graph.NodeID {
					var out []graph.NodeID
					for _, v := range old {
						if r.Bool(0.56) {
							out = append(out, v)
						}
					}
					return shuffled(append(out, without(old, 1+r.Intn(5))...))
				}},
			}
			for round := 0; round < 3; round++ {
				for _, tc := range cases {
					var ids []int32
					var next [][]graph.NodeID
					for id := r.Intn(6); id < len(sets); id += 1 + r.Intn(9) {
						ids = append(ids, int32(id))
						next = append(next, tc.next(sets[id]))
					}
					c.ReplaceSets(ids, next)
					for i, id := range ids {
						sets[id] = next[i]
					}

					want := NewCollection(g, kind)
					flat, off := flatten(sets)
					var weights []float64
					if kind.Weighted() {
						for _, set := range sets {
							weights = append(weights, OCRootWeight(g, set))
						}
					}
					want.Install(flat, off, weights)
					step := fmt.Sprintf("round %d, %s (%d sets replaced)", round, tc.name, len(ids))
					switch {
					case !slices.Equal(c.ids, want.ids):
						t.Fatalf("%s: arena differs from an installed collection's", step)
					case !slices.Equal(c.off, want.off):
						t.Fatalf("%s: offsets differ", step)
					case !slices.Equal(c.inv, want.inv):
						t.Fatalf("%s: inverted index differs", step)
					case !slices.Equal(c.invOff, want.invOff):
						t.Fatalf("%s: index offsets differ", step)
					case !slices.Equal(c.weights, want.weights):
						t.Fatalf("%s: weights differ", step)
					}
				}
			}
		})
	}
}

// FractionCoveredBy walks index rows instead of scanning every set; it
// must still equal the scan for any seed list — duplicates and
// out-of-range ids included — and TIM+, whose KPT refinement is its one
// selector caller, must pick the seeds it picked before.
func TestFractionCoveredByMatchesNaiveScan(t *testing.T) {
	g := imtest.TestGraph(250)
	for _, kind := range []ModelKind{ModelIC, ModelLT} {
		c := NewCollection(g, kind)
		c.Generate(3000, 4)
		m := &refModel{g: g, sets: c.Sets()}
		r := rng.New(21)
		cases := [][]graph.NodeID{nil, {0}, {0, 0, 0}, {-1, 250, 1 << 30}, {5, -3, 5, 249, 250}}
		for i := 0; i < 40; i++ {
			seeds := make([]graph.NodeID, r.Int31n(30))
			for j := range seeds {
				seeds[j] = graph.NodeID(r.Int31n(260)) - 5
			}
			cases = append(cases, seeds)
		}
		for _, seeds := range cases {
			if got, want := c.FractionCoveredBy(seeds), m.fractionCoveredBy(seeds); got != want {
				t.Fatalf("%v seeds %v: covered %v, scan says %v", kind, seeds, got, want)
			}
		}
	}

	// Seeds and KPT+ recorded from the slice-of-slices implementation.
	for _, tc := range []struct {
		kind    ModelKind
		seeds   []graph.NodeID
		kptPlus float64
	}{
		{ModelIC, []graph.NodeID{2, 0, 11, 48, 9}, 11.62908877124389},
		{ModelLT, []graph.NodeID{2, 0, 11, 3, 9}, 49.52036953773071},
	} {
		res := runSelect(NewTIMPlus(g, tc.kind, TIMOptions{Epsilon: 0.4, Seed: 5, ThetaCap: 30000}), 5)
		if !slices.Equal(res.Seeds, tc.seeds) || res.Metrics["kpt_plus"] != tc.kptPlus {
			t.Fatalf("TIM+ %v: seeds %v kpt+ %v, want %v %v", tc.kind, res.Seeds, res.Metrics["kpt_plus"], tc.seeds, tc.kptPlus)
		}
	}
}

// Sampling allocates per chunk of sets, not per set: the slice-of-slices
// layout cost 2.04 heap objects per set here.
func TestGenerateAllocsPerSet(t *testing.T) {
	const sets = 50000
	g := parallelTestGraph(t)
	perRun := testing.AllocsPerRun(3, func() {
		if err := NewCollection(g, ModelIC).GenerateParallelCtx(context.Background(), sets, 1, 4); err != nil {
			t.Fatal(err)
		}
	})
	if perSet := perRun / sets; perSet >= 0.1 {
		t.Fatalf("%.3f heap objects per sampled set, want < 0.1", perSet)
	}
}

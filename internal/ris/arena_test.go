package ris

import (
	"context"
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

// maxCoverage is the greedy as it ran over the slice-of-slices layout.
func (m *refModel) maxCoverage(k int) ([]graph.NodeID, float64) {
	n := m.g.NumNodes()
	counts := make([]int32, n)
	for v := graph.NodeID(0); v < n; v++ {
		counts[v] = int32(len(m.row(v)))
	}
	covered := make([]bool, len(m.sets))
	var seeds []graph.NodeID
	total := 0
	for i := 0; i < k; i++ {
		best, bestCount := graph.NodeID(-1), int32(-1)
		for v := graph.NodeID(0); v < n; v++ {
			if counts[v] > bestCount {
				best, bestCount = v, counts[v]
			}
		}
		seeds = append(seeds, best)
		for _, sid := range m.row(best) {
			if !covered[sid] {
				covered[sid] = true
				total++
				for _, u := range m.sets[sid] {
					counts[u]--
				}
			}
		}
	}
	return seeds, float64(total) / float64(len(m.sets))
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
	seeds, frac := c.MaxCoverage(6)
	wantSeeds, wantFrac := m.maxCoverage(6)
	if !slices.Equal(seeds, wantSeeds) || frac != wantFrac {
		t.Fatalf("%s: MaxCoverage %v/%v, model %v/%v", step, seeds, frac, wantSeeds, wantFrac)
	}
	wantBytes := 4*int64(cap(c.ids)+cap(c.off)+cap(c.inv)+cap(c.invOff)+2*int(m.g.NumNodes())) +
		8*int64(cap(c.weights)+cap(c.setMarks)+cap(c.nodeMarks))
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

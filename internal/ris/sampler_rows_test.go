package ris

import (
	"context"
	"math"
	"slices"
	"testing"

	"github.com/holisticim/holisticim/internal/graph"
	"github.com/holisticim/holisticim/internal/live"
	"github.com/holisticim/holisticim/internal/rng"
)

// referenceSample is the sampler as it was before it walked the in-CSR
// whole and knew about uniform rows: every parameter looked up per arc
// through the graph's accessors, visited marks in a map. SampleInto must
// produce this, set for set, whatever mix of row kinds the graph holds.
func referenceSample(g *graph.Graph, kind ModelKind, seed, setIndex uint64) []graph.NodeID {
	r := rng.New(rng.SplitSeed(seed, setIndex))
	root := graph.NodeID(r.Int31n(g.NumNodes()))
	seen := map[graph.NodeID]bool{root: true}
	set := []graph.NodeID{root}
	if kind == ModelIC {
		for head := 0; head < len(set); head++ {
			x := set[head]
			idxs := g.InEdgeIndices(x)
			for j, u := range g.InNeighbors(x) {
				if seen[u] {
					continue
				}
				if r.Float64() < g.ProbAt(int64(idxs[j])) {
					seen[u] = true
					set = append(set, u)
				}
			}
		}
		return set
	}
	for x := root; ; {
		idxs, froms := g.InEdgeIndices(x), g.InNeighbors(x)
		if len(idxs) == 0 {
			return set
		}
		draw, acc := r.Float64(), 0.0
		chosen := graph.NodeID(-1)
		for j, e := range idxs {
			acc += g.WeightAt(int64(e))
			if draw < acc {
				chosen = froms[j]
				break
			}
		}
		if chosen < 0 || seen[chosen] {
			return set
		}
		seen[chosen] = true
		set = append(set, chosen)
		x = chosen
	}
}

// refSampler is the IC sampler as it stood before its stream moved into
// a local and the row column replaced the uniform-row bitset: the stream
// lives behind a pointer, and a visited node costs a bit test and, in a
// uniform row, a gather through the row's first arc.
type refSampler struct {
	g       *graph.Graph
	uniform Bitset
	scratch []uint32
	epoch   uint32
	rng     *rng.RNG
}

func newRefSampler(g *graph.Graph) *refSampler {
	return &refSampler{g: g, uniform: uniformProbRows(g), scratch: make([]uint32, g.NumNodes()), rng: rng.New(0)}
}

// uniformProbRows is the set that loop read: bit v is set when v has
// in-edges and they all carry the same p (float ==, so a NaN equals
// nothing, itself included).
func uniformProbRows(g *graph.Graph) Bitset {
	prob := arcProbs(g)
	bits := Bitset(nil).Reset(int(g.NumNodes()))
	for v := graph.NodeID(0); v < g.NumNodes(); v++ {
		row := g.InEdgeIndices(v)
		uniform := len(row) > 0
		for _, e := range row {
			if prob[e] != prob[row[0]] {
				uniform = false
				break
			}
		}
		if uniform {
			bits.Set(v)
		}
	}
	return bits
}

// referenceSampleInto is SampleInto's IC branch verbatim as it stood
// before the register-held stream. The new loop must return its sets bit
// for bit.
func (s *refSampler) referenceSampleInto(seed, setIndex uint64, buf []graph.NodeID) []graph.NodeID {
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
	// Reverse BFS. Discovery order is the set, so the output doubles
	// as the queue.
	start, from, edge := g.InCSR()
	prob, uniform := arcProbs(g), s.uniform
	for ; head < len(buf); head++ {
		x := buf[head]
		us, es := from[start[x]:start[x+1]], edge[start[x]:start[x+1]]
		rowP, p := uniform.Has(x), 0.0
		if rowP { // never an empty row
			p = prob[es[0]]
		}
		for j, u := range us {
			if s.scratch[u] == s.epoch {
				continue
			}
			if !rowP {
				p = prob[es[j]]
			}
			if r.Float64() < p {
				s.scratch[u] = s.epoch
				buf = append(buf, u)
			}
		}
	}
	return buf
}

// arcProbs is g's p per arc, in out-array order, whatever form g holds it in.
func arcProbs(g *graph.Graph) []float64 {
	prob := make([]float64, g.NumEdges())
	for i := range prob {
		prob[i] = g.ProbAt(int64(i))
	}
	return prob
}

// rowKindGraphs returns seeded graphs that between them hold every kind of
// in-row the sampler distinguishes: all uniform (weighted cascade, one p),
// and the weighted-cascade one again with its columns held per arc,
// mostly mixed (trivalency), a weighted-cascade graph after a live batch,
// and a hand-made one with rows of p = 0, p = 1, a mix of +0 and −0, and
// no arcs at all.
func rowKindGraphs(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	base := func(seed uint64) *graph.Graph {
		g := graph.BarabasiAlbert(600, 3, rng.New(seed))
		g.SetDefaultLTWeights()
		return g
	}
	wc := base(1)
	wc.SetWeightedCascadeProb()
	uniform := base(2)
	uniform.SetUniformProb(0.15)
	p10 := base(7)
	p10.SetUniformProb(0.1)
	tri := base(3)
	tri.SetTrivalencyProb([]float64{0.3, 0.1, 0.01}, 7)

	// Extremes: node v's in-arcs all carry 0 (v%5 == 0), all 1 (== 1), +0
	// and −0 by tail (== 2), or a mix of 0.05 and 0.4 (the rest). Isolated
	// nodes 590..599 keep their (empty) rows: 0 arcs in, 0 out.
	b := graph.NewBuilder(600)
	r := rng.New(4)
	for i := 0; i < 3000; i++ {
		u, v := r.Int31n(590), r.Int31n(590)
		b.AddEdgeFull(u, v, 0, 0, r.Float64()/8)
	}
	extremes := b.Build()
	extremes.SetEdgeParamsFunc(func(u, v graph.NodeID) (float64, float64) {
		switch v % 5 {
		case 0:
			return 0, 0
		case 1:
			return 1, 0
		case 2:
			return []float64{0, math.Copysign(0, -1)}[u%2], 0
		}
		return []float64{0.05, 0.4}[u%2], 0
	})

	return map[string]*graph.Graph{
		"weighted-cascade": wc,
		"wc-held-per-arc":  wc.PerArcClone(),
		"uniform":          uniform,
		"uniform-0.1":      p10,
		"trivalency":       tri,
		"after-live-batch": churned(t, base(5)),
		"extremes":         extremes,
	}
}

// churned returns a weighted-cascade graph after one live batch of adds,
// removals and reweights, each into a head of its own with at least two
// in-arcs — having first checked what the batch did to the graph's rows,
// which Apply's graph carries over rather than derives: a row that gained
// or had reweighted an arc at p = 0.9 beside its 1/indeg ones turned
// mixed, so p is now held per arc, a row that lost an arc kept its p (the
// rest still agree), and so did every row no op names.
func churned(t *testing.T, g *graph.Graph) *graph.Graph {
	t.Helper()
	g.SetWeightedCascadeProb()
	before, _ := g.ProbColumn()
	r := rng.New(6)
	var ops []live.EdgeOp
	mixed := map[graph.NodeID]bool{} // head -> the op leaves its row mixed
	for len(ops) < 30 {
		u, v := r.Int31n(g.NumNodes()), r.Int31n(g.NumNodes())
		if _, named := mixed[v]; u == v || named || g.InDegree(v) < 2 || g.HasEdge(u, v) {
			continue
		}
		p, w := 0.9, 0.05
		switch len(ops) % 3 {
		case 0:
			ops = append(ops, live.EdgeOp{Op: live.OpAdd, From: u, To: v, P: &p, W: &w})
		case 1:
			ops = append(ops, live.EdgeOp{Op: live.OpRemove, From: g.InNeighbors(v)[0], To: v})
		default:
			ops = append(ops, live.EdgeOp{Op: live.OpReweight, From: g.InNeighbors(v)[0], To: v, P: &p, W: &w})
		}
		mixed[v] = len(ops)%3 != 2
	}
	lv := live.Wrap(g, live.Options{})
	if _, err := lv.Apply(context.Background(), ops, live.ApplyOptions{}); err != nil {
		t.Fatal(err)
	}
	after := lv.Graph()
	if _, perHead := after.ProbColumn(); perHead {
		t.Fatal("the batch left p per head")
	}
	for v := graph.NodeID(0); v < g.NumNodes(); v++ {
		values := map[float64]bool{}
		for _, e := range after.InEdgeIndices(v) {
			values[after.ProbAt(int64(e))] = true
		}
		if mixed[v] != (len(values) == 2) || !mixed[v] && len(values) == 1 && !values[before[v]] {
			t.Fatalf("node %d (named by an op: %v): row p %v after the batch, was %v", v, mixed[v], values, before[v])
		}
	}
	return after
}

func TestSamplerMatchesPerArcReference(t *testing.T) {
	const seed, sets = 77, 1500
	for name, g := range rowKindGraphs(t) {
		_, pHead := g.ProbColumn()
		_, wHead := g.WeightColumn()
		t.Logf("%s: p per head %v, LT weight per head %v", name, pHead, wHead)
		for _, kind := range []ModelKind{ModelIC, ModelLT, ModelOC} {
			want := make([][]graph.NodeID, sets)
			for i := range want {
				want[i] = referenceSample(g, kind, seed, uint64(i))
			}
			for _, workers := range []int{1, 2} {
				col := NewCollection(g, kind)
				if err := col.GenerateParallelCtx(context.Background(), sets, seed, workers); err != nil {
					t.Fatal(err)
				}
				for i := range want {
					if !slices.Equal(col.Set(i), want[i]) {
						t.Fatalf("%s/%v/workers=%d: set %d = %v, per-arc reference %v", name, kind, workers, i, col.Set(i), want[i])
					}
				}
			}
		}
	}
}

// The IC loop against its own predecessor, referenceSampleInto, over 100k
// set indices of two streams on every row kind: one Sampler drawing the
// sets in turn, batch generation of the first quarter at one and two
// workers (the same loop behind par.For; a quarter keeps the test's cost
// under -race in bounds), and Resample of indices scattered over all of
// them — every set bit for bit.
func TestSampleICMatchesReference(t *testing.T) {
	const sets, generated = 100_000, 25_000
	ctx := context.Background()
	var ids []int32 // every 97th index, and the last
	for i := int32(0); i < sets; i += 97 {
		ids = append(ids, i)
	}
	ids = append(ids, sets-1)
	for name, g := range rowKindGraphs(t) {
		for _, seed := range []uint64{11, 1 << 40} {
			ref, s := newRefSampler(g), NewSampler(g, ModelIC)
			want := make([][]graph.NodeID, sets)
			var arena, buf []graph.NodeID
			members := 0
			for i := range want {
				lo := len(arena)
				arena = ref.referenceSampleInto(seed, uint64(i), arena)
				want[i] = arena[lo:len(arena):len(arena)]
				buf = s.SampleInto(seed, uint64(i), buf[:0])
				if !slices.Equal(buf, want[i]) {
					t.Fatalf("%s/seed %d: set %d = %v, reference %v", name, seed, i, buf, want[i])
				}
				members += len(buf)
			}
			if members == sets {
				t.Fatalf("%s/seed %d: every set is its root alone, nothing was tested", name, seed)
			}
			for _, workers := range []int{1, 2} {
				col := NewCollection(g, ModelIC)
				if err := col.GenerateParallelCtx(ctx, generated, seed, workers); err != nil {
					t.Fatal(err)
				}
				for i := range want[:generated] {
					if !slices.Equal(col.Set(i), want[i]) {
						t.Fatalf("%s/seed %d/workers=%d: set %d = %v, reference %v", name, seed, workers, i, col.Set(i), want[i])
					}
				}
				got, err := col.Resample(ctx, g, seed, ids, workers)
				if err != nil {
					t.Fatal(err)
				}
				for k, id := range ids {
					if !slices.Equal(got[k], want[id]) {
						t.Fatalf("%s/seed %d/workers=%d: resampled set %d = %v, reference %v", name, seed, workers, id, got[k], want[id])
					}
				}
			}
		}
	}
}

// fuzzProbs are the p a fuzzed arc may carry: both zeros, so a row of
// them is uniform to == yet two bit patterns, the extremes, and values
// whose draws land on either side.
var fuzzProbs = [...]float64{0, math.Copysign(0, -1), 0.1, 1.0 / 3, 0.5, 1}

// FuzzSampleIC holds the IC loop to referenceSampleInto on small graphs
// read from the bytes: the first byte picks n ≤ 32, every following three
// an arc (tail, head, p from fuzzProbs) — parallel arcs collapse and
// self-loops drop as the Builder does — so rows come out uniform, mixed
// and empty in any combination. Eight consecutive sets from (seed, index)
// are compared, through one sampler of each kind.
func FuzzSampleIC(f *testing.F) {
	f.Add([]byte{5, 0, 1, 2, 2, 1, 3, 3, 1, 5, 4, 1, 1}, uint64(1), uint64(0))
	f.Add([]byte{31, 0, 1, 0, 2, 1, 1, 3, 1, 4, 4, 1, 5, 5, 1, 2}, uint64(7), uint64(1<<33))
	chain := []byte{32}
	for v := byte(1); v < 32; v++ {
		chain = append(chain, v-1, v, 5, (v+7)%32, v, v%6)
	}
	f.Add(chain, uint64(3), uint64(99))
	f.Fuzz(func(t *testing.T, data []byte, seed, index uint64) {
		if len(data) == 0 {
			return
		}
		n := int32(data[0]%32) + 1
		b := graph.NewBuilder(n)
		for arc := data[1:]; len(arc) >= 3; arc = arc[3:] {
			b.AddEdgeP(int32(arc[0])%n, int32(arc[1])%n, fuzzProbs[int(arc[2])%len(fuzzProbs)], 0)
		}
		g := b.Build()
		ref, s := newRefSampler(g), NewSampler(g, ModelIC)
		for i := index; i < index+8; i++ {
			if got, want := s.Sample(seed, i), ref.referenceSampleInto(seed, i, nil); !slices.Equal(got, want) {
				t.Fatalf("n=%d seed %d set %d: %v, reference %v", n, seed, i, got, want)
			}
		}
	})
}

package holisticim

import (
	"bytes"
	"context"
	"math"
	"slices"
	"testing"

	"github.com/holisticim/holisticim/internal/core"
	"github.com/holisticim/holisticim/internal/diffusion"
	"github.com/holisticim/holisticim/internal/graph"
	"github.com/holisticim/holisticim/internal/heuristics"
	"github.com/holisticim/holisticim/internal/opinion"
	"github.com/holisticim/holisticim/internal/ris"
	"github.com/holisticim/holisticim/internal/rng"
)

// columnFormCases are seeded graphs under each parameterization whose
// columns a graph may hold per head or per arc: weighted cascade and a
// uniform p (both columns per head), a trivalency p beside the default LT
// weights (p per arc), explicit weights on every arc (both per arc), and
// rows of +0 and −0 (per arc, though == calls them one value).
func columnFormCases(seed uint64) map[string]*graph.Graph {
	dress := func(g *graph.Graph, s uint64) *graph.Graph {
		opinion.AssignInteractions(g, s)
		opinion.AssignOpinions(g, opinion.Normal, s+1)
		return g
	}
	r := rng.New(seed)
	wc := graph.BarabasiAlbert(1500, 3, r)
	wc.SetWeightedCascadeProb()
	uniform := graph.RMAT(2048, 12000, graph.DefaultRMAT, false, r)
	uniform.SetUniformProb(0.1)
	tri := graph.BarabasiAlbert(1200, 2, r)
	tri.SetTrivalencyProb(nil, seed)

	b := graph.NewBuilder(1000)
	for i := 0; i < 6000; i++ {
		b.AddEdgeFull(r.Int31n(1000), r.Int31n(1000), r.Range(0, 0.4), r.Float64(), r.Float64()/8)
	}
	mix := b.Build()

	// Rows into even nodes hold +0 and −0 by tail parity; the rest hold
	// one p each, by head.
	negZero := math.Copysign(0, -1)
	zeros := graph.RMAT(1024, 8000, graph.DefaultRMAT, false, r)
	zeros.SetEdgeParamsFunc(func(u, v graph.NodeID) (float64, float64) {
		if v%2 == 0 {
			return []float64{0, negZero}[u%2], 0.5
		}
		return float64(v%7) / 8, 0.5
	})
	return map[string]*graph.Graph{
		"weighted-cascade": dress(wc, seed+10),
		"uniform-p":        dress(uniform, seed+20),
		"trivalency+lt":    dress(tri, seed+30),
		"per-arc-mix":      dress(mix, seed+40),
		"plus-minus-zero":  dress(zeros, seed+50),
	}
}

// sameBits compares two float slices bit for bit.
func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// A graph and its twin holding both columns per arc are one diffusion
// instance to every layer: the same fingerprint and file bytes, the same
// value on every arc, the same EaSyIM/OSIM scores and ScoreGreedy seeds
// (and IRIE's), the same IC/LT RR sets and the same Monte-Carlo streams,
// bit for bit. The per-head kernels (premultiplied score slots, a row's p
// or w read with one load) are held to the per-arc ones here.
func TestColumnFormsAgree(t *testing.T) {
	ctx := context.Background()
	perHead := map[bool]int{}
	for _, seed := range []uint64{1, 2} {
		for name, g := range columnFormCases(seed) {
			twin := g.PerArcClone()
			_, pHead := g.ProbColumn()
			_, wHead := g.WeightColumn()
			perHead[pHead]++
			perHead[wHead]++
			if _, h := twin.ProbColumn(); h {
				t.Fatalf("%s: the twin holds p per head", name)
			}
			if _, h := twin.WeightColumn(); h {
				t.Fatalf("%s: the twin holds w per head", name)
			}

			if g.Fingerprint() != twin.Fingerprint() {
				t.Fatalf("%s: fingerprint %016x, twin %016x", name, g.Fingerprint(), twin.Fingerprint())
			}
			var a, b bytes.Buffer
			if err := graph.WriteBinary(&a, g); err != nil {
				t.Fatal(err)
			}
			if err := graph.WriteBinary(&b, twin); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a.Bytes(), b.Bytes()) {
				t.Fatalf("%s: WriteBinary bytes differ from the twin's", name)
			}
			for e := int64(0); e < g.NumEdges(); e++ {
				if !sameBits([]float64{g.ProbAt(e), g.WeightAt(e)}, []float64{twin.ProbAt(e), twin.WeightAt(e)}) {
					t.Fatalf("%s: arc %d holds (%v, %v), twin (%v, %v)", name, e, g.ProbAt(e), g.WeightAt(e), twin.ProbAt(e), twin.WeightAt(e))
				}
			}

			// Scores under both weights, and the seeds ScoreGreedy picks with
			// its probe (which runs the Monte-Carlo models below too).
			scorers := []struct {
				name string
				of   func(*graph.Graph) core.LevelScorer
				pm   func(*graph.Graph) diffusion.Model
			}{
				{"easyim-p", func(g *graph.Graph) core.LevelScorer { return core.NewEaSyIM(g, 3, core.WeightProb) }, diffusion.NewIC},
				{"easyim-lt", func(g *graph.Graph) core.LevelScorer { return core.NewEaSyIM(g, 3, core.WeightLT) }, diffusion.NewLT},
				{"osim-p", func(g *graph.Graph) core.LevelScorer { return core.NewOSIM(g, 3, core.WeightProb, 1) },
					func(g *graph.Graph) diffusion.Model { return diffusion.NewOI(g, diffusion.LayerIC) }},
				{"osim-lt", func(g *graph.Graph) core.LevelScorer { return core.NewOSIM(g, 2, core.WeightLT, 0.5) },
					func(g *graph.Graph) diffusion.Model { return diffusion.NewOI(g, diffusion.LayerLT) }},
			}
			for _, sc := range scorers {
				if got, want := core.ScoreOf(sc.of(g)), core.ScoreOf(sc.of(twin)); !sameBits(got, want) {
					t.Fatalf("%s/%s: scores differ from the twin's", name, sc.name)
				}
				var seeds [2][]graph.NodeID
				for i, h := range []*graph.Graph{g, twin} {
					res, err := core.NewScoreGreedy(sc.of(h), core.ScoreGreedyOptions{ProbeModel: sc.pm(h), ProbeRuns: 10, Seed: 5}).Select(ctx, 12)
					if err != nil {
						t.Fatal(err)
					}
					seeds[i] = res.Seeds
				}
				if !slices.Equal(seeds[0], seeds[1]) {
					t.Fatalf("%s/%s: seeds %v, twin %v", name, sc.name, seeds[0], seeds[1])
				}
			}

			var irie [2][]graph.NodeID
			for i, h := range []*graph.Graph{g, twin} {
				res, err := heuristics.NewIRIE(h, 0.7, 1.0/320, 20).Select(ctx, 12)
				if err != nil {
					t.Fatal(err)
				}
				irie[i] = res.Seeds
			}
			if !slices.Equal(irie[0], irie[1]) {
				t.Fatalf("%s: IRIE seeds %v, twin %v", name, irie[0], irie[1])
			}

			for _, kind := range []ris.ModelKind{ris.ModelIC, ris.ModelLT} {
				x, y := ris.NewCollection(g, kind), ris.NewCollection(twin, kind)
				x.Generate(3000, seed)
				y.Generate(3000, seed)
				for i := 0; i < x.Len(); i++ {
					if !slices.Equal(x.Set(i), y.Set(i)) {
						t.Fatalf("%s/%v: RR set %d = %v, twin %v", name, kind, i, x.Set(i), y.Set(i))
					}
				}
			}

			seeds := graph.TopKByOutDegree(g, 6)
			for _, model := range []func(*graph.Graph) diffusion.Model{
				diffusion.NewIC, diffusion.NewLT, diffusion.NewOC,
				func(g *graph.Graph) diffusion.Model { return diffusion.NewOI(g, diffusion.LayerIC) },
				func(g *graph.Graph) diffusion.Model { return diffusion.NewOI(g, diffusion.LayerLT) },
			} {
				m, mt := model(g), model(twin)
				s, st := diffusion.NewScratch(g.NumNodes()), diffusion.NewScratch(g.NumNodes())
				r, rt := rng.New(0), rng.New(0)
				for run := uint64(0); run < 40; run++ {
					r.Reseed(rng.SplitSeed(seed, run))
					rt.Reseed(rng.SplitSeed(seed, run))
					res, rest := m.Simulate(seeds, r, s), mt.Simulate(seeds, rt, st)
					if res != rest || !slices.Equal(s.Activated(), st.Activated()) || r.Uint64() != rt.Uint64() {
						t.Fatalf("%s/%s run %d: %+v, twin %+v", name, m.Name(), run, res, rest)
					}
					for _, v := range s.Activated() {
						if math.Float64bits(s.FinalOpinion(v)) != math.Float64bits(st.FinalOpinion(v)) {
							t.Fatalf("%s/%s run %d: node %d's opinion differs from the twin's", name, m.Name(), run, v)
						}
					}
				}
			}
		}
	}
	if perHead[true] == 0 || perHead[false] == 0 {
		t.Fatalf("the cases never held a column in both forms: %v", perHead)
	}
}

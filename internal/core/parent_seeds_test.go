package core

import (
	"bufio"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"strings"
	"testing"

	"github.com/holisticim/holisticim/internal/diffusion"
	"github.com/holisticim/holisticim/internal/graph"
	"github.com/holisticim/holisticim/internal/opinion"
	"github.com/holisticim/holisticim/internal/rng"
)

const pinnedTablePath = "testdata/parent_seeds.txt"

// pinnedGraphs are the inputs of the pinned table: every one carries
// opinions, ϕ and default LT weights, so each runs under all three scorers
// and both edge weights.
func pinnedGraphs() []struct {
	name string
	g    *graph.Graph
	k    int
} {
	dress := func(g *graph.Graph, seed uint64) *graph.Graph {
		g.SetDefaultLTWeights()
		opinion.AssignInteractions(g, seed)
		opinion.AssignOpinions(g, opinion.Normal, seed+1)
		return g
	}
	ba := graph.BarabasiAlbert(400, 3, rng.New(11))
	ba.SetUniformProb(0.1)
	rmat := graph.RMAT(512, 4000, graph.DefaultRMAT, false, rng.New(12))
	rmat.SetWeightedCascadeProb()
	// Two certain stars: two seeds activate every node with an out-arc's
	// worth of score, so the third pick finds nothing and fillRemaining
	// pads the budget.
	sat := graph.NewBuilder(14)
	for v := graph.NodeID(1); v <= 6; v++ {
		sat.AddEdgeP(0, v, 1, 0.5)
	}
	for v := graph.NodeID(8); v <= 13; v++ {
		sat.AddEdgeP(7, v, 1, 0.5)
	}
	return []struct {
		name string
		g    *graph.Graph
		k    int
	}{
		{"ba-p10", dress(ba, 21), 8},
		{"rmat-wc", dress(rmat, 23), 8},
		{"path", dress(graph.Path(24, 0.6, 0.7), 25), 4},
		{"tree", dress(graph.RandomTree(80, 0.4, 0.6, rng.New(13)), 27), 5},
		{"dag", dress(graph.RandomDAG(60, 0.15, 0.3, 0.6, rng.New(14)), 29), 5},
		{"saturating", dress(graph.Complete(9, 1, 0.8), 31), 5},
		{"two-stars", dress(sat.Build(), 33), 6},
	}
}

// pinnedScorer builds one scorer twice: bare, and inside a ScoreGreedy
// (whose constructor takes the concrete type).
type pinnedScorer struct {
	name   string
	probe  diffusion.Model
	scorer func() Scorer
	greedy func(ScoreGreedyOptions) *ScoreGreedy
}

func scoreHash(scores []float64) string {
	h := fnv.New64a()
	var b [8]byte
	for _, s := range scores {
		bits := math.Float64bits(s)
		for i := range b {
			b[i] = byte(bits >> (8 * i))
		}
		h.Write(b[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// pinnedRows runs {EaSyIM, OSIM λ=1, OSIM λ=0.5} × {WeightProb, WeightLT}
// × l∈{1..4} over pinnedGraphs: one "assign" row hashing the bits of a full
// and of a masked score assignment, and one "select" row per activation
// policy listing the seeds.
func pinnedRows() []string {
	var rows []string
	for _, in := range pinnedGraphs() {
		g, n := in.g, in.g.NumNodes()
		mask := make([]bool, n)
		for v := range mask {
			mask[v] = v%3 == 1
		}
		for _, w := range []EdgeWeight{WeightProb, WeightLT} {
			wname, layer := "prob", diffusion.LayerIC
			var plain diffusion.Model = diffusion.NewIC(g)
			if w == WeightLT {
				wname, layer, plain = "lt", diffusion.LayerLT, diffusion.NewLT(g)
			}
			for l := 1; l <= 4; l++ {
				oi := diffusion.NewOI(g, layer)
				scorers := []pinnedScorer{
					{"easyim", plain, func() Scorer { return NewEaSyIM(g, l, w) },
						func(o ScoreGreedyOptions) *ScoreGreedy { return NewScoreGreedy(NewEaSyIM(g, l, w), o) }},
					{"osim-l1", oi, func() Scorer { return NewOSIM(g, l, w, 1) },
						func(o ScoreGreedyOptions) *ScoreGreedy { return NewScoreGreedy(NewOSIM(g, l, w, 1), o) }},
					{"osim-l0.5", oi, func() Scorer { return NewOSIM(g, l, w, 0.5) },
						func(o ScoreGreedyOptions) *ScoreGreedy { return NewScoreGreedy(NewOSIM(g, l, w, 0.5), o) }},
				}
				for _, sc := range scorers {
					tag := fmt.Sprintf("%s/%s/%s/l=%d", in.name, sc.name, wname, l)
					s := sc.scorer()
					rows = append(rows, fmt.Sprintf("assign/%s\t%s %s", tag,
						scoreHash(s.Assign(nil, nil)), scoreHash(s.Assign(mask, nil))))
					for _, pol := range []ActivationPolicy{PolicyMCMajority, PolicyReach, PolicySeedOnly} {
						res := runSelect(sc.greedy(ScoreGreedyOptions{
							Policy: pol, ProbeModel: sc.probe, ProbeRuns: 7, Seed: 5,
						}), in.k)
						sat := "-"
						if at, ok := res.Metrics["saturated_at"]; ok {
							sat = fmt.Sprint(at)
						}
						rows = append(rows, fmt.Sprintf("select/%s/%v\t%s sat=%s", tag, pol,
							strings.Trim(fmt.Sprint(res.Seeds), "[]"), sat))
					}
				}
			}
		}
	}
	return rows
}

// TestSeedsPinnedFromParent holds EaSyIM and OSIM — the full pass, a masked
// pass and ScoreGreedy under every activation policy — to what they
// returned at the commit before ScoreGreedy kept its level state
// (testdata/parent_seeds.txt, written there with PRINT_PINNED_SEEDS=1 before
// any code changed): scores bit for bit, seeds and the saturation point
// exactly.
func TestSeedsPinnedFromParent(t *testing.T) {
	rows := pinnedRows()
	if os.Getenv("PRINT_PINNED_SEEDS") != "" {
		if err := os.WriteFile(pinnedTablePath, []byte(strings.Join(rows, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(pinnedTablePath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	for sc := bufio.NewScanner(f); sc.Scan(); {
		name, val, _ := strings.Cut(sc.Text(), "\t")
		want[name] = val
	}
	if len(rows) != len(want) {
		t.Fatalf("%d rows, %d pinned", len(rows), len(want))
	}
	saturated := 0
	for _, row := range rows {
		name, val, _ := strings.Cut(row, "\t")
		if val != want[name] {
			t.Errorf("%s: got %q, parent had %q", name, val, want[name])
		}
		if strings.HasPrefix(name, "select/") && !strings.HasSuffix(val, "sat=-") {
			saturated++
		}
	}
	if saturated == 0 {
		t.Error("no pinned run saturates before k: the fillRemaining padding is not covered")
	}
}

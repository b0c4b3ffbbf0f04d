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

// pinnedScorer is one scorer of the pinned table and the model its
// ScoreGreedy probes with.
type pinnedScorer struct {
	name   string
	probe  diffusion.Model
	scorer func() LevelScorer
}

// pinnedScorers are EaSyIM, OSIM λ=1 and OSIM λ=0.5 at path length l over
// edge weight w, each told to sweep on workers goroutines and paired with
// the model of w's layer.
func pinnedScorers(g *graph.Graph, l int, w EdgeWeight, workers int) []pinnedScorer {
	layer, plain := diffusion.LayerIC, diffusion.Model(diffusion.NewIC(g))
	if w == WeightLT {
		layer, plain = diffusion.LayerLT, diffusion.NewLT(g)
	}
	oi := diffusion.NewOI(g, layer)
	osim := func(lambda float64) func() LevelScorer {
		return func() LevelScorer {
			s := NewOSIM(g, l, w, lambda)
			s.SetWorkers(workers)
			return s
		}
	}
	return []pinnedScorer{
		{"easyim", plain, func() LevelScorer {
			s := NewEaSyIM(g, l, w)
			s.SetWorkers(workers)
			return s
		}},
		{"osim-l1", oi, osim(1)},
		{"osim-l0.5", oi, osim(0.5)},
	}
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
// policy listing the seeds. Every scorer is told to sweep on workers
// goroutines, which must not show in any row.
func pinnedRows(workers int) []string {
	var rows []string
	for _, in := range pinnedGraphs() {
		g, n := in.g, in.g.NumNodes()
		mask := make([]bool, n)
		for v := range mask {
			mask[v] = v%3 == 1
		}
		for _, w := range []EdgeWeight{WeightProb, WeightLT} {
			wname := "prob"
			if w == WeightLT {
				wname = "lt"
			}
			for l := 1; l <= 4; l++ {
				for _, sc := range pinnedScorers(g, l, w, workers) {
					tag := fmt.Sprintf("%s/%s/%s/l=%d", in.name, sc.name, wname, l)
					s := sc.scorer()
					rows = append(rows, fmt.Sprintf("assign/%s\t%s %s", tag,
						scoreHash(s.Assign(nil, nil)), scoreHash(s.Assign(mask, nil))))
					for _, pol := range []ActivationPolicy{PolicyMCMajority, PolicyReach, PolicySeedOnly} {
						res := runSelect(NewScoreGreedy(sc.scorer(), ScoreGreedyOptions{
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
// exactly, whatever worker count the scorer is given. These graphs are all
// under sweepGrain, so their sweeps and probes stay on the caller, the
// probe on its one stream; TestSweepsEqualAtAnyWorkerCount covers the ones
// that fork.
func TestSeedsPinnedFromParent(t *testing.T) {
	if os.Getenv("PRINT_PINNED_SEEDS") != "" {
		if err := os.WriteFile(pinnedTablePath, []byte(strings.Join(pinnedRows(1), "\n")+"\n"), 0o644); err != nil {
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
	for _, workers := range []int{1, 2, 3, 8} {
		rows := pinnedRows(workers)
		if len(rows) != len(want) {
			t.Fatalf("workers=%d: %d rows, %d pinned", workers, len(rows), len(want))
		}
		saturated := 0
		for _, row := range rows {
			name, val, _ := strings.Cut(row, "\t")
			if val != want[name] {
				t.Errorf("workers=%d: %s: got %q, parent had %q", workers, name, val, want[name])
			}
			if strings.HasPrefix(name, "select/") && !strings.HasSuffix(val, "sat=-") {
				saturated++
			}
		}
		if saturated == 0 {
			t.Error("no pinned run saturates before k: the fillRemaining padding is not covered")
		}
	}
}

// TestSweepsEqualAtAnyWorkerCount is the contract of levels.dense on a graph
// that forks — over sweepGrain arcs, its row count not a multiple of
// sweepChunk: at 2, 3 and 8 workers a full pass, a masked pass and a
// ScoreGreedy run, whose exclusions of hub seeds sweep every row too, leave
// the score bits, seeds and work counts one worker leaves. The run selects
// under PolicyMCMajority, whose probe splits its 7 runs at the same width
// (LevelScorer.width), so the marks it grows V(a) by are held to one
// worker's too.
func TestSweepsEqualAtAnyWorkerCount(t *testing.T) {
	g := rmatGraph(6*sweepChunk+7, 3*sweepGrain/2)
	g.SetDefaultLTWeights()
	n, m := int(g.NumNodes()), g.NumEdges()
	if m < sweepGrain {
		t.Fatalf("%d arcs: under the grain %d, no sweep would fork", m, sweepGrain)
	}
	mask := make([]bool, n)
	for v := range mask {
		mask[v] = v%3 == 1
	}
	run := func(sc pinnedScorer) string {
		s := sc.scorer()
		full, masked := scoreHash(s.Assign(nil, nil)), scoreHash(s.Assign(mask, nil))
		res := runSelect(NewScoreGreedy(sc.scorer(), ScoreGreedyOptions{ProbeModel: sc.probe, ProbeRuns: 7, Seed: 5}), 8)
		return fmt.Sprintf("%s %s %v rows=%v arcs=%v", full, masked, res.Seeds, res.Metrics["rows_rescored"], res.Metrics["arcs_rescored"])
	}
	for _, w := range []EdgeWeight{WeightProb, WeightLT} {
		for _, l := range []int{1, 3} {
			var want []string
			for _, workers := range []int{1, 2, 3, 8} {
				for i, sc := range pinnedScorers(g, l, w, workers) {
					got := run(sc)
					if workers == 1 {
						want = append(want, got)
					} else if got != want[i] {
						t.Errorf("%s weight=%d l=%d: workers=%d gave %s, one worker %s", sc.name, w, l, workers, got, want[i])
					}
				}
			}
		}
	}
}

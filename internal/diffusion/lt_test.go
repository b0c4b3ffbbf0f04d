package diffusion

import (
	"math"
	"testing"

	"github.com/holisticim/holisticim/internal/graph"
	"github.com/holisticim/holisticim/internal/rng"
)

func TestLTDeterministicChain(t *testing.T) {
	// A path with in-degree 1 per node: weights = 1, so every threshold is
	// met — the whole chain activates.
	g := graph.Path(6, 0.5, 0.5) // p irrelevant; weights are 1/indeg = 1
	est := estimate(NewLT(g), []graph.NodeID{0}, 200)
	if est.Spread != 5 {
		t.Fatalf("LT chain spread %v want 5", est.Spread)
	}
}

func TestLTMatchesExactEnumeration(t *testing.T) {
	r := rng.New(31)
	for trial := 0; trial < 4; trial++ {
		g := graph.ErdosRenyi(6, 9, r)
		g.SetDefaultLTWeights()
		exact := ExactLTSpread(g, []graph.NodeID{0, 1})
		est := estimate(NewLT(g), []graph.NodeID{0, 1}, mcRuns)
		if math.Abs(est.Spread-exact) > 0.06 {
			t.Fatalf("trial %d: LT MC %v vs exact %v", trial, est.Spread, exact)
		}
	}
}

func TestLTLiveEdgeEquivalence(t *testing.T) {
	// Kempe's theorem: threshold-LT spread distribution equals live-edge
	// reachability. Compare the two estimators on a random graph.
	g := graph.ErdosRenyi(80, 400, rng.New(17))
	g.SetDefaultLTWeights()
	seeds := []graph.NodeID{0, 5, 9}
	ltEst := estimate(NewLT(g), seeds, mcRuns)

	s := NewScratch(g.NumNodes())
	live := make([]int64, g.NumNodes())
	total := 0.0
	for i := 0; i < mcRuns; i++ {
		r := rng.Split(99, uint64(i))
		SampleLiveEdge(g, r, live)
		total += float64(LiveEdgeSpread(g, live, seeds, s))
	}
	liveAvg := total / mcRuns
	if math.Abs(ltEst.Spread-liveAvg) > 0.25 {
		t.Fatalf("LT %v vs live-edge %v", ltEst.Spread, liveAvg)
	}
}

func TestSampleLiveEdgeDistribution(t *testing.T) {
	// Node 2 has two in-edges with weights 1/2 each: live-edge choice must
	// be ~uniform over {edge from 0, edge from 1, none}... with w=1/2 each
	// the "none" branch has probability 0.
	b := graph.NewBuilder(3)
	b.AddEdge(0, 2)
	b.AddEdge(1, 2)
	g := b.Build()
	g.SetDefaultLTWeights()
	counts := map[int64]int{}
	live := make([]int64, 3)
	for i := 0; i < 20000; i++ {
		r := rng.Split(7, uint64(i))
		SampleLiveEdge(g, r, live)
		counts[live[2]]++
	}
	if counts[-1] != 0 {
		t.Fatalf("live-edge 'none' chosen %d times though weights sum to 1", counts[-1])
	}
	frac := float64(counts[g.OutEdgeBase(0)]) / 20000
	if math.Abs(frac-0.5) > 0.02 {
		t.Fatalf("edge from 0 chosen with freq %v, want 0.5", frac)
	}
}

func TestLTBlockedMask(t *testing.T) {
	g := graph.Path(5, 0.5, 0.5)
	s := NewScratch(5)
	blocked := make([]bool, 5)
	blocked[1] = true
	s.SetBlocked(blocked)
	for run := uint64(0); run < 100; run++ {
		if res := NewLT(g).Simulate([]graph.NodeID{0}, rng.Split(3, run), s); res.Activated != 1 {
			t.Fatalf("run %d: blocked LT activated %d nodes, want the seed alone", run, res.Activated)
		}
	}
}

func TestLTStarActivationProbability(t *testing.T) {
	// Star 0 -> {1..10}: each leaf has in-degree 1, weight 1 ⇒ all activate.
	g := graph.Star(11, 0.5, 0.5)
	est := estimate(NewLT(g), []graph.NodeID{0}, 100)
	if est.Spread != 10 {
		t.Fatalf("star spread %v want 10", est.Spread)
	}
}

func TestLTPartialWeights(t *testing.T) {
	// Node 1 has a single in-edge with manually reduced weight 0.3: the
	// activation probability must be ≈ 0.3 (θ ~ U[0,1)).
	b := graph.NewBuilder(2)
	b.AddEdgeFull(0, 1, 0.5, 0.5, 0.3)
	g := b.Build()
	est := estimate(NewLT(g), []graph.NodeID{0}, mcRuns)
	if math.Abs(est.Spread-0.3) > 0.01 {
		t.Fatalf("weighted LT activation %v want 0.3", est.Spread)
	}
}

// The threshold layer's arrays (20 of a scratch's 36 B/node) come with the
// first threshold run: a scratch that only ever runs cascades — EaSyIM's
// and OSIM's probe, every IC Monte-Carlo worker — never allocates them, and
// one that ran cascades first starts its first threshold run clean.
func TestScratchThresholdLayerIsLazy(t *testing.T) {
	g := graph.ErdosRenyi(60, 300, rng.New(3))
	g.SetUniformProb(0.2)
	g.SetDefaultLTWeights()
	s := NewScratch(g.NumNodes())
	for i := uint64(0); i < 5; i++ {
		NewIC(g).Simulate([]graph.NodeID{0, 1}, rng.New(i), s)
	}
	if s.wsum != nil || s.thr != nil || s.thrStamp != nil {
		t.Fatal("cascade runs allocated the threshold layer")
	}
	got := NewLT(g).Simulate([]graph.NodeID{0, 1}, rng.New(9), s)
	if len(s.wsum) != 60 || len(s.thr) != 60 || len(s.thrStamp) != 60 {
		t.Fatalf("threshold layer after a threshold run: %d/%d/%d entries", len(s.wsum), len(s.thr), len(s.thrStamp))
	}
	if want := NewLT(g).Simulate([]graph.NodeID{0, 1}, rng.New(9), NewScratch(g.NumNodes())); got != want {
		t.Fatalf("threshold run on a scratch that ran cascades first: %+v, on a fresh one %+v", got, want)
	}
}

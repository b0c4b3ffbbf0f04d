package diffusion

import (
	"math"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"

	"github.com/holisticim/holisticim/internal/graph"
	"github.com/holisticim/holisticim/internal/rng"
)

const mcRuns = 60000

func estimate(m Model, seeds []graph.NodeID, runs int) Estimate {
	return MonteCarlo(m, seeds, MCOptions{Runs: runs, Seed: 42})
}

func TestICSpreadDeterministicEdges(t *testing.T) {
	// p=1 path: seed 0 activates everything.
	g := graph.Path(5, 1.0, 1.0)
	m := NewIC(g)
	est := estimate(m, []graph.NodeID{0}, 100)
	if est.Spread != 4 {
		t.Fatalf("spread=%v want 4", est.Spread)
	}
	// p=0: nothing spreads.
	g0 := graph.Path(5, 0.0, 1.0)
	est0 := estimate(NewIC(g0), []graph.NodeID{0}, 100)
	if est0.Spread != 0 {
		t.Fatalf("spread=%v want 0", est0.Spread)
	}
}

func TestICExampleTwoSpreads(t *testing.T) {
	// Paper Example 2: σ(A)=0.8, σ(B)=0.3628, σ(C)=0.9, σ(D)=0 under IC.
	g := graph.ExampleFigure1()
	m := NewIC(g)
	want := map[graph.NodeID]float64{0: 0.8, 1: 0.3628, 2: 0.9, 3: 0}
	for v, w := range want {
		est := estimate(m, []graph.NodeID{v}, mcRuns)
		if math.Abs(est.Spread-w) > 0.01 {
			t.Errorf("σ(%d) = %v, want %v", v, est.Spread, w)
		}
	}
}

func TestICMatchesExactEnumeration(t *testing.T) {
	r := rng.New(5)
	for trial := 0; trial < 5; trial++ {
		g := graph.ErdosRenyi(6, 10, r)
		g.SetUniformProb(0.3)
		exact := ExactICSpread(g, []graph.NodeID{0, 3})
		est := estimate(NewIC(g), []graph.NodeID{0, 3}, mcRuns)
		if math.Abs(est.Spread-exact) > 0.05 {
			t.Fatalf("trial %d: MC %v vs exact %v", trial, est.Spread, exact)
		}
	}
}

func TestICDuplicateSeedsCountedOnce(t *testing.T) {
	g := graph.Path(4, 1, 1)
	est := estimate(NewIC(g), []graph.NodeID{0, 0, 0}, 50)
	if est.Spread != 3 {
		t.Fatalf("duplicate seeds mishandled: spread %v", est.Spread)
	}
}

func TestICBlockedMask(t *testing.T) {
	g := graph.Path(5, 1, 1)
	s := NewScratch(5)
	blocked := make([]bool, 5)
	blocked[2] = true // cuts the path
	s.SetBlocked(blocked)
	res := NewIC(g).Simulate([]graph.NodeID{0}, rng.New(1), s)
	if res.Spread(1) != 1 { // only node 1 activates
		t.Fatalf("blocked spread %v want 1", res.Spread(1))
	}
	// Blocked seed contributes nothing and is not placed.
	if res := NewIC(g).Simulate([]graph.NodeID{2}, rng.New(1), s); res.Activated != 0 {
		t.Fatalf("blocked seed activated %d nodes", res.Activated)
	}
}

func TestMonteCarloDeterministicAcrossWorkers(t *testing.T) {
	g := graph.ErdosRenyi(300, 2000, rng.New(7))
	g.SetUniformProb(0.1)
	m := NewIC(g)
	a := MonteCarlo(m, []graph.NodeID{1, 2, 3}, MCOptions{Runs: 500, Seed: 9, Workers: 1})
	b := MonteCarlo(m, []graph.NodeID{1, 2, 3}, MCOptions{Runs: 500, Seed: 9, Workers: 8})
	if a.Spread != b.Spread || a.OpinionSpread != b.OpinionSpread {
		t.Fatalf("estimates differ across worker counts: %v vs %v", a.Spread, b.Spread)
	}
}

// TestTallyFrequent: Tally.Frequent marks what counting run j on the stream
// rng.Split(Seed, j) one run at a time marks — at 1, 2, 3 and 8 workers —
// and FrequentFrom what counting every run on one stream marks, at every
// quorum, under a mask and then without one, on one Tally reused across
// all the calls.
func TestTallyFrequent(t *testing.T) {
	g := graph.ErdosRenyi(300, 2000, rng.New(7))
	g.SetUniformProb(0.15)
	m := NewIC(g)
	seeds := []graph.NodeID{1, 2, 3}
	blocked := make([]bool, g.NumNodes())
	for v := range blocked {
		blocked[v] = v%5 == 4
	}
	const runs = 9
	var tally Tally
	for _, mask := range [][]bool{blocked, nil} {
		split, one := make([]int, g.NumNodes()), make([]int, g.NumNodes())
		s, r := NewScratch(g.NumNodes()), rng.New(77)
		s.SetBlocked(mask)
		for j := 0; j < runs; j++ {
			m.Simulate(seeds, rng.Split(77, uint64(j)), s)
			for _, v := range s.Activated() {
				split[v]++
			}
			m.Simulate(seeds, r, s)
			for _, v := range s.Activated() {
				one[v]++
			}
		}
		for _, quorum := range []int{1, 5, runs} {
			marked := func(counts []int) []graph.NodeID {
				var out []graph.NodeID
				for v, c := range counts {
					if c >= quorum {
						out = append(out, graph.NodeID(v))
					}
				}
				return out
			}
			want := marked(split)
			for _, workers := range []int{1, 2, 3, 8} {
				got := tally.Frequent(m, seeds, mask, quorum, MCOptions{Runs: runs, Seed: 77, Workers: workers}, []graph.NodeID{99})
				if !slices.Equal(got[1:], want) || got[0] != 99 {
					t.Fatalf("masked=%v quorum %d, workers=%d: got %v, want 99 then %v", mask != nil, quorum, workers, got, want)
				}
			}
			got := tally.FrequentFrom(m, seeds, mask, quorum, runs, rng.New(77), nil)
			slices.Sort(got)
			if want := marked(one); !slices.Equal(got, want) {
				t.Fatalf("masked=%v quorum %d, one stream: got %v, want %v", mask != nil, quorum, got, want)
			}
		}
	}
}

// peakGoroutines is a Model that records the most goroutines alive during
// any of its runs.
type peakGoroutines struct {
	Model
	peak atomic.Int64
}

func (p *peakGoroutines) Simulate(seeds []graph.NodeID, r *rng.RNG, s *Scratch) Result {
	for n := int64(runtime.NumGoroutine()); ; {
		if old := p.peak.Load(); n <= old || p.peak.CompareAndSwap(old, n) {
			break
		}
	}
	return p.Model.Simulate(seeds, r, s)
}

// TestMonteCarloCapsWorkers: Workers from a library caller is capped like
// every parallel loop's — asking for 1<<20 starts max(16, 2·GOMAXPROCS)
// goroutines at most, not one (and one Scratch) per run — and the estimate
// is Workers: 1's, bit for bit.
func TestMonteCarloCapsWorkers(t *testing.T) {
	g := graph.ErdosRenyi(300, 2000, rng.New(7))
	g.SetUniformProb(0.1)
	seeds := []graph.NodeID{1, 2, 3}
	m := &peakGoroutines{Model: NewIC(g)}
	base := runtime.NumGoroutine()
	got := MonteCarlo(m, seeds, MCOptions{Runs: 2000, Seed: 9, Workers: 1 << 20})
	if extra, limit := int(m.peak.Load())-base, max(16, 2*runtime.GOMAXPROCS(0)); extra >= limit {
		t.Fatalf("Workers: 1<<20 ran %d goroutines beside the caller, want fewer than %d", extra, limit)
	}
	if want := MonteCarlo(NewIC(g), seeds, MCOptions{Runs: 2000, Seed: 9, Workers: 1}); got != want {
		t.Fatalf("capped estimate %+v, one worker's %+v", got, want)
	}
}

func TestICMonotoneInSeeds(t *testing.T) {
	g := graph.ErdosRenyi(200, 1200, rng.New(11))
	g.SetUniformProb(0.1)
	m := NewIC(g)
	s1 := estimate(m, []graph.NodeID{0}, 4000)
	s2 := estimate(m, []graph.NodeID{0, 1, 2, 3, 4}, 4000)
	if s2.Spread+5 < s1.Spread+1 {
		t.Fatalf("adding seeds reduced activation: %v vs %v", s2.Spread, s1.Spread)
	}
}

func TestScratchActivationOrder(t *testing.T) {
	g := graph.Path(4, 1, 1)
	m := NewIC(g)
	s := NewScratch(4)
	m.Simulate([]graph.NodeID{0}, rng.New(1), s)
	order := s.Activated()
	if len(order) != 4 || order[0] != 0 || order[1] != 1 || order[2] != 2 || order[3] != 3 {
		t.Fatalf("activation order %v", order)
	}
	for v := graph.NodeID(0); v < 4; v++ {
		if !s.WasActivated(v) {
			t.Fatalf("node %d not marked active", v)
		}
	}
}

func TestScratchEpochIsolation(t *testing.T) {
	g := graph.Path(4, 0, 1) // p=0: only seed activates
	m := NewIC(g)
	s := NewScratch(4)
	m.Simulate([]graph.NodeID{0}, rng.New(1), s)
	m.Simulate([]graph.NodeID{3}, rng.New(1), s)
	if s.WasActivated(0) {
		t.Fatal("stale activation leaked across runs")
	}
	if !s.WasActivated(3) {
		t.Fatal("current activation missing")
	}
}

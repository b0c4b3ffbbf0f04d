package diffusion

import (
	"cmp"
	"context"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/holisticim/holisticim/internal/graph"
	"github.com/holisticim/holisticim/internal/par"
	"github.com/holisticim/holisticim/internal/rng"
)

// Estimate is a Monte-Carlo aggregate over many simulation runs.
type Estimate struct {
	Runs            int
	Spread          float64 // σ(S) = E[Γ(S)]
	OpinionSpread   float64 // σ_o(S) = E[Γ_o(S)]
	PositiveSpread  float64 // E[Σ_{o'>0} o']
	NegativeSpread  float64 // E[Σ_{o'<0} |o'|]
	SpreadVariance  float64 // sample variance of Γ(S) across runs
	OpinionVariance float64 // sample variance of Γ_o(S) across runs
}

// EffectiveOpinionSpread returns σ_λ^o(S) = E[Γ_λ^o(S)] for the penalty λ.
func (e Estimate) EffectiveOpinionSpread(lambda float64) float64 {
	return e.PositiveSpread - lambda*e.NegativeSpread
}

// MCOptions configures a Monte-Carlo estimation.
type MCOptions struct {
	Runs    int    // number of simulations (paper default: 10000)
	Seed    uint64 // master seed; run i uses the stream rng.Split(Seed, i)
	Workers int    // goroutines, as par.Workers resolves it: ≤ 0 is GOMAXPROCS, capped at Runs and max(16, 2·GOMAXPROCS)
	// Ctx, when set, lets MonteCarlo stop dispatching runs once the
	// context is cancelled: the estimate then averages only the runs
	// dispatched so far (Estimate.Runs reports how many). Callers that
	// cancel are expected to discard the truncated estimate.
	Ctx context.Context
}

// scratches recycles per-worker scratches across MonteCarlo calls: the
// greedy baselines evaluate O(k·n) seed sets of a few runs each. Only
// MonteCarlo puts into it, and simulate removes the mask it installs before
// returning, so a pooled Scratch never carries a blocked mask.
var scratches sync.Pool

// getScratch returns a pooled workspace for an n-node graph. One sized for
// another graph is dropped, never resized.
func getScratch(n int32) *Scratch {
	if s, _ := scratches.Get().(*Scratch); s != nil && s.n == n {
		return s
	}
	return NewScratch(n)
}

// workers is simulate's per-worker state: worker w's Scratch and stream,
// allocated by the worker on its first run, off the others' cache lines.
type workers struct {
	scratch []*Scratch
	streams []*rng.RNG
}

// simulate is the one Monte-Carlo loop: opts.Runs simulations of m from
// seeds, claimed one at a time through par.For by workers that each own a
// Scratch, with blocked (nil for none) installed, and an RNG, kept in ws. Run
// i always consumes the stream rng.Split(opts.Seed, i), whichever worker
// claims it; visit sees its result and the worker's scratch before that
// worker starts another run. It returns how many runs were dispatched: all
// of them unless opts.Ctx was cancelled first.
func simulate(m Model, seeds []graph.NodeID, blocked []bool, opts MCOptions, ws *workers, visit func(worker, run int, res Result, s *Scratch)) int {
	ctx := cmp.Or(opts.Ctx, context.Background())
	n := m.Graph().NumNodes()
	width := par.Workers(opts.Workers, opts.Runs)
	if len(ws.scratch) < width {
		ws.scratch = append(ws.scratch, make([]*Scratch, width-len(ws.scratch))...)
		ws.streams = append(ws.streams, make([]*rng.RNG, width-len(ws.streams))...)
	}
	for _, s := range ws.scratch {
		if s != nil {
			s.SetBlocked(blocked)
		}
	}
	dispatched := par.For(ctx, opts.Runs, 1, width, func(w, run, _ int) {
		if ws.scratch[w] == nil {
			ws.scratch[w], ws.streams[w] = getScratch(n), rng.New(0)
			ws.scratch[w].SetBlocked(blocked)
		}
		ws.streams[w].Reseed(rng.SplitSeed(opts.Seed, uint64(run)))
		visit(w, run, m.Simulate(seeds, ws.streams[w], ws.scratch[w]), ws.scratch[w])
	})
	for _, s := range ws.scratch {
		if s != nil {
			s.SetBlocked(nil)
		}
	}
	return dispatched
}

// MonteCarlo estimates the expected spread quantities of a seed set by
// averaging opts.Runs independent simulations through simulate, on pooled
// scratches. The estimate is deterministic given opts.Seed — independent of
// worker count — because run i always consumes the stream
// rng.Split(Seed, i) and per-run results are reduced in run order.
func MonteCarlo(m Model, seeds []graph.NodeID, opts MCOptions) Estimate {
	if opts.Runs <= 0 {
		opts.Runs = 10000
	}
	stats := make([]Result, opts.Runs)
	numSeeds := countDistinct(seeds)
	var ws workers
	dispatched := simulate(m, seeds, nil, opts, &ws, func(_, run int, res Result, _ *Scratch) { stats[run] = res })
	for _, s := range ws.scratch {
		if s != nil {
			scratches.Put(s)
		}
	}

	est := Estimate{Runs: dispatched}
	var sumS, sumS2, sumO, sumO2 float64
	for _, res := range stats[:dispatched] {
		spread := res.Spread(numSeeds)
		sumS += spread
		sumS2 += spread * spread
		sumO += res.OpinionSum
		sumO2 += res.OpinionSum * res.OpinionSum
		est.PositiveSpread += res.PositiveSum
		est.NegativeSpread += res.NegativeSum
	}
	if dispatched == 0 {
		return est
	}
	rn := float64(dispatched)
	est.Spread = sumS / rn
	est.OpinionSpread = sumO / rn
	est.PositiveSpread /= rn
	est.NegativeSpread /= rn
	if dispatched > 1 {
		est.SpreadVariance = (sumS2 - sumS*sumS/rn) / (rn - 1)
		est.OpinionVariance = (sumO2 - sumO*sumO/rn) / (rn - 1)
	}
	return est
}

// countDistinct returns how many seeds a run places: duplicates count once.
func countDistinct(seeds []graph.NodeID) int {
	seen := make(map[graph.NodeID]struct{}, len(seeds))
	for _, v := range seeds {
		seen[v] = struct{}{}
	}
	return len(seen)
}

// Tally counts, over a batch of Monte-Carlo runs from one seed set, how
// many runs activate each node: ScoreGreedy's activation probe. The zero
// value is ready to use. It keeps its scratches and buffers between batches
// and never pools them, so they are garbage with the Tally. Not safe for
// concurrent use.
type Tally struct {
	ws      workers
	one     *Scratch         // FrequentFrom's
	counts  []int32          // counts[v]: runs of the batch that activated v, all zero between batches
	touched [][]graph.NodeID // touched[w]: the v worker w counted first in the batch
}

// Frequent runs opts.Runs simulations of m from seeds with blocked
// installed, through the loop and streams MonteCarlo uses, and appends to
// out, in ascending id order, every node activated in at least quorum of
// them. The workers add their runs' activations into one count per node,
// atomically; integer sums do not depend on who ran what, so what it
// appends is the same at any opts.Workers.
func (t *Tally) Frequent(m Model, seeds []graph.NodeID, blocked []bool, quorum int, opts MCOptions, out []graph.NodeID) []graph.NodeID {
	t.grow(m, par.Workers(opts.Workers, opts.Runs))
	simulate(m, seeds, blocked, opts, &t.ws, func(w, _ int, _ Result, s *Scratch) {
		touched := t.touched[w]
		for _, v := range s.Activated() {
			if atomic.AddInt32(&t.counts[v], 1) == 1 {
				touched = append(touched, v)
			}
		}
		t.touched[w] = touched
	})
	start := len(out)
	for w, touched := range t.touched {
		out = t.marks(touched, quorum, out)
		t.touched[w] = touched[:0]
	}
	slices.Sort(out[start:])
	return out
}

// FrequentFrom is Frequent on the caller alone, with every run drawing from
// r in turn, and appends the marked nodes in the order they were first
// activated.
func (t *Tally) FrequentFrom(m Model, seeds []graph.NodeID, blocked []bool, quorum, runs int, r *rng.RNG, out []graph.NodeID) []graph.NodeID {
	t.grow(m, 1)
	if t.one == nil {
		t.one = NewScratch(m.Graph().NumNodes())
	}
	t.one.SetBlocked(blocked)
	touched := t.touched[0]
	for run := 0; run < runs; run++ {
		m.Simulate(seeds, r, t.one)
		for _, v := range t.one.Activated() {
			if t.counts[v] == 0 {
				touched = append(touched, v)
			}
			t.counts[v]++
		}
	}
	t.one.SetBlocked(nil)
	out = t.marks(touched, quorum, out)
	t.touched[0] = touched[:0]
	return out
}

// grow readies the counts for m's graph and a touched list per worker.
func (t *Tally) grow(m Model, workers int) {
	if t.counts == nil {
		t.counts = make([]int32, m.Graph().NumNodes())
	}
	for len(t.touched) < workers {
		t.touched = append(t.touched, nil)
	}
}

// marks appends the nodes of touched whose count reaches quorum, in
// order, and clears their counts.
func (t *Tally) marks(touched []graph.NodeID, quorum int, out []graph.NodeID) []graph.NodeID {
	for _, v := range touched {
		if t.counts[v] >= int32(quorum) {
			out = append(out, v)
		}
		t.counts[v] = 0
	}
	return out
}

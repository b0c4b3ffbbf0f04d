package diffusion

import (
	"context"
	"runtime"
	"sync"

	"github.com/holisticim/holisticim/internal/graph"
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
	Workers int    // 0 = GOMAXPROCS
	// Ctx, when set, lets MonteCarlo stop dispatching runs once the
	// context is cancelled: the estimate then averages only the runs
	// dispatched so far (Estimate.Runs reports how many). Callers that
	// cancel are expected to discard the truncated estimate.
	Ctx context.Context
}

// scratches recycles per-worker workspaces across MonteCarlo calls: the
// greedy baselines evaluate O(k·n) seed sets of a few runs each. Only
// MonteCarlo puts into it, so a pooled Scratch never carries a blocked mask.
var scratches sync.Pool

// getScratch returns a pooled workspace for an n-node graph. One sized for
// another graph is dropped, never resized.
func getScratch(n int32) *Scratch {
	if s, _ := scratches.Get().(*Scratch); s != nil && s.n == n {
		return s
	}
	return NewScratch(n)
}

func (o *MCOptions) normalize() {
	if o.Runs <= 0 {
		o.Runs = 10000
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.Workers > o.Runs {
		o.Workers = o.Runs
	}
}

// MonteCarlo estimates the expected spread quantities of a seed set by
// averaging opts.Runs independent simulations. The estimate is
// deterministic given opts.Seed — independent of worker count — because
// run i always consumes the stream rng.Split(Seed, i) and per-run results
// are reduced in run order.
func MonteCarlo(m Model, seeds []graph.NodeID, opts MCOptions) Estimate {
	opts.normalize()
	stats := make([]Result, opts.Runs)
	var wg sync.WaitGroup
	next := make(chan int, opts.Workers)
	n := m.Graph().NumNodes()
	numSeeds := countDistinct(seeds)
	for w := 0; w < opts.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			scratch := getScratch(n)
			defer scratches.Put(scratch)
			r := rng.New(0)
			for i := range next {
				r.Reseed(rng.SplitSeed(opts.Seed, uint64(i)))
				stats[i] = m.Simulate(seeds, r, scratch)
			}
		}()
	}
	dispatched := 0
	for i := 0; i < opts.Runs; i++ {
		if opts.Ctx != nil && opts.Ctx.Err() != nil {
			break
		}
		next <- i
		dispatched++
	}
	close(next)
	wg.Wait()

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

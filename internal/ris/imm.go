package ris

import (
	"context"
	"math"

	"github.com/holisticim/holisticim/internal/graph"
	"github.com/holisticim/holisticim/internal/im"
)

// IMM implements the martingale-based successor of TIM+ (Tang, Shi, Xiao —
// "Influence Maximization in Near-Linear Time: A Martingale Approach",
// SIGMOD'15), which the paper cites as the most efficient RIS algorithm.
//
// Sampling phase (Collection.SampleIMM, shared with the sketch index's
// build): lower-bound OPT over geometrically shrinking guesses, then top
// up to θ = λ*/LB sets. Selection phase: solve max coverage on them. RR
// sets are reused across phases (the martingale analysis permits it —
// that is IMM's improvement over TIM+).
type IMM struct {
	g    *graph.Graph
	kind ModelKind
	opts TIMOptions // same knobs: ε, ℓ, seed, workers, cap
}

// NewIMM returns an IMM selector over g.
func NewIMM(g *graph.Graph, kind ModelKind, opts TIMOptions) *IMM {
	opts.Epsilon = CanonicalEpsilon(opts.Epsilon)
	if opts.Ell <= 0 {
		opts.Ell = 1
	}
	return &IMM{g: g, kind: kind, opts: opts}
}

// Name implements im.Selector.
func (t *IMM) Name() string { return "IMM" }

// SampleIMM runs IMM's sampling phase for a budget of k seeds, growing c
// with sets of the stream keyed by seed. OPT lower-bounding: for
// geometrically shrinking guesses x = n/2^i of OPT, hold λ'/x sets, run
// max coverage, and accept lb = n·F/(1+ε') once n·F ≥ (1+ε')·x (lb = 1 if
// no guess is accepted). Then top up to θ = λ*/lb sets. Sets are reused
// across rounds, as the martingale analysis permits. workers bounds the
// sampling goroutines and cannot change the sets; a positive maxSets
// clips every round's target, reported as capped.
//
// An interruption returns the context's error: with lb == 0 when it
// struck during OPT lower-bounding, with the accepted bound when it
// struck during the top-up. Completed chunks stay in c either way.
func (c *Collection) SampleIMM(ctx context.Context, k int, eps, ell float64, seed uint64, workers, maxSets int) (lb float64, capped bool, err error) {
	n := float64(c.g.NumNodes())
	growTo := func(theta int) error {
		if maxSets > 0 && theta > maxSets {
			theta, capped = maxSets, true
		}
		if c.Len() >= theta {
			return nil
		}
		return c.GenerateParallelCtx(ctx, theta-c.Len(), seed, workers)
	}
	epsPrime := IMMEpsPrime(eps)
	lambdaPrime := IMMLambdaPrime(n, k, eps, ell)
	bound := 1.0
	for i, rounds := 1, max(1, int(math.Ceil(math.Log2(n)))-1); i <= rounds; i++ {
		x := n / math.Exp2(float64(i))
		if err := growTo(int(math.Ceil(lambdaPrime / x))); err != nil {
			return 0, capped, err
		}
		if _, frac := c.MaxCoverage(k); n*frac >= (1+epsPrime)*x {
			bound = IMMLowerBound(n, frac, eps)
			break
		}
	}
	return bound, capped, growTo(IMMTheta(n, k, eps, ell, bound))
}

// Select implements im.Selector: the sampling phase on up to
// TIMOptions.Workers goroutines — cancellation lands within a small batch of
// RR sets per worker — then max coverage over the sample, which like the
// lower-bounding rounds' own coverage passes stays on the caller.
func (t *IMM) Select(ctx context.Context, k int) (im.Result, error) {
	n := t.g.NumNodes()
	res := im.Result{Algorithm: t.Name()}
	if err := im.CheckK(k, n); err != nil {
		return res, err
	}
	tr := im.StartTracker(ctx)

	col := NewCollection(t.g, t.kind)
	lb, capped, err := col.SampleIMM(ctx, k, t.opts.Epsilon, t.opts.Ell, t.opts.Seed, t.opts.Workers, t.opts.ThetaCap)
	if capped {
		res.AddMetric("theta_capped", 1)
	}
	phase := "OPT lower-bounding"
	if lb > 0 { // a bound was accepted: whatever followed was the top-up
		res.AddMetric("lower_bound", lb)
		phase = "node-selection sampling"
	}
	if err != nil {
		return res, interrupted(tr, &res, phase, err)
	}
	seeds, frac := col.MaxCoverage(k)
	res.AddMetric("theta", float64(col.Len()))
	res.AddMetric("rrset_bytes", float64(col.MemoryFootprint()))
	res.AddMetric("coverage", frac)
	res.AddMetric("estimated_spread", frac*float64(n))
	for _, s := range seeds {
		if err := tr.Interrupted(&res); err != nil {
			return res, err
		}
		tr.Seed(&res, s)
	}
	tr.Finish(&res)
	return res, nil
}

var _ im.Selector = (*IMM)(nil)

package ris

import (
	"context"
	"fmt"
	"math"

	"github.com/holisticim/holisticim/internal/graph"
	"github.com/holisticim/holisticim/internal/im"
)

// interrupted marks res partial and wraps err (a ctx error observed in
// phase) in the uniform interruption error shared by TIM+ and IMM.
func interrupted(tr *im.Tracker, res *im.Result, phase string, err error) error {
	res.Partial = true
	tr.Finish(res)
	return fmt.Errorf("im: %s interrupted during %s: %w", res.Algorithm, phase, err)
}

// TIMPlus implements TIM+ (Tang, Xiao, Shi — "Influence Maximization:
// Near-Optimal Time Complexity Meets Practical Efficiency", SIGMOD'14):
//
//  1. KPT estimation (their Algorithm 2): sample geometrically growing
//     batches of RR sets until the average κ(R) = 1 − (1 − w(R)/m)^k
//     crosses 1/2^i, yielding KPT* — a constant-factor lower bound of the
//     optimal expected spread OPT;
//  2. the TIM+ refinement: run max-coverage on the phase-1 sets, re-
//     estimate the winner's coverage on fresh sets, and take KPT+ =
//     max(KPT*, n·F/(1+ε'));
//  3. node selection: sample θ = λ/KPT+ RR sets, λ = (8+2ε)·n·(ℓ·ln n +
//     ln C(n,k) + ln 2)/ε², and greedily solve max coverage.
//
// The θ formula is what makes TIM+ memory-hungry at small ε — the
// behaviour the paper's scalability experiments document (Table 3,
// Figure 6i). ThetaCap exists so the experiment harness can bound the
// blow-up on scaled datasets while recording that capping occurred.
type TIMPlus struct {
	g    *graph.Graph
	kind ModelKind
	opts TIMOptions
}

// TIMOptions configures TIM+.
type TIMOptions struct {
	// Epsilon is the approximation slack ε (paper experiments: 0.1).
	Epsilon float64
	// Ell is the failure-probability exponent ℓ (default 1 ⇒ success with
	// probability ≥ 1 − 1/n).
	Ell float64
	// Seed drives all sampling.
	Seed uint64
	// Workers bounds the goroutines that sample RR sets (0 = GOMAXPROCS).
	// Set i is a function of (Seed, i) alone, so it changes no set, θ or seed.
	Workers int
	// ThetaCap, when positive, bounds the number of phase-2 RR sets. The
	// run records metric "theta_capped"=1 when the cap bites.
	ThetaCap int
	// MemoryBudget, when positive, aborts the run before phase 2 if the
	// projected RR-set storage exceeds it — reproducing the paper's "TIM+
	// crashed ... owing to its huge memory requirement" observations
	// without actually exhausting the machine. Aborted runs return no
	// seeds and record metric "aborted_oom" = projected bytes.
	MemoryBudget int64
}

// NewTIMPlus returns a TIM+ selector over g for the given model kind.
func NewTIMPlus(g *graph.Graph, kind ModelKind, opts TIMOptions) *TIMPlus {
	opts.Epsilon = CanonicalEpsilon(opts.Epsilon)
	if opts.Ell <= 0 {
		opts.Ell = 1
	}
	return &TIMPlus{g: g, kind: kind, opts: opts}
}

// Name implements im.Selector.
func (t *TIMPlus) Name() string { return "TIM+" }

// Select implements im.Selector. All three RR-sampling phases run through
// Collection.GenerateParallelCtx on up to TIMOptions.Workers goroutines, so
// cancellation lands within a small batch of sets per worker even when θ is
// in the millions — exactly the loops the paper's scalability experiments
// show dominating TIM+'s runtime. The κ sums of phase 1 and the three
// max-coverage passes stay on the caller.
func (t *TIMPlus) Select(ctx context.Context, k int) (im.Result, error) {
	n := t.g.NumNodes()
	res := im.Result{Algorithm: t.Name()}
	if err := im.CheckK(k, n); err != nil {
		return res, err
	}
	tr := im.StartTracker(ctx)
	nf := float64(n)
	mf := float64(t.g.NumEdges())
	eps := t.opts.Epsilon
	ell := t.opts.Ell

	// ---- Phase 1: KPT* estimation (TIM Algorithm 2).
	kptCol := NewCollection(t.g, t.kind)
	kptStar := 1.0
	logn := math.Log(nf)
	maxI := int(math.Floor(math.Log2(nf))) - 1
	if maxI < 1 {
		maxI = 1
	}
	for i := 1; i <= maxI; i++ {
		ci := int(math.Ceil((6*ell*logn + 6*math.Log(float64(maxI+1))) * math.Exp2(float64(i))))
		if kptCol.Len() < ci {
			if err := kptCol.GenerateParallelCtx(ctx, ci-kptCol.Len(), t.opts.Seed, t.opts.Workers); err != nil {
				return res, interrupted(tr, &res, "KPT estimation", err)
			}
		}
		sumKappa := 0.0
		for s := 0; s < kptCol.Len(); s++ {
			w := 0.0
			for _, v := range kptCol.Set(s) {
				w += float64(t.g.InDegree(v))
			}
			sumKappa += 1 - math.Pow(1-w/mf, float64(k))
		}
		if sumKappa/float64(kptCol.Len()) > 1/math.Exp2(float64(i)) {
			kptStar = nf * sumKappa / (2 * float64(kptCol.Len()))
			break
		}
	}
	res.AddMetric("kpt_star", kptStar)
	res.AddMetric("phase1_rrsets", float64(kptCol.Len()))

	// ---- TIM+ refinement: KPT+ via the phase-1 winner's coverage on
	// fresh sets.
	epsPrime := 5 * math.Cbrt(ell*eps*eps/(ell+float64(k)))
	sPrime, _ := kptCol.MaxCoverage(k)
	lambdaPrime := (2 + epsPrime) * ell * nf * logn / (epsPrime * epsPrime)
	thetaPrime := int(math.Ceil(lambdaPrime / kptStar))
	if t.opts.ThetaCap > 0 && thetaPrime > t.opts.ThetaCap {
		thetaPrime = t.opts.ThetaCap
		res.AddMetric("theta_capped", 1)
	}
	refineCol := NewCollection(t.g, t.kind)
	if err := refineCol.GenerateParallelCtx(ctx, thetaPrime, t.opts.Seed+1, t.opts.Workers); err != nil {
		return res, interrupted(tr, &res, "KPT refinement", err)
	}
	f := refineCol.FractionCoveredBy(sPrime)
	kptPlus := math.Max(f*nf/(1+epsPrime), kptStar)
	res.AddMetric("kpt_plus", kptPlus)
	res.AddMetric("refine_rrsets", float64(refineCol.Len()))

	// ---- Phase 2: node selection.
	lambda := (8 + 2*eps) * nf * (ell*logn + logNChooseK(nf, float64(k)) + math.Ln2) / (eps * eps)
	theta := int(math.Ceil(lambda / kptPlus))
	if theta < 1 {
		theta = 1
	}
	if t.opts.MemoryBudget > 0 {
		// Project storage from the phase-1 sample's average set size in the
		// reference implementations' layout, whose crashes the paper reports:
		// nodes (4B each) in both set and inverted index, plus vector headers.
		avgSize := 1.0
		if kptCol.Len() > 0 {
			avgSize = float64(len(kptCol.Members())) / float64(kptCol.Len())
		}
		projected := int64(float64(theta) * (avgSize*8 + 48))
		if projected > t.opts.MemoryBudget {
			res.AddMetric("aborted_oom", float64(projected))
			res.AddMetric("theta", float64(theta))
			tr.Finish(&res)
			return res, nil
		}
	}
	if t.opts.ThetaCap > 0 && theta > t.opts.ThetaCap {
		theta = t.opts.ThetaCap
		res.AddMetric("theta_capped", 1)
	}
	col := NewCollection(t.g, t.kind)
	if err := col.GenerateParallelCtx(ctx, theta, t.opts.Seed+2, t.opts.Workers); err != nil {
		return res, interrupted(tr, &res, "node-selection sampling", err)
	}
	seeds, frac := col.MaxCoverage(k)
	res.AddMetric("theta", float64(theta))
	res.AddMetric("rrset_bytes", float64(col.MemoryFootprint()+refineCol.MemoryFootprint()+kptCol.MemoryFootprint()))
	res.AddMetric("coverage", frac)
	res.AddMetric("estimated_spread", frac*nf)
	// Selection is not incremental: the max-coverage pass yields all k
	// seeds at once, so per-seed progress fires in a burst at the end
	// (still honoring cancellation between reports).
	for _, s := range seeds {
		if err := tr.Interrupted(&res); err != nil {
			return res, err
		}
		tr.Seed(&res, s)
	}
	tr.Finish(&res)
	return res, nil
}

var _ im.Selector = (*TIMPlus)(nil)

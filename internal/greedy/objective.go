// Package greedy implements the simulation-driven baselines the paper
// compares against: Kempe et al.'s GREEDY hill-climbing, the CELF++
// lazy-forward optimization (Goyal et al., WWW'11, incl. the Appendix-C
// notes), and the opinion-aware Modified-GREEDY of the paper's Appendix A.
package greedy

import (
	"context"
	"fmt"

	"github.com/holisticim/holisticim/internal/diffusion"
	"github.com/holisticim/holisticim/internal/graph"
)

// ObjectiveKind selects what a seed set is scored on.
type ObjectiveKind int

const (
	// KindSpread maximizes σ(S) = E[Γ(S)] — classical IM.
	KindSpread ObjectiveKind = iota
	// KindOpinionSpread maximizes σ_o(S) = E[Γ_o(S)] (Def. 6).
	KindOpinionSpread
	// KindEffectiveOpinion maximizes σ_λ^o(S) (Def. 7) — the MEO problem.
	KindEffectiveOpinion
)

func (k ObjectiveKind) String() string {
	switch k {
	case KindSpread:
		return "spread"
	case KindOpinionSpread:
		return "opinion-spread"
	case KindEffectiveOpinion:
		return "effective-opinion"
	default:
		return fmt.Sprintf("ObjectiveKind(%d)", int(k))
	}
}

// Objective scores candidate seed sets. Implementations must be
// deterministic so that greedy comparisons are stable.
type Objective interface {
	Name() string
	Graph() *graph.Graph
	// Value returns the objective for the seed set. Implementations whose
	// evaluation is expensive (Monte-Carlo simulation) honor ctx and
	// return early — with a truncated estimate the caller is expected to
	// discard — when it is cancelled.
	Value(ctx context.Context, seeds []graph.NodeID) float64
}

// MCObjective estimates an objective with Monte-Carlo simulation. Every
// Value call reuses the same master seed — common random numbers — so the
// noise largely cancels in marginal-gain comparisons, exactly as sharing
// simulations across candidates does in the reference implementations.
type MCObjective struct {
	Model   diffusion.Model
	Kind    ObjectiveKind
	Lambda  float64 // penalty for KindEffectiveOpinion
	Runs    int     // MC runs per evaluation (paper: 10000)
	Seed    uint64
	Workers int
}

// NewSpreadObjective returns the classical σ(S) objective.
func NewSpreadObjective(m diffusion.Model, runs int, seed uint64) *MCObjective {
	return &MCObjective{Model: m, Kind: KindSpread, Runs: runs, Seed: seed}
}

// NewEffectiveOpinionObjective returns the MEO objective σ_λ^o(S) under
// the given (opinion-aware) model.
func NewEffectiveOpinionObjective(m diffusion.Model, lambda float64, runs int, seed uint64) *MCObjective {
	return &MCObjective{Model: m, Kind: KindEffectiveOpinion, Lambda: lambda, Runs: runs, Seed: seed}
}

// Name implements Objective.
func (o *MCObjective) Name() string {
	return fmt.Sprintf("%s/%s", o.Model.Name(), o.Kind)
}

// Graph implements Objective.
func (o *MCObjective) Graph() *graph.Graph { return o.Model.Graph() }

// Value implements Objective. The Monte-Carlo loop stops dispatching runs
// once ctx is cancelled, so even a single expensive evaluation (the paper
// budget is 10000 runs per candidate) unblocks promptly.
func (o *MCObjective) Value(ctx context.Context, seeds []graph.NodeID) float64 {
	if len(seeds) == 0 {
		return 0
	}
	est := diffusion.MonteCarlo(o.Model, seeds, diffusion.MCOptions{
		Runs: o.Runs, Seed: o.Seed, Workers: o.Workers, Ctx: ctx,
	})
	switch o.Kind {
	case KindSpread:
		return est.Spread
	case KindOpinionSpread:
		return est.OpinionSpread
	case KindEffectiveOpinion:
		return est.EffectiveOpinionSpread(o.Lambda)
	default:
		panic("greedy: unknown objective kind")
	}
}

var _ Objective = (*MCObjective)(nil)

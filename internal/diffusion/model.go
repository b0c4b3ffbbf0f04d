// Package diffusion implements the information-diffusion models of the
// paper as one two-layer engine (Sec. 2.2). The first layer decides who
// activates: an Independent Cascade loop (IC, and WC through the graph's
// probabilities) or a Linear Threshold loop (Kempe et al.). The second
// layer is a rule deciding the final opinion o'_v a node activates with:
//
//	model   first layer   rule   o'_v of a newly activated v
//	IC/WC   cascade       none   0 (opinion-oblivious)
//	LT      threshold     none   0
//	OI-IC   cascade       OI     (o_v ± o'_u)/2, u the activator, − w.p. 1−ϕ(u,v)
//	OI-LT   threshold     OI     (o_v + avg_{u∈In(v)(a)} ± o'_u)/2
//	OC      threshold     OC     OI-LT with ϕ ≡ 1 (Zhang et al., ICDCS'13)
//	IC-N    cascade       ICN    +1 w.p. q under a positive activator, else −1
//	                             (Chen et al., SDM'11)
//
// Seeds keep their personal opinion (±1 under IC-N). A deterministic,
// parallel Monte-Carlo spread estimator runs any of them.
//
// All models share a Scratch workspace with epoch-stamped buffers so that
// repeated simulations perform no per-run clearing and no allocation.
package diffusion

import (
	"github.com/holisticim/holisticim/internal/graph"
	"github.com/holisticim/holisticim/internal/rng"
)

// Result aggregates one simulation run. Opinion fields are zero for
// opinion-oblivious models.
type Result struct {
	Activated   int     // |V(a)|, including seeds
	OpinionSum  float64 // Σ o'_v over activated non-seed nodes (Def. 6)
	PositiveSum float64 // Σ o'_v over activated non-seeds with o'_v > 0
	NegativeSum float64 // Σ |o'_v| over activated non-seeds with o'_v < 0
}

// Spread returns Γ(S) = |V(a)| − |S| for this run (Def. 3).
func (r Result) Spread(numSeeds int) float64 {
	return float64(r.Activated - numSeeds)
}

// EffectiveOpinion returns Γ_λ^o(S) = Σ_{o'>0} o' − λ Σ_{o'<0}|o'| (Def. 7).
func (r Result) EffectiveOpinion(lambda float64) float64 {
	return r.PositiveSum - lambda*r.NegativeSum
}

// Model is a diffusion process bound to a graph. Simulate runs a single
// stochastic diffusion from the given seeds. Implementations must be
// deterministic given the RNG stream, must not retain seeds, and must
// leave the full activation order and per-node final opinions readable
// from the Scratch until the next Simulate call.
type Model interface {
	// Name returns a short identifier ("IC", "LT", "OI-IC", ...).
	Name() string
	// Graph returns the underlying graph.
	Graph() *graph.Graph
	// Simulate runs one diffusion. Seeds listed in the Scratch's blocked
	// mask (if any) are skipped; blocked nodes can neither activate nor
	// relay, modelling the vertex-removed graph G(V \ V(a), E) of
	// ScoreGREEDY.
	Simulate(seeds []graph.NodeID, r *rng.RNG, s *Scratch) Result
}

// Scratch holds reusable per-worker simulation state. Not safe for
// concurrent use; allocate one per goroutine via NewScratch.
type Scratch struct {
	n     int32
	stamp []uint32 // activation epoch stamps
	epoch uint32

	order    []graph.NodeID // activation order of the last run
	frontier []graph.NodeID
	next     []graph.NodeID

	round   []int32   // activation round, valid where stamp matches epoch
	opinion []float64 // o'_v, valid where stamp matches epoch

	// The threshold layer's 20 B/node, allocated by its first run: a
	// scratch that only ever runs cascades never pays for them.
	wsum     []float64 // LT accumulated incoming weight
	thr      []float64 // LT sampled thresholds
	thrStamp []uint32

	blocked []bool // optional; nil means no blocked nodes
}

// NewScratch allocates a workspace for graphs with n nodes.
func NewScratch(n int32) *Scratch {
	return &Scratch{
		n:       n,
		stamp:   make([]uint32, n),
		round:   make([]int32, n),
		opinion: make([]float64, n),
	}
}

// SetBlocked installs a blocked-node mask (length n) applied to subsequent
// simulations, or removes it when mask is nil. The mask is aliased, not
// copied.
func (s *Scratch) SetBlocked(mask []bool) {
	if mask != nil && int32(len(mask)) != s.n {
		panic("diffusion: blocked mask length mismatch")
	}
	s.blocked = mask
}

// begin starts a new run: bumps the epoch (clearing all stamps implicitly)
// and resets the activation order.
func (s *Scratch) begin() {
	s.epoch++
	if s.epoch == 0 { // epoch wrapped: hard-clear stamps once every 2^32 runs
		for i := range s.stamp {
			s.stamp[i] = 0
		}
		for i := range s.thrStamp {
			s.thrStamp[i] = 0
		}
		s.epoch = 1
	}
	s.order = s.order[:0]
	s.frontier = s.frontier[:0]
	s.next = s.next[:0]
}

func (s *Scratch) isActive(v graph.NodeID) bool { return s.stamp[v] == s.epoch }

func (s *Scratch) isBlocked(v graph.NodeID) bool { return s.blocked != nil && s.blocked[v] }

// activate marks v active with the given final opinion and round.
func (s *Scratch) activate(v graph.NodeID, opinion float64, round int32) {
	s.stamp[v] = s.epoch
	s.opinion[v] = opinion
	s.round[v] = round
	s.order = append(s.order, v)
}

// Activated returns the nodes activated by the last run, in activation
// order (seeds first). The slice is invalidated by the next Simulate.
func (s *Scratch) Activated() []graph.NodeID { return s.order }

// WasActivated reports whether v was activated in the last run.
func (s *Scratch) WasActivated(v graph.NodeID) bool { return s.stamp[v] == s.epoch }

// FinalOpinion returns o'_v from the last run; only meaningful when
// WasActivated(v).
func (s *Scratch) FinalOpinion(v graph.NodeID) float64 { return s.opinion[v] }

// accumulate folds a newly activated non-seed node's opinion into res.
func accumulate(res *Result, opinion float64) {
	res.OpinionSum += opinion
	if opinion > 0 {
		res.PositiveSum += opinion
	} else if opinion < 0 {
		res.NegativeSum += -opinion
	}
}

// seedSetup activates the seed set with their personal opinions (o'_s =
// o_s, footnote 3 of the paper), skipping blocked and duplicate seeds.
// Returns the number of seeds actually placed.
func (s *Scratch) seedSetup(g *graph.Graph, seeds []graph.NodeID) int {
	placed := 0
	for _, v := range seeds {
		if s.isBlocked(v) || s.isActive(v) {
			continue
		}
		s.activate(v, g.Opinion(v), 0)
		s.frontier = append(s.frontier, v)
		placed++
	}
	return placed
}

package diffusion

import (
	"fmt"

	"github.com/holisticim/holisticim/internal/graph"
	"github.com/holisticim/holisticim/internal/rng"
)

// Layer selects the first-layer activation dynamics of a model (Sec. 2.2:
// "The OI model can be easily tuned ... to work with both IC and the LT
// models").
type Layer int

const (
	// LayerIC uses Independent Cascade activation (edge probabilities p).
	LayerIC Layer = iota
	// LayerLT uses Linear Threshold activation (edge weights w, thresholds
	// θ_v ~ U[0,1)).
	LayerLT
)

func (l Layer) String() string {
	switch l {
	case LayerIC:
		return "IC"
	case LayerLT:
		return "LT"
	default:
		return fmt.Sprintf("Layer(%d)", int(l))
	}
}

// rule selects the second layer: how a newly activated node's final opinion
// follows from its activators'. See the package comment for the table.
type rule uint8

const (
	ruleNone rule = iota // opinion-oblivious: non-seeds carry opinion 0
	ruleOI               // mix with the activators' opinions, each negated w.p. 1−ϕ
	ruleOC               // OI with ϕ ≡ 1: no interaction coin
	ruleICN              // ±1 polarity under a global quality factor q
)

// sim is every model of the package: a first layer deciding who activates
// and a rule deciding with what opinion.
type sim struct {
	g     *graph.Graph
	name  string
	layer Layer
	rule  rule
	q     float64 // ruleICN's quality factor
}

// NewIC returns the Independent Cascade model over g: at the step after its
// activation, each newly active node u gets one independent chance to
// activate each out-neighbor v with probability p(u,v). For the
// weighted-cascade (WC) variant call g.SetWeightedCascadeProb() first; the
// dynamics are identical.
func NewIC(g *graph.Graph) Model { return &sim{g: g, name: "IC", layer: LayerIC} }

// NewLT returns the Linear Threshold model over g: every node v draws a
// threshold θ_v ~ U[0,1) and activates once the total weight of its active
// in-neighbors reaches it. Weights come from the graph's LT weight layer
// (conventionally 1/|In(v)|, see Graph.SetDefaultLTWeights).
func NewLT(g *graph.Graph) Model { return &sim{g: g, name: "LT", layer: LayerLT} }

// NewOI returns the paper's Opinion-cum-Interaction model (Sec. 2.2) over
// the given first layer. Each newly activated node's final opinion mixes its
// personal opinion with the (possibly negated) final opinions of its
// activators:
//
//	IC layer: o'_v = (o_v + (−1)^α o'_u)/2, α=0 w.p. ϕ(u,v), where u is
//	          the node whose activation attempt succeeded;
//	LT layer: o'_v = (o_v + avg_{u∈In(v)(a)} (−1)^{α(u,v)} o'_u)/2 over the
//	          in-neighbors already active at previous steps.
//
// Once active, a node keeps its effective opinion for the rest of the run.
func NewOI(g *graph.Graph, layer Layer) Model {
	if layer != LayerIC && layer != LayerLT {
		panic("diffusion: unknown OI layer")
	}
	return &sim{g: g, name: "OI-" + layer.String(), layer: layer, rule: ruleOI}
}

// NewOC returns the opinion-aware baseline of Zhang, Dinh and Thai
// ("Maximizing the spread of positive influence in online social networks",
// ICDCS'13) as characterized in the paper: activation follows LT ("the OC
// model is designed to work with LT alone") and a newly activated node's
// opinion depends on its own and its activators', without any interaction
// term — the ϕ ≡ 1 special case of OI-LT:
//
//	o'_v = (o_v + avg_{u∈In(v)(a)} o'_u) / 2.
func NewOC(g *graph.Graph) Model { return &sim{g: g, name: "OC", layer: LayerLT, rule: ruleOC} }

// NewICN returns the IC-N baseline of Chen et al. ("Influence Maximization
// in Social Networks When Negative Opinions May Emerge and Propagate",
// SDM'11), which the paper's Sec. 1 discusses as the only other
// negative-opinion model besides OC. Activation follows IC; a single quality
// factor q ∈ [0,1] governs polarity: a node activated by a positive node
// becomes positive with probability q and negative otherwise, a node
// activated by a negative node always becomes negative (the "strict"
// constraint the paper criticizes), and seeds themselves turn negative with
// probability 1−q. Final opinions are ±1, so Result's opinion fields count
// positive minus negative activations.
func NewICN(g *graph.Graph, q float64) Model {
	if q < 0 || q > 1 {
		panic(fmt.Sprintf("diffusion: IC-N quality factor %v out of [0,1]", q))
	}
	return &sim{g: g, name: "IC-N", layer: LayerIC, rule: ruleICN, q: q}
}

// Name implements Model.
func (m *sim) Name() string { return m.name }

// Graph implements Model.
func (m *sim) Graph() *graph.Graph { return m.g }

// Simulate implements Model.
func (m *sim) Simulate(seeds []graph.NodeID, r *rng.RNG, s *Scratch) Result {
	s.begin()
	placed := s.seedSetup(m.g, seeds)
	if m.rule == ruleICN {
		// IC-N seeds carry ±1 rather than their personal opinion.
		for _, v := range s.order {
			s.opinion[v] = 1
			if r.Float64() >= m.q {
				s.opinion[v] = -1
			}
		}
	}
	var res Result
	if m.layer == LayerIC {
		res = m.cascade(r, s)
	} else {
		res = m.threshold(r, s)
	}
	res.Activated += placed
	return res
}

// The two first-layer loops below are the hot path of every Monte-Carlo
// estimate and of the EaSyIM/OSIM activation probes (BenchmarkProbe*). The
// opinion hooks are separate methods, too large to inline, reached only on a
// successful activation under a rule, so the oblivious models pay one
// predictable branch per activation for sharing the loop.

// cascade runs the IC first layer from the frontier the seeds left in s.
// It is round-based and shuffles each round's frontier so that when several
// same-round nodes compete to activate a common neighbor the winning
// activator is uniform among them — the unbiased reading of Kempe's "in
// arbitrary order". For plain IC this does not change the spread
// distribution; under a rule the activator determines the propagated
// opinion.
func (m *sim) cascade(r *rng.RNG, s *Scratch) Result {
	rule := m.rule
	start, to := m.g.OutCSR()
	ps, perHead := m.g.ProbColumn()
	var res Result
	for round := int32(1); len(s.frontier) > 0; round++ {
		rng.Shuffle(r, s.frontier)
		s.next = s.next[:0]
		for _, u := range s.frontier {
			base := start[u]
			for i, v := range to[base:start[u+1]] {
				if s.isActive(v) || s.isBlocked(v) {
					continue
				}
				at := base + int64(i) // the arc's p: its own entry, or its head's
				if perHead {
					at = int64(v)
				}
				if r.Float64() < ps[at] {
					op := 0.0
					if rule != ruleNone {
						op = m.cascadeOpinion(u, v, i, r, s)
						accumulate(&res, op)
					}
					s.activate(v, op, round)
					s.next = append(s.next, v)
					res.Activated++
				}
			}
		}
		s.frontier, s.next = s.next, s.frontier
	}
	return res
}

// threshold runs the LT first layer from the frontier the seeds left in s.
// Thresholds are sampled lazily the first time a node receives incoming
// weight in a run; this is distributionally identical to sampling all
// thresholds up front and touches only the diffusion's neighborhood.
func (m *sim) threshold(r *rng.RNG, s *Scratch) Result {
	rule := m.rule
	start, to := m.g.OutCSR()
	ws, perHead := m.g.WeightColumn()
	if s.thrStamp == nil { // all-zero stamps: no threshold drawn at any epoch yet
		s.wsum = make([]float64, s.n)
		s.thr = make([]float64, s.n)
		s.thrStamp = make([]uint32, s.n)
	}
	var res Result
	for round := int32(1); len(s.frontier) > 0; round++ {
		s.next = s.next[:0]
		for _, u := range s.frontier {
			base := start[u]
			for i, v := range to[base:start[u+1]] {
				if s.isActive(v) || s.isBlocked(v) {
					continue
				}
				if s.thrStamp[v] != s.epoch {
					s.thrStamp[v] = s.epoch
					s.thr[v] = r.Float64()
					s.wsum[v] = 0
				}
				at := base + int64(i) // the arc's w: its own entry, or v's row's
				if perHead {
					at = int64(v)
				}
				s.wsum[v] += ws[at]
				if s.wsum[v] >= s.thr[v] {
					op := 0.0
					if rule != ruleNone {
						op = m.thresholdOpinion(v, round, r, s)
						accumulate(&res, op)
					}
					s.activate(v, op, round)
					s.next = append(s.next, v)
					res.Activated++
				}
			}
		}
		s.frontier, s.next = s.next, s.frontier
	}
	return res
}

// cascadeOpinion is the second layer over IC: the final opinion of v, just
// activated by u over u's i-th out-arc.
func (m *sim) cascadeOpinion(u, v graph.NodeID, i int, r *rng.RNG, s *Scratch) float64 {
	ou := s.opinion[u]
	if m.rule == ruleICN {
		if ou >= 0 && r.Float64() < m.q {
			return 1
		}
		return -1
	}
	if r.Float64() >= m.g.OutPhis(u)[i] { // α = 1: v disagrees with u
		ou = -ou
	}
	return (m.g.Opinion(v) + ou) / 2
}

// thresholdOpinion is the second layer over LT: the final opinion of v
// activating at the given round — its own opinion mixed with the average
// over In(v)(a), the in-neighbors active at previous rounds, each negated
// w.p. 1−ϕ under OI and taken as is under OC.
func (m *sim) thresholdOpinion(v graph.NodeID, round int32, r *rng.RNG, s *Scratch) float64 {
	froms := m.g.InNeighbors(v)
	idxs := m.g.InEdgeIndices(v)
	flips := m.rule == ruleOI
	sum := 0.0
	count := 0
	for i, u := range froms {
		if s.stamp[u] != s.epoch || s.round[u] >= round {
			continue
		}
		sign := 1.0
		if flips && r.Float64() >= m.g.PhiAt(int64(idxs[i])) { // α(u,v) = 1
			sign = -1.0
		}
		sum += sign * s.opinion[u]
		count++
	}
	ov := m.g.Opinion(v)
	if count == 0 {
		// Threshold θ=0 edge case: v activated with no previously-active
		// in-neighbor; only the personal opinion contributes.
		return ov / 2
	}
	return (ov + sum/float64(count)) / 2
}

package core

import (
	"container/heap"
	"context"
	"fmt"

	"github.com/holisticim/holisticim/internal/diffusion"
	"github.com/holisticim/holisticim/internal/graph"
	"github.com/holisticim/holisticim/internal/im"
	"github.com/holisticim/holisticim/internal/rng"
)

// ActivationPolicy chooses how ScoreGREEDY updates the activated set V(a)
// after selecting a seed. Algorithm 1 line 11 leaves the mechanism open:
// the paper evaluates by Monte-Carlo simulation, which PolicyMCMajority
// follows; the other two trade that fidelity for determinism or speed, and
// the ablation bench (internal/experiments) compares all three.
type ActivationPolicy int

const (
	// PolicyMCMajority runs ProbeRuns Monte-Carlo simulations from the new
	// seed on the remaining graph and marks nodes activated in at least
	// half of them. Default: matches the paper's MC-driven evaluation. On a
	// graph whose sweeps split (sweepGrain arcs or more) the runs split over
	// the same width, each on its own stream, so the marks do not depend on
	// it; on a smaller one they run on the caller from one stream.
	PolicyMCMajority ActivationPolicy = iota
	// PolicyReach marks nodes whose maximum single-path activation
	// probability from the seed is at least ReachThreshold (Dijkstra over
	// −log p). Deterministic and simulation-free.
	PolicyReach
	// PolicySeedOnly marks only the seed itself — the cheapest discount,
	// useful as an ablation lower bound.
	PolicySeedOnly
)

func (p ActivationPolicy) String() string {
	switch p {
	case PolicyMCMajority:
		return "mc-majority"
	case PolicyReach:
		return "reach"
	case PolicySeedOnly:
		return "seed-only"
	default:
		return fmt.Sprintf("ActivationPolicy(%d)", int(p))
	}
}

// ScoreGreedyOptions configures the selection loop.
type ScoreGreedyOptions struct {
	// Policy picks the V(a) update rule; default PolicyMCMajority.
	Policy ActivationPolicy
	// ProbeModel simulates activations for PolicyMCMajority. Required for
	// that policy; typically the same model the spread will be evaluated
	// under (IC/WC/LT for EaSyIM, OI for OSIM).
	ProbeModel diffusion.Model
	// ProbeRuns is the number of probe simulations per seed (default 20).
	ProbeRuns int
	// ReachThreshold is PolicyReach's activation-probability cutoff
	// (default 0.5).
	ReachThreshold float64
	// Seed drives all probe randomness: on a graph of sweepGrain arcs or
	// more, run j of the probe after pick i draws from
	// rng.Split(rng.SplitSeed(Seed, i), j), the same stream at any worker
	// count; on a smaller one every run draws from rng.New(Seed) in turn.
	Seed uint64
}

// ScoreGreedy is Algorithm 1: repeatedly assign scores with the
// configured scorer on G(V \ V(a)), pick the argmax as the next seed, and
// grow V(a) with the nodes the new seed activates. Only the first seed pays
// the full O(l·(m+n)) pass; each later one re-sums the rows within l
// reverse hops of what the previous seed activated (LevelScorer.Exclude).
type ScoreGreedy struct {
	scorer LevelScorer
	opts   ScoreGreedyOptions
}

// NewScoreGreedy returns the selector. The scorer decides the objective:
// EaSyIM for opinion-oblivious IM, OSIM for MEO.
func NewScoreGreedy(scorer LevelScorer, opts ScoreGreedyOptions) *ScoreGreedy {
	if opts.ProbeRuns <= 0 {
		opts.ProbeRuns = 20
	}
	if opts.ReachThreshold <= 0 {
		opts.ReachThreshold = 0.5
	}
	if opts.Policy == PolicyMCMajority && opts.ProbeModel == nil {
		panic("core: ScoreGreedy with PolicyMCMajority requires a ProbeModel")
	}
	return &ScoreGreedy{scorer: scorer, opts: opts}
}

// Name implements im.Selector.
func (sg *ScoreGreedy) Name() string {
	return "ScoreGreedy(" + sg.scorer.Name() + ")"
}

// Select implements im.Selector. Cancellation is checked before every
// score assignment — the per-seed unit of work (the rescoring pass plus
// the activation probe). Metrics rows_rescored, arcs_rescored and
// state_bytes_per_node report what the scoring read and kept.
func (sg *ScoreGreedy) Select(ctx context.Context, k int) (res im.Result, err error) {
	g := sg.scorer.Graph()
	n := g.NumNodes()
	res = im.Result{Algorithm: sg.Name()}
	if err := im.CheckK(k, n); err != nil {
		return res, err
	}
	tr := im.StartTracker(ctx)

	excluded := make([]bool, n)
	scores := make([]float64, n)
	var p probe
	if g.NumEdges() < sweepGrain {
		p.r = rng.New(sg.opts.Seed)
	}
	defer func() {
		rows, arcs, state := sg.scorer.Work()
		res.AddMetric("rows_rescored", float64(rows))
		res.AddMetric("arcs_rescored", float64(arcs))
		res.AddMetric("state_bytes_per_node", float64(state+8*int64(n))/float64(n))
	}()

	var newly []graph.NodeID // what the last seed excluded, the seed included
	for i := 0; i < k; i++ {
		if err := tr.Interrupted(&res); err != nil {
			return res, err
		}
		if i == 0 {
			sg.scorer.Assign(nil, scores)
		} else {
			sg.scorer.Exclude(newly, scores)
		}
		res.AddMetric("score_assignments", 1)
		pick := ArgmaxScore(scores)
		if pick < 0 {
			// Every node is already marked activated: the estimated spread
			// is saturated and no further seed can improve it. Keep the
			// contract of returning exactly k seeds by filling the
			// remaining budget with the highest-out-degree unselected
			// nodes (any choice is equivalent under the saturated
			// objective); record where saturation happened.
			res.AddMetric("saturated_at", float64(len(res.Seeds)))
			if err := sg.fillRemaining(tr, &res, k); err != nil {
				return res, err
			}
			break
		}
		newly = sg.markActivated(i, pick, excluded, &p, newly[:0])
		tr.Seed(&res, pick)
	}
	tr.Finish(&res)
	return res, nil
}

// fillRemaining tops the seed list up to k with unselected nodes in
// descending out-degree order (ties by id), keeping Select's exactly-k
// contract after the score-based objective saturates.
func (sg *ScoreGreedy) fillRemaining(tr *im.Tracker, res *im.Result, k int) error {
	g := sg.scorer.Graph()
	chosen := make(map[graph.NodeID]bool, len(res.Seeds))
	for _, s := range res.Seeds {
		chosen[s] = true
	}
	for _, v := range graph.TopKByOutDegree(g, int(g.NumNodes())) {
		if len(res.Seeds) >= k {
			break
		}
		if chosen[v] {
			continue
		}
		if err := tr.Interrupted(res); err != nil {
			return err
		}
		chosen[v] = true
		tr.Seed(res, v)
	}
	tr.Finish(res)
	return nil
}

// probe is PolicyMCMajority's reusable state. On a graph under sweepGrain,
// where a sweep stays on the caller, so does the probe: every run of every
// pick draws from the one stream r in turn. On a larger graph r is nil, run
// j of pick i draws from rng.Split(rng.SplitSeed(Seed, i), j), and the runs
// split over the sweep width.
type probe struct {
	tally diffusion.Tally
	r     *rng.RNG
	seed  [1]graph.NodeID
}

// markActivated grows the excluded mask with the seed of pick i and the
// nodes it activates under the configured policy, and appends them to newly.
func (sg *ScoreGreedy) markActivated(i int, seed graph.NodeID, excluded []bool, p *probe, newly []graph.NodeID) []graph.NodeID {
	switch sg.opts.Policy {
	case PolicySeedOnly:
		excluded[seed] = true
		return append(newly, seed)
	case PolicyMCMajority:
		p.seed[0] = seed
		// The seed is active in every run, so it is always among them.
		start, quorum := len(newly), (sg.opts.ProbeRuns+1)/2
		if p.r != nil {
			newly = p.tally.FrequentFrom(sg.opts.ProbeModel, p.seed[:], excluded, quorum, sg.opts.ProbeRuns, p.r, newly)
		} else {
			mc := diffusion.MCOptions{Runs: sg.opts.ProbeRuns, Seed: rng.SplitSeed(sg.opts.Seed, uint64(i)), Workers: sg.scorer.width()}
			newly = p.tally.Frequent(sg.opts.ProbeModel, p.seed[:], excluded, quorum, mc, newly)
		}
		for _, v := range newly[start:] {
			excluded[v] = true
		}
		return newly
	case PolicyReach:
		return sg.markByReach(seed, excluded, newly)
	default:
		panic("core: unknown activation policy")
	}
}

// markByReach marks nodes whose best-path activation probability from the
// seed meets the threshold: a Dijkstra-style search maximizing the product
// of edge probabilities, pruned below the threshold.
func (sg *ScoreGreedy) markByReach(seed graph.NodeID, excluded []bool, newly []graph.NodeID) []graph.NodeID {
	g := sg.scorer.Graph()
	th := sg.opts.ReachThreshold
	best := map[graph.NodeID]float64{seed: 1}
	pq := &probHeap{{seed, 1}}
	for pq.Len() > 0 {
		it := heap.Pop(pq).(probItem)
		if it.prob < best[it.v] {
			continue
		}
		if !excluded[it.v] {
			excluded[it.v] = true
			newly = append(newly, it.v)
		}
		base := g.OutEdgeBase(it.v)
		for j, w := range g.OutNeighbors(it.v) {
			if excluded[w] && w != it.v {
				// already marked (or previously activated) — skip
				continue
			}
			p := it.prob * g.ProbAt(base+int64(j))
			if p < th {
				continue
			}
			if p > best[w] {
				best[w] = p
				heap.Push(pq, probItem{w, p})
			}
		}
	}
	return newly
}

type probItem struct {
	v    graph.NodeID
	prob float64
}

type probHeap []probItem

func (h probHeap) Len() int            { return len(h) }
func (h probHeap) Less(i, j int) bool  { return h[i].prob > h[j].prob }
func (h probHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *probHeap) Push(x interface{}) { *h = append(*h, x.(probItem)) }
func (h *probHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

var _ im.Selector = (*ScoreGreedy)(nil)

// ScoreOf exposes a single full score assignment (no exclusions), which
// the ranking diagnostics and several tests use directly.
func ScoreOf(s Scorer) []float64 {
	return s.Assign(nil, nil)
}

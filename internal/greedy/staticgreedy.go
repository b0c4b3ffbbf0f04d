package greedy

import (
	"container/heap"
	"context"
	"fmt"

	"github.com/holisticim/holisticim/internal/graph"
	"github.com/holisticim/holisticim/internal/im"
	"github.com/holisticim/holisticim/internal/rng"
)

// StaticGreedy implements Cheng et al.'s "StaticGreedy: Solving the
// Scalability-Accuracy Dilemma in Influence Maximization" (CIKM'13),
// cited by the paper among the sampling-with-memoization techniques: a
// fixed ensemble of R live-edge snapshots is drawn once, and greedy seed
// selection evaluates every candidate on the SAME snapshots, making the
// estimated objective truly submodular (so CELF-style lazy evaluation is
// sound) while removing the per-candidate simulation cost of GREEDY.
//
// Snapshots are stored as forward adjacency lists; spread of S is the
// average reachable-set size over snapshots.
type StaticGreedy struct {
	g         *graph.Graph
	snapshots int
	seed      uint64
}

// NewStaticGreedy returns a StaticGreedy selector for the IC model over
// g's edge probabilities. snapshots defaults to 200 when non-positive
// (the original paper uses ~100-200).
func NewStaticGreedy(g *graph.Graph, snapshots int, seed uint64) *StaticGreedy {
	if snapshots <= 0 {
		snapshots = 200
	}
	return &StaticGreedy{g: g, snapshots: snapshots, seed: seed}
}

// Name implements im.Selector.
func (s *StaticGreedy) Name() string { return "StaticGreedy" }

// snapshot is one live-edge world in CSR form.
type snapshot struct {
	start []int32
	to    []graph.NodeID
}

// sample draws the live-edge snapshot ensemble, checking ctx between
// snapshots (each is an O(m) pass, the natural batch size).
func (s *StaticGreedy) sample(ctx context.Context) ([]snapshot, error) {
	g := s.g
	n := g.NumNodes()
	snaps := make([]snapshot, s.snapshots)
	r := rng.New(0)
	deg := make([]int32, n+1)
	var live []bool
	for si := range snaps {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		r.Reseed(rng.SplitSeed(s.seed, uint64(si)))
		// Sample edge liveness in CSR order, then bucket.
		m := g.NumEdges()
		if live == nil {
			live = make([]bool, m)
		}
		for i := range deg {
			deg[i] = 0
		}
		total := int32(0)
		for u := graph.NodeID(0); u < n; u++ {
			base := g.OutEdgeBase(u)
			for j := range g.OutNeighbors(u) {
				l := r.Float64() < g.ProbAt(base+int64(j))
				live[base+int64(j)] = l
				if l {
					deg[u+1]++
					total++
				}
			}
		}
		for i := int32(0); i < n; i++ {
			deg[i+1] += deg[i]
		}
		sn := snapshot{start: append([]int32(nil), deg[:n+1]...), to: make([]graph.NodeID, total)}
		cursor := make([]int32, n)
		for u := graph.NodeID(0); u < n; u++ {
			nbrs := g.OutNeighbors(u)
			base := g.OutEdgeBase(u)
			for j, v := range nbrs {
				if live[base+int64(j)] {
					sn.to[sn.start[u]+cursor[u]] = v
					cursor[u]++
				}
			}
		}
		snaps[si] = sn
	}
	return snaps, nil
}

// Select implements im.Selector with CELF lazy evaluation over the
// snapshot ensemble. Cancellation checkpoints sit between snapshot draws,
// between initial-gain BFS evaluations and between lazy-forward steps.
func (s *StaticGreedy) Select(ctx context.Context, k int) (im.Result, error) {
	g := s.g
	n := g.NumNodes()
	res := im.Result{Algorithm: s.Name()}
	if err := im.CheckK(k, n); err != nil {
		return res, err
	}
	tr := im.StartTracker(ctx)
	snaps, err := s.sample(ctx)
	if err != nil {
		res.Partial = true
		tr.Finish(&res)
		return res, fmt.Errorf("im: %s interrupted while sampling snapshots: %w", s.Name(), err)
	}
	res.AddMetric("snapshots", float64(len(snaps)))

	// Per-snapshot activation state for the growing seed set: covered[si]
	// stamps nodes reached by S in snapshot si, so marginal gains only
	// count newly reached nodes.
	covered := make([][]bool, len(snaps))
	for i := range covered {
		if err := tr.Interrupted(&res); err != nil {
			return res, err
		}
		covered[i] = make([]bool, n)
	}
	visitedStamp := make([]uint32, n)
	epoch := uint32(0)
	queue := make([]graph.NodeID, 0, 256)

	// marginal counts nodes newly reachable from v across snapshots,
	// without mutating state; commit stamps them into covered.
	walk := func(si int, v graph.NodeID, commit bool) int {
		sn := &snaps[si]
		cov := covered[si]
		if cov[v] {
			return 0
		}
		epoch++
		if epoch == 0 {
			for i := range visitedStamp {
				visitedStamp[i] = 0
			}
			epoch = 1
		}
		queue = queue[:0]
		queue = append(queue, v)
		visitedStamp[v] = epoch
		gain := 0
		for head := 0; head < len(queue); head++ {
			u := queue[head]
			gain++
			if commit {
				cov[u] = true
			}
			for _, w := range sn.to[sn.start[u]:sn.start[u+1]] {
				if visitedStamp[w] == epoch || cov[w] {
					continue
				}
				visitedStamp[w] = epoch
				queue = append(queue, w)
			}
		}
		return gain
	}
	marginal := func(v graph.NodeID) float64 {
		total := 0
		for si := range snaps {
			total += walk(si, v, false)
		}
		res.AddMetric("bfs_evaluations", 1)
		return float64(total) / float64(len(snaps))
	}

	// CELF queue (gains are submodular over the fixed ensemble).
	h := make(celfHeap, 0, n)
	for v := graph.NodeID(0); v < n; v++ {
		if err := tr.Interrupted(&res); err != nil {
			return res, err
		}
		h = append(h, &celfNode{v: v, mg1: marginal(v), prevBest: -1, flag: 0})
	}
	heap.Init(&h)
	for len(res.Seeds) < k && h.Len() > 0 {
		if err := tr.Interrupted(&res); err != nil {
			return res, err
		}
		top := h[0]
		if top.flag == len(res.Seeds) {
			heap.Pop(&h)
			for si := range snaps {
				walk(si, top.v, true)
			}
			tr.Seed(&res, top.v)
			continue
		}
		top.mg1 = marginal(top.v)
		top.flag = len(res.Seeds)
		heap.Fix(&h, top.index)
	}
	tr.Finish(&res)
	return res, nil
}

var _ im.Selector = (*StaticGreedy)(nil)

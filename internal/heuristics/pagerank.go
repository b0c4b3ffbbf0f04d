package heuristics

import (
	"context"
	"sort"

	"github.com/holisticim/holisticim/internal/graph"
	"github.com/holisticim/holisticim/internal/im"
)

// PageRank selects the k nodes of highest influence-weighted PageRank on
// the *transpose* graph (mass flows against influence edges, so a node
// that influences many high-rank nodes ranks high). A standard cheap
// baseline for IM rank quality.
type PageRank struct {
	g          *graph.Graph
	damping    float64
	iterations int
}

// NewPageRank returns the selector with the conventional damping 0.85 and
// 50 iterations unless overridden (pass 0 to keep defaults).
func NewPageRank(g *graph.Graph, damping float64, iterations int) *PageRank {
	if damping <= 0 || damping >= 1 {
		damping = 0.85
	}
	if iterations <= 0 {
		iterations = 50
	}
	return &PageRank{g: g, damping: damping, iterations: iterations}
}

// Name implements im.Selector.
func (p *PageRank) Name() string { return "PageRank" }

// Select implements im.Selector, checking cancellation at each power
// iteration (one O(m) pass) and at each reported seed.
func (p *PageRank) Select(ctx context.Context, k int) (im.Result, error) {
	g := p.g
	n := g.NumNodes()
	res := im.Result{Algorithm: p.Name()}
	if err := im.CheckK(k, n); err != nil {
		return res, err
	}
	tr := im.StartTracker(ctx)

	rank := make([]float64, n)
	next := make([]float64, n)
	inv := 1 / float64(n)
	for i := range rank {
		if i&0x3FFF == 0 {
			if err := tr.Interrupted(&res); err != nil {
				return res, err
			}
		}
		rank[i] = inv
	}
	// Mass flows v -> u along the reverse of each influence edge (u,v), so
	// outMass[v] on the reversed graph = Σ_{(u,v)∈E} p(u,v): the total
	// probability mass v distributes back to its influencers.
	outMass := make([]float64, n)
	for u := graph.NodeID(0); u < n; u++ {
		if u&0x3FFF == 0 {
			if err := tr.Interrupted(&res); err != nil {
				return res, err
			}
		}
		base := g.OutEdgeBase(u)
		for i, v := range g.OutNeighbors(u) {
			outMass[v] += g.ProbAt(base + int64(i))
		}
	}
	for it := 0; it < p.iterations; it++ {
		if err := tr.Interrupted(&res); err != nil {
			return res, err
		}
		for i := range next {
			next[i] = (1 - p.damping) * inv
		}
		for u := graph.NodeID(0); u < n; u++ {
			base := g.OutEdgeBase(u)
			for i, v := range g.OutNeighbors(u) {
				if outMass[v] > 0 {
					next[u] += p.damping * rank[v] * g.ProbAt(base+int64(i)) / outMass[v]
				}
			}
		}
		rank, next = next, rank
	}

	ids := make([]graph.NodeID, n)
	for i := range ids {
		if i&0x3FFF == 0 {
			if err := tr.Interrupted(&res); err != nil {
				return res, err
			}
		}
		ids[i] = graph.NodeID(i)
	}
	sort.Slice(ids, func(i, j int) bool {
		if rank[ids[i]] != rank[ids[j]] {
			return rank[ids[i]] > rank[ids[j]]
		}
		return ids[i] < ids[j]
	})
	for _, v := range ids[:k] {
		if err := tr.Interrupted(&res); err != nil {
			return res, err
		}
		tr.Seed(&res, v)
	}
	tr.Finish(&res)
	return res, nil
}

var _ im.Selector = (*PageRank)(nil)

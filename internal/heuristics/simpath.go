package heuristics

import (
	"container/heap"
	"context"
	"sort"

	"github.com/holisticim/holisticim/internal/graph"
	"github.com/holisticim/holisticim/internal/im"
)

// SIMPATH implements Goyal, Lu and Lakshmanan's "SimPath: An Efficient
// Algorithm for Influence Maximization under the Linear Threshold Model"
// (ICDM'11). Under LT the spread of a node equals 1 + the weight of all
// simple paths leaving it, so
//
//	σ(S) = Σ_{s∈S} σ^{V−S+s}(s),
//
// each term enumerable by backtracking with pruning threshold η (paths
// whose weight product drops below η are cut). Two published
// optimizations are included:
//
//   - vertex-cover optimization: spreads are enumerated only for nodes of
//     a (matching-based) vertex cover; each remaining node v derives its
//     spread from its out-neighbors' path sums with v's through-traffic
//     subtracted, using σ^{V}(v) = 1 + Σ_u w(v,u)·σ^{V−v}(u);
//   - look-ahead: a CELF queue is processed in batches of ℓ candidates,
//     and one enumeration per current seed prices all ℓ candidates at
//     once via per-candidate through-counters.
//
// The paper's experiments use η = 1e-3 and look-ahead ℓ = 4 (the EaSyIM
// paper's parameter table), which are the defaults here.
type SIMPATH struct {
	g         *graph.Graph
	eta       float64
	lookahead int
}

// NewSIMPATH returns a SIMPATH selector; zeros keep the published
// defaults (η=1e-3, lookahead=4).
func NewSIMPATH(g *graph.Graph, eta float64, lookahead int) *SIMPATH {
	if eta <= 0 {
		eta = 1e-3
	}
	if lookahead <= 0 {
		lookahead = 4
	}
	return &SIMPATH{g: g, eta: eta, lookahead: lookahead}
}

// Name implements im.Selector.
func (sp *SIMPATH) Name() string { return "SIMPATH" }

// spread enumerates all simple paths from u avoiding `excluded`, pruned
// at η, returning σ^{V−excluded}(u) = 1 + Σ path weights. When track is
// non-nil, through[v] accumulates the weight of enumerated path mass
// whose paths pass through or end at v (v ≠ u), so that the caller can
// price σ^{V−excluded−v}(u) = σ − through[v]. The traversal is iterative
// backtracking (Goyal et al.'s FORWARD/BACKTRACK) with on-path marking.
func (sp *SIMPATH) spread(u graph.NodeID, excluded []bool, through []float64) float64 {
	g := sp.g
	total := 1.0 // the node itself
	// Iterative DFS over simple paths. Each stack frame tracks the next
	// out-edge index to try.
	type frame struct {
		v    graph.NodeID
		edge int
		mass float64
	}
	onPath := make(map[graph.NodeID]bool, 16)
	onPath[u] = true
	stack := []frame{{v: u, edge: 0, mass: 1}}
	pathNodes := []graph.NodeID{u}
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		nbrs := g.OutNeighbors(f.v)
		base := g.OutEdgeBase(f.v)
		advanced := false
		for f.edge < len(nbrs) {
			i := f.edge
			f.edge++
			w := nbrs[i]
			if onPath[w] || (excluded != nil && excluded[w]) {
				continue
			}
			m := f.mass * g.WeightAt(base+int64(i))
			if m < sp.eta {
				continue
			}
			// The path u..v→w contributes m to σ and to through[x] for every
			// node x on it except u (removing x kills this path).
			total += m
			if through != nil {
				for _, x := range pathNodes[1:] {
					through[x] += m
				}
				through[w] += m
			}
			onPath[w] = true
			pathNodes = append(pathNodes, w)
			stack = append(stack, frame{v: w, edge: 0, mass: m})
			advanced = true
			break
		}
		if !advanced {
			delete(onPath, f.v)
			pathNodes = pathNodes[:len(pathNodes)-1]
			stack = stack[:len(stack)-1]
		}
	}
	return total
}

// vertexCover returns a maximal-matching 2-approximate vertex cover of
// the underlying undirected graph.
func (sp *SIMPATH) vertexCover() []bool {
	g := sp.g
	n := g.NumNodes()
	cover := make([]bool, n)
	for u := graph.NodeID(0); u < n; u++ {
		if cover[u] {
			continue
		}
		for _, v := range g.OutNeighbors(u) {
			if !cover[v] {
				cover[u] = true
				cover[v] = true
				break
			}
		}
	}
	return cover
}

type spItem struct {
	v     graph.NodeID
	gain  float64
	round int // seed-set size the gain was computed against
	index int
}

type spHeap []*spItem

func (h spHeap) Len() int           { return len(h) }
func (h spHeap) Less(i, j int) bool { return h[i].gain > h[j].gain }
func (h spHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *spHeap) Push(x interface{}) {
	it := x.(*spItem)
	it.index = len(*h)
	*h = append(*h, it)
}
func (h *spHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// Select implements im.Selector. Path enumerations are SIMPATH's unit of
// work, so the context is checked before each one — in the vertex-cover
// initialization pass and in the batched look-ahead pricing loop — and at
// every chosen seed.
func (sp *SIMPATH) Select(ctx context.Context, k int) (im.Result, error) {
	g := sp.g
	n := g.NumNodes()
	res := im.Result{Algorithm: sp.Name()}
	if err := im.CheckK(k, n); err != nil {
		return res, err
	}
	tr := im.StartTracker(ctx)

	// --- Initial spreads with the vertex-cover optimization.
	cover := sp.vertexCover()
	sigma := make([]float64, n)
	through := make([]float64, n)
	coverThrough := make(map[graph.NodeID][]float64, n/2)
	for v := graph.NodeID(0); v < n; v++ {
		if !cover[v] {
			continue
		}
		if err := tr.Interrupted(&res); err != nil {
			return res, err
		}
		th := make([]float64, n)
		sigma[v] = sp.spread(v, nil, th)
		coverThrough[v] = th
		res.AddMetric("enumerations", 1)
	}
	for v := graph.NodeID(0); v < n; v++ {
		if v&0x3FFF == 0 {
			if err := tr.Interrupted(&res); err != nil {
				return res, err
			}
		}
		if cover[v] {
			continue
		}
		// σ^V(v) = 1 + Σ_u w(v,u)·σ^{V−v}(u); every out-neighbor u of a
		// non-cover node is in the cover (cover property), so its through
		// counters are available.
		total := 1.0
		base := g.OutEdgeBase(v)
		for i, u := range g.OutNeighbors(v) {
			su := sigma[u]
			if th, ok := coverThrough[u]; ok {
				su -= th[v]
			}
			total += g.WeightAt(base+int64(i)) * su
		}
		sigma[v] = total
	}
	coverThrough = nil // release the O(|C|·n) pricing structure

	// --- CELF queue with batched look-ahead.
	h := make(spHeap, 0, n)
	items := make([]*spItem, n)
	for v := graph.NodeID(0); v < n; v++ {
		if v&0x3FFF == 0 {
			if err := tr.Interrupted(&res); err != nil {
				return res, err
			}
		}
		items[v] = &spItem{v: v, gain: sigma[v], round: 0}
		h = append(h, items[v])
	}
	heap.Init(&h)

	seeds := make([]graph.NodeID, 0, k)
	inSeeds := make([]bool, n)
	seedSpread := 0.0 // σ(S) = Σ_s σ^{V−S+s}(s)
	perSeedSpread := make([]float64, 0, k)

	for len(seeds) < k && h.Len() > 0 {
		if err := tr.Interrupted(&res); err != nil {
			return res, err
		}
		top := h[0]
		if top.round == len(seeds) {
			heap.Pop(&h)
			seeds = append(seeds, top.v)
			inSeeds[top.v] = true
			seedSpread += top.gain
			perSeedSpread = append(perSeedSpread, seedSpread)
			tr.Seed(&res, top.v)
			continue
		}
		// Batch the top-ℓ stale candidates.
		batch := make([]*spItem, 0, sp.lookahead)
		for h.Len() > 0 && len(batch) < sp.lookahead && h[0].round != len(seeds) {
			batch = append(batch, heap.Pop(&h).(*spItem))
		}
		// Price σ(S ∪ {x}) for all x in the batch:
		//   Σ_{s∈S} σ^{V−S−x+s}(s) + σ^{V−S}(x)
		// with one enumeration per seed (through counters give the −x
		// corrections) and one enumeration per candidate.
		seedTotals := 0.0
		throughSum := make([]float64, n)
		for i := range through {
			through[i] = 0
		}
		for _, s := range seeds {
			if err := tr.Interrupted(&res); err != nil {
				return res, err
			}
			inSeeds[s] = false // exclude S \ {s}
			total := sp.spread(s, inSeeds, through)
			res.AddMetric("enumerations", 1)
			inSeeds[s] = true
			seedTotals += total
			for v := range throughSum {
				throughSum[v] += through[v]
				through[v] = 0
			}
		}
		for _, it := range batch {
			if err := tr.Interrupted(&res); err != nil {
				return res, err
			}
			cand := sp.spread(it.v, inSeeds, nil)
			res.AddMetric("enumerations", 1)
			newSpread := seedTotals - throughSum[it.v] + cand
			it.gain = newSpread - seedSpread
			it.round = len(seeds)
			heap.Push(&h, it)
		}
	}
	tr.Finish(&res)
	if len(perSeedSpread) > 0 {
		res.AddMetric("estimated_spread", perSeedSpread[len(perSeedSpread)-1])
	}
	return res, nil
}

// EstimateSpreadLT exposes SIMPATH's path-based spread estimator for a
// whole seed set; useful as a deterministic LT spread oracle in tests.
func (sp *SIMPATH) EstimateSpreadLT(seeds []graph.NodeID) float64 {
	n := sp.g.NumNodes()
	inSeeds := make([]bool, n)
	for _, s := range seeds {
		inSeeds[s] = true
	}
	total := 0.0
	for _, s := range seeds {
		inSeeds[s] = false
		total += sp.spread(s, inSeeds, nil)
		inSeeds[s] = true
	}
	return total
}

// sortSeeds is a test helper keeping deterministic comparisons simple.
func sortSeeds(s []graph.NodeID) []graph.NodeID {
	out := append([]graph.NodeID(nil), s...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

var _ im.Selector = (*SIMPATH)(nil)

package diffusion

import (
	"github.com/holisticim/holisticim/internal/graph"
)

// This file contains brute-force exact computations used as test oracles
// on tiny graphs. They enumerate probability-weighted worlds and are
// exponential; callers must keep inputs small (≤ ~20 edges / ~8 nodes).

// ExactICSpread computes σ(S) under IC exactly by enumerating all 2^m
// live-edge worlds (Kempe et al.'s equivalence: an edge (u,v) is live with
// probability p(u,v) independently; the spread is the number of non-seed
// nodes reachable from S over live edges).
func ExactICSpread(g *graph.Graph, seeds []graph.NodeID) float64 {
	m := int(g.NumEdges())
	if m > 22 {
		panic("diffusion: ExactICSpread limited to 22 edges")
	}
	// Flatten edges in out-array order.
	type edge struct {
		u, v graph.NodeID
		p    float64
	}
	edges := make([]edge, 0, m)
	for u := graph.NodeID(0); u < g.NumNodes(); u++ {
		base := g.OutEdgeBase(u)
		for i, v := range g.OutNeighbors(u) {
			edges = append(edges, edge{u, v, g.ProbAt(base + int64(i))})
		}
	}
	isSeed := make([]bool, g.NumNodes())
	for _, s := range seeds {
		isSeed[s] = true
	}
	total := 0.0
	adj := make([][]graph.NodeID, g.NumNodes())
	for world := 0; world < 1<<m; world++ {
		weight := 1.0
		for i := range adj {
			adj[i] = adj[i][:0]
		}
		for i, e := range edges {
			if world&(1<<i) != 0 {
				weight *= e.p
				adj[e.u] = append(adj[e.u], e.v)
			} else {
				weight *= 1 - e.p
			}
		}
		if weight == 0 {
			continue
		}
		// BFS over live edges from seeds.
		visited := make([]bool, g.NumNodes())
		queue := make([]graph.NodeID, 0, g.NumNodes())
		for _, s := range seeds {
			if !visited[s] {
				visited[s] = true
				queue = append(queue, s)
			}
		}
		reached := 0
		for head := 0; head < len(queue); head++ {
			u := queue[head]
			if !isSeed[u] {
				reached++
			}
			for _, v := range adj[u] {
				if !visited[v] {
					visited[v] = true
					queue = append(queue, v)
				}
			}
		}
		total += weight * float64(reached)
	}
	return total
}

// ExactLTSpread computes σ(S) under LT exactly by enumerating, for every
// node, which in-edge (or none) is live — the live-edge characterization
// of LT. The number of worlds is Π_v (indeg(v)+1).
func ExactLTSpread(g *graph.Graph, seeds []graph.NodeID) float64 {
	n := int(g.NumNodes())
	worlds := 1.0
	for v := graph.NodeID(0); v < g.NumNodes(); v++ {
		worlds *= float64(g.InDegree(v) + 1)
		if worlds > 1e7 {
			panic("diffusion: ExactLTSpread instance too large")
		}
	}
	isSeed := make([]bool, n)
	for _, s := range seeds {
		isSeed[s] = true
	}
	choice := make([]int, n) // 0 = no live in-edge; i>0 = i-th in-edge live
	var recurse func(v int, weight float64) float64
	liveParent := make([]graph.NodeID, n)
	recurse = func(v int, weight float64) float64 {
		if weight == 0 {
			return 0
		}
		if v == n {
			// Evaluate reachability: node w active if seed or live parent active.
			visited := make([]bool, n)
			queue := make([]graph.NodeID, 0, n)
			for _, s := range seeds {
				if !visited[s] {
					visited[s] = true
					queue = append(queue, s)
				}
			}
			reached := 0
			for head := 0; head < len(queue); head++ {
				u := queue[head]
				if !isSeed[u] {
					reached++
				}
				// Activate all nodes whose live parent is u.
				for w := 0; w < n; w++ {
					if !visited[w] && choice[w] > 0 && liveParent[w] == u {
						visited[w] = true
						queue = append(queue, graph.NodeID(w))
					}
				}
			}
			return weight * float64(reached)
		}
		idxs := g.InEdgeIndices(graph.NodeID(v))
		froms := g.InNeighbors(graph.NodeID(v))
		sumW := 0.0
		total := 0.0
		for i, e := range idxs {
			w := g.WeightAt(int64(e))
			sumW += w
			choice[v] = i + 1
			liveParent[v] = froms[i]
			total += recurse(v+1, weight*w)
		}
		choice[v] = 0
		total += recurse(v+1, weight*(1-sumW))
		return total
	}
	return recurse(0, 1)
}

// ExactOIICSeedValue computes, for a single seed on graphs where every
// node has at most one incoming path from the seed (trees), the exact
// expected opinion spread σ_o({s}) under OI-IC by dynamic programming over
// the unique root-to-node paths: activation probability is the product of
// edge p's and the expected opinion follows Lemma 8's recurrence
// E[o'_v] = o_v/2 + ψ(u,v)·E[o'_u], ψ = (2ϕ−1)/2.
func ExactOIICSeedValue(g *graph.Graph, seed graph.NodeID) float64 {
	for v := graph.NodeID(0); v < g.NumNodes(); v++ {
		if g.InDegree(v) > 1 {
			panic("diffusion: ExactOIICSeedValue requires a tree/forest")
		}
	}
	total := 0.0
	type item struct {
		v     graph.NodeID
		pAcc  float64 // probability v is activated
		expOp float64 // E[o'_v | activated]
	}
	stack := []item{{v: seed, pAcc: 1, expOp: g.Opinion(seed)}}
	for len(stack) > 0 {
		it := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		base := g.OutEdgeBase(it.v)
		phis := g.OutPhis(it.v)
		for i, w := range g.OutNeighbors(it.v) {
			psi := (2*phis[i] - 1) / 2
			child := item{
				v:     w,
				pAcc:  it.pAcc * g.ProbAt(base+int64(i)),
				expOp: g.Opinion(w)/2 + psi*it.expOp,
			}
			total += child.pAcc * child.expOp
			stack = append(stack, child)
		}
	}
	return total
}

package graph

import (
	"sort"

	"github.com/holisticim/holisticim/internal/rng"
)

// Stats summarizes a graph, mirroring the columns of the paper's Table 2.
type Stats struct {
	Nodes             int32
	Arcs              int64
	AvgOutDegree      float64
	MaxOutDegree      int32
	MaxInDegree       int32
	EffectiveDiameter float64 // 90th-percentile pairwise BFS distance (sampled)
	Reachable         float64 // avg fraction of nodes reachable from a sampled source
}

// ComputeStats gathers degree statistics and estimates the 90-percentile
// effective diameter from BFS over `samples` random sources. Deterministic
// given the seed.
func ComputeStats(g *Graph, samples int, seed uint64) Stats {
	st := Stats{Nodes: g.NumNodes(), Arcs: g.NumEdges()}
	if g.NumNodes() == 0 {
		return st
	}
	st.AvgOutDegree = float64(g.NumEdges()) / float64(g.NumNodes())
	for v := NodeID(0); v < g.NumNodes(); v++ {
		if d := g.OutDegree(v); d > st.MaxOutDegree {
			st.MaxOutDegree = d
		}
		if d := g.InDegree(v); d > st.MaxInDegree {
			st.MaxInDegree = d
		}
	}
	if samples <= 0 {
		samples = 32
	}
	if int32(samples) > g.NumNodes() {
		samples = int(g.NumNodes())
	}
	r := rng.New(seed)
	dist := make([]int32, g.NumNodes())
	queue := make([]NodeID, 0, g.NumNodes())
	var allDists []int32
	totalReach := 0.0
	for s := 0; s < samples; s++ {
		src := NodeID(r.Int31n(g.NumNodes()))
		for i := range dist {
			dist[i] = -1
		}
		queue = queue[:0]
		dist[src] = 0
		queue = append(queue, src)
		reached := 1
		for head := 0; head < len(queue); head++ {
			u := queue[head]
			for _, v := range g.OutNeighbors(u) {
				if dist[v] == -1 {
					dist[v] = dist[u] + 1
					queue = append(queue, v)
					reached++
					allDists = append(allDists, dist[v])
				}
			}
		}
		totalReach += float64(reached) / float64(g.NumNodes())
	}
	st.Reachable = totalReach / float64(samples)
	if len(allDists) > 0 {
		sort.Slice(allDists, func(i, j int) bool { return allDists[i] < allDists[j] })
		idx := int(0.9 * float64(len(allDists)-1))
		st.EffectiveDiameter = float64(allDists[idx])
	}
	return st
}

// MeanEdgeProb returns the average influence probability p(u,v) over all
// arcs, or 0 for an edgeless graph. DegreeDiscount and similar heuristics
// that assume a single global p use this as the representative value on
// heterogeneous graphs.
func MeanEdgeProb(g *Graph) float64 {
	m := len(g.outTo)
	if m == 0 {
		return 0
	}
	sum := 0.0
	for i := range m {
		sum += g.prob.at(g.outTo, int64(i))
	}
	return sum / float64(m)
}

// BFSDistances returns the hop distance from src to every node (-1 when
// unreachable), following out-edges.
func BFSDistances(g *Graph, src NodeID) []int32 {
	dist := make([]int32, g.NumNodes())
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []NodeID{src}
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, v := range g.OutNeighbors(u) {
			if dist[v] == -1 {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

// DegreeHistogram returns counts of out-degrees: hist[d] = #nodes with
// out-degree d (capped at maxDeg; larger degrees accumulate in the last
// bucket).
func DegreeHistogram(g *Graph, maxDeg int) []int64 {
	hist := make([]int64, maxDeg+1)
	for v := NodeID(0); v < g.NumNodes(); v++ {
		d := int(g.OutDegree(v))
		if d > maxDeg {
			d = maxDeg
		}
		hist[d]++
	}
	return hist
}

// TopKByOutDegree returns the k nodes with largest out-degree, descending.
// Ties broken by node id for determinism.
func TopKByOutDegree(g *Graph, k int) []NodeID {
	n := int(g.NumNodes())
	if k > n {
		k = n
	}
	ids := make([]NodeID, n)
	for i := range ids {
		ids[i] = NodeID(i)
	}
	sort.Slice(ids, func(i, j int) bool {
		di, dj := g.OutDegree(ids[i]), g.OutDegree(ids[j])
		if di != dj {
			return di > dj
		}
		return ids[i] < ids[j]
	})
	return ids[:k]
}

// IsDAG reports whether the graph has no directed cycle (Kahn's algorithm).
func IsDAG(g *Graph) bool {
	n := g.NumNodes()
	indeg := make([]int32, n)
	for v := NodeID(0); v < n; v++ {
		indeg[v] = g.InDegree(v)
	}
	queue := make([]NodeID, 0, n)
	for v := NodeID(0); v < n; v++ {
		if indeg[v] == 0 {
			queue = append(queue, v)
		}
	}
	seen := int32(0)
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		seen++
		for _, v := range g.OutNeighbors(u) {
			indeg[v]--
			if indeg[v] == 0 {
				queue = append(queue, v)
			}
		}
	}
	return seen == n
}

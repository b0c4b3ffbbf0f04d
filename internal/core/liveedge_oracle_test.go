package core

import (
	"fmt"

	"github.com/holisticim/holisticim/internal/graph"
	"github.com/holisticim/holisticim/internal/rng"
)

// LiveEdgeEnsemble is the literal reading of the paper's Sec. 3.3 LT
// extension: "by associating influence probabilities with each edge and
// generating various graph instances satisfying the [one live in-edge]
// constraint, our algorithms get extended to the live-edge model". It
// samples `instances` live-edge worlds, scores each with EaSyIM dynamics
// restricted to the live edges (every node has at most one live in-edge,
// so walks are vertex-disjoint and the score is exact per instance —
// Conclusion 3), and averages.
//
// The cheaper expected-weight shortcut — running EaSyIM directly with
// w(u,v) as the walk weight (WeightLT) — is what the experiments use;
// this ensemble is kept as the faithful reference the tests hold it to and
// for the ablation bench comparing the two.
type LiveEdgeEnsemble struct {
	g         *graph.Graph
	l         int
	instances int
	seed      uint64
}

// NewLiveEdgeEnsemble returns the ensemble scorer. instances defaults to
// 32 when non-positive.
func NewLiveEdgeEnsemble(g *graph.Graph, l, instances int, seed uint64) *LiveEdgeEnsemble {
	if l < 1 {
		panic(fmt.Sprintf("core: live-edge ensemble l=%d must be >= 1", l))
	}
	if instances <= 0 {
		instances = 32
	}
	return &LiveEdgeEnsemble{g: g, l: l, instances: instances, seed: seed}
}

// Name implements Scorer.
func (e *LiveEdgeEnsemble) Name() string { return "EaSyIM-LiveEdge" }

// Graph implements Scorer.
func (e *LiveEdgeEnsemble) Graph() *graph.Graph { return e.g }

// Assign implements Scorer: the average over instances of the exact
// depth-≤l reachable-descendant count along live edges. Reachability is
// computed by BFS per root (a live-edge instance is a functional graph,
// so it may contain cycles; set-based reachability — unlike walk
// counting — stays exact on them).
func (e *LiveEdgeEnsemble) Assign(excluded []bool, out []float64) []float64 {
	g := e.g
	n := g.NumNodes()
	if out == nil {
		out = make([]float64, n)
	}
	for i := range out {
		out[i] = 0
	}
	live := make([]int32, n)
	childStart := make([]int32, n+1) // children[childStart[u]:childStart[u+1]] = live children of u
	var children []graph.NodeID
	parentOf := make([]graph.NodeID, n)
	cursor := make([]int32, n)
	stamp := make([]uint32, n)
	epoch := uint32(0)
	type qitem struct {
		v     graph.NodeID
		depth int
	}
	queue := make([]qitem, 0, 64)
	r := rng.New(0)
	for inst := 0; inst < e.instances; inst++ {
		r.Reseed(rng.SplitSeed(e.seed, uint64(inst)))
		sampleLiveEdge(g, r, live)
		// Bucket children by live parent (counting sort).
		for i := range childStart {
			childStart[i] = 0
		}
		for v := graph.NodeID(0); v < n; v++ {
			parentOf[v] = -1
			if live[v] < 0 || (excluded != nil && excluded[v]) {
				continue
			}
			p := liveParent(g, v, live[v])
			if excluded != nil && excluded[p] {
				continue
			}
			parentOf[v] = p
			childStart[p+1]++
		}
		for i := int32(0); i < n; i++ {
			childStart[i+1] += childStart[i]
			cursor[i] = 0
		}
		children = children[:0]
		children = append(children, make([]graph.NodeID, childStart[n])...)
		for v := graph.NodeID(0); v < n; v++ {
			if p := parentOf[v]; p >= 0 {
				children[childStart[p]+cursor[p]] = v
				cursor[p]++
			}
		}
		// Per-root bounded reachability.
		for u := graph.NodeID(0); u < n; u++ {
			if excluded != nil && excluded[u] {
				continue
			}
			epoch++
			if epoch == 0 {
				for i := range stamp {
					stamp[i] = 0
				}
				epoch = 1
			}
			stamp[u] = epoch
			queue = queue[:0]
			queue = append(queue, qitem{u, 0})
			reached := 0
			for head := 0; head < len(queue); head++ {
				it := queue[head]
				if it.depth == e.l {
					continue
				}
				for _, c := range children[childStart[it.v]:childStart[it.v+1]] {
					if stamp[c] == epoch {
						continue
					}
					stamp[c] = epoch
					reached++
					queue = append(queue, qitem{c, it.depth + 1})
				}
			}
			out[u] += float64(reached)
		}
	}
	inv := 1 / float64(e.instances)
	for u := graph.NodeID(0); u < n; u++ {
		if excluded != nil && excluded[u] {
			out[u] = negInf
		} else {
			out[u] *= inv
		}
	}
	return out
}

// sampleLiveEdge draws one live-edge instance of the LT model into live:
// live[v] is the out-array position of v's one live in-edge, edge (u,v)
// chosen with probability w(u,v), or −1 (probability 1−Σw).
func sampleLiveEdge(g *graph.Graph, r *rng.RNG, live []int32) {
	for v := range live {
		live[v] = -1
		idxs := g.InEdgeIndices(graph.NodeID(v))
		if len(idxs) == 0 {
			continue
		}
		x, acc := r.Float64(), 0.0
		for _, e := range idxs {
			acc += g.WeightAt(int64(e))
			if x < acc {
				live[v] = e
				break
			}
		}
	}
}

// liveParent resolves the source node of v's live in-edge (an index into
// the out-edge arrays).
func liveParent(g *graph.Graph, v graph.NodeID, edgeIdx int32) graph.NodeID {
	idxs := g.InEdgeIndices(v)
	froms := g.InNeighbors(v)
	for i, e := range idxs {
		if e == edgeIdx {
			return froms[i]
		}
	}
	panic("core: live edge index not found among in-edges")
}

var _ Scorer = (*LiveEdgeEnsemble)(nil)

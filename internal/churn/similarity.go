package churn

import (
	"math"
	"sort"

	"github.com/holisticim/holisticim/internal/graph"
	"github.com/holisticim/holisticim/internal/rng"
)

// SimilarityOptions configures graph induction.
type SimilarityOptions struct {
	// Threshold is the minimum similarity for an edge (default 0.9 — the
	// paper "induce[s] a graph ... using attribute-value similarity and a
	// similarity threshold").
	Threshold float64
	// MaxDegree caps per-node neighbors, keeping the graph at the paper's
	// density (≈44 edges/node on 34K customers). 0 = uncapped.
	MaxDegree int
	// Seed drives the interaction-probability assignment ϕ ~ rand(0,1).
	Seed uint64
}

// Similarity computes the attribute-value similarity of two customers:
// one minus the mean normalized numeric distance, discounted for
// categorical mismatches. Ranges over [0,1].
func Similarity(a, b *Customer, scale *[7]float64) float64 {
	fa, fb := a.numericFeatures(), b.numericFeatures()
	dist := 0.0
	for i := range fa {
		s := scale[i]
		if s == 0 {
			continue
		}
		d := math.Abs(fa[i]-fb[i]) / s
		if d > 1 {
			d = 1
		}
		dist += d
	}
	sim := 1 - dist/float64(len(fa))
	if a.Plan != b.Plan {
		sim -= 0.05
	}
	if a.Region != b.Region {
		sim -= 0.05
	}
	if sim < 0 {
		sim = 0
	}
	return sim
}

// featureScales returns the per-feature normalization (range) over the
// table.
func featureScales(customers []Customer) [7]float64 {
	var lo, hi [7]float64
	for i := range lo {
		lo[i] = math.Inf(1)
		hi[i] = math.Inf(-1)
	}
	for i := range customers {
		f := customers[i].numericFeatures()
		for j := range f {
			if f[j] < lo[j] {
				lo[j] = f[j]
			}
			if f[j] > hi[j] {
				hi[j] = f[j]
			}
		}
	}
	var scale [7]float64
	for j := range scale {
		scale[j] = hi[j] - lo[j]
	}
	return scale
}

// SimilarityGraph induces the undirected similarity graph: an edge (both
// arcs) joins customers whose similarity meets the threshold, with
// influence probability p = similarity (the paper: "attribute-value
// similarity defines the influence-probability") and interaction
// ϕ ~ rand(0,1) (also the paper's choice). O(n²) pairwise comparison —
// fine at the churn study's scale (datasets.ChurnOptions, 2000 customers
// by default).
func SimilarityGraph(customers []Customer, opts SimilarityOptions) *graph.Graph {
	if opts.Threshold <= 0 {
		opts.Threshold = 0.9
	}
	n := int32(len(customers))
	scale := featureScales(customers)
	type cand struct {
		v   graph.NodeID
		sim float64
	}
	r := rng.New(opts.Seed)
	b := graph.NewBuilder(n)
	neighbors := make([][]cand, n)
	for i := int32(0); i < n; i++ {
		for j := i + 1; j < n; j++ {
			sim := Similarity(&customers[i], &customers[j], &scale)
			if sim >= opts.Threshold {
				neighbors[i] = append(neighbors[i], cand{j, sim})
				neighbors[j] = append(neighbors[j], cand{i, sim})
			}
		}
	}
	added := make(map[[2]graph.NodeID]bool)
	deg := make([]int, n)
	for i := int32(0); i < n; i++ {
		cands := neighbors[i]
		// Highest-similarity neighbors first so the degree cap keeps the
		// strongest ties.
		sort.Slice(cands, func(a, b int) bool {
			if cands[a].sim != cands[b].sim {
				return cands[a].sim > cands[b].sim
			}
			return cands[a].v < cands[b].v
		})
		for _, c := range cands {
			if opts.MaxDegree > 0 && (deg[i] >= opts.MaxDegree || deg[c.v] >= opts.MaxDegree) {
				if deg[i] >= opts.MaxDegree {
					break
				}
				continue
			}
			key := [2]graph.NodeID{i, c.v}
			if i > c.v {
				key = [2]graph.NodeID{c.v, i}
			}
			if added[key] {
				continue
			}
			added[key] = true
			deg[i]++
			deg[c.v]++
			phi := r.Float64()
			b.AddUndirected(i, c.v, c.sim, phi)
		}
	}
	g := b.Build()
	g.SetDefaultLTWeights()
	return g
}

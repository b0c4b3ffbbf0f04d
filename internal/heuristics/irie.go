package heuristics

import (
	"context"

	"github.com/holisticim/holisticim/internal/graph"
	"github.com/holisticim/holisticim/internal/im"
)

// IRIE implements Jung, Heo and Chen's "IRIE: Scalable and Robust
// Influence Maximization in Social Networks" (ICDM'12) for the IC and WC
// models. It couples
//
//   - IR, a global influence rank solved by damped fixed-point iteration
//     r(u) = (1 − AP(u)) · (1 + α · Σ_{v∈Out(u)} p(u,v)·r(v)), and
//   - IE, a cheap activation-probability estimate AP(u|S) propagated
//     forward from the selected seeds with threshold pruning,
//
// alternating k times: rank, take the argmax, fold it into AP, repeat.
// The paper's experiments use α = 0.7 and pruning threshold θ = 1/320,
// which are the defaults here.
type IRIE struct {
	g     *graph.Graph
	alpha float64
	theta float64
	iters int
}

// NewIRIE returns an IRIE selector; pass zeros to keep the published
// defaults (α=0.7, θ=1/320, 20 rank iterations).
func NewIRIE(g *graph.Graph, alpha, theta float64, iters int) *IRIE {
	if alpha <= 0 {
		alpha = 0.7
	}
	if theta <= 0 {
		theta = 1.0 / 320
	}
	if iters <= 0 {
		iters = 20
	}
	return &IRIE{g: g, alpha: alpha, theta: theta, iters: iters}
}

// Name implements im.Selector.
func (ir *IRIE) Name() string { return "IRIE" }

// Select implements im.Selector. Checkpoints sit at each rank iteration —
// the IRIE paper's observation that per-iteration state is tiny makes
// them essentially free — and at every chosen seed.
func (ir *IRIE) Select(ctx context.Context, k int) (im.Result, error) {
	g := ir.g
	n := g.NumNodes()
	res := im.Result{Algorithm: ir.Name()}
	if err := im.CheckK(k, n); err != nil {
		return res, err
	}
	tr := im.StartTracker(ctx)

	ap := make([]float64, n)   // activation probability by current seeds
	rank := make([]float64, n) // influence rank
	next := make([]float64, n)
	selected := make([]bool, n)
	start, to := g.OutCSR()
	ps, perHead := g.ProbColumn()

	for len(res.Seeds) < k {
		// --- IR: damped iteration with AP discount.
		for i := range rank {
			rank[i] = 1
		}
		for it := 0; it < ir.iters; it++ {
			if err := tr.Interrupted(&res); err != nil {
				return res, err
			}
			for u := graph.NodeID(0); u < n; u++ {
				if selected[u] {
					next[u] = 0
					continue
				}
				sum := 0.0
				base := start[u]
				for i, v := range to[base:start[u+1]] {
					at := base + int64(i) // the arc's p: its own entry, or its head's
					if perHead {
						at = int64(v)
					}
					sum += ps[at] * rank[v]
				}
				next[u] = (1 - ap[u]) * (1 + ir.alpha*sum)
			}
			rank, next = next, rank
		}
		// --- argmax over unselected nodes.
		best := graph.NodeID(-1)
		bestRank := 0.0
		for v := graph.NodeID(0); v < n; v++ {
			if selected[v] {
				continue
			}
			if best < 0 || rank[v] > bestRank {
				best = v
				bestRank = rank[v]
			}
		}
		if best < 0 {
			break
		}
		selected[best] = true
		// --- IE: fold the new seed into AP with forward propagation,
		// pruned below θ. Additive with saturation at 1 (the linear
		// approximation the IRIE paper adopts).
		ir.propagateAP(best, ap)
		tr.Seed(&res, best)
	}
	tr.Finish(&res)
	return res, nil
}

// propagateAP adds the activation probability contributed by a new seed
// to ap, walking forward while the path mass stays above θ.
func (ir *IRIE) propagateAP(seed graph.NodeID, ap []float64) {
	g := ir.g
	type frame struct {
		v    graph.NodeID
		mass float64
	}
	ap[seed] = 1
	stack := []frame{{seed, 1}}
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		base := g.OutEdgeBase(f.v)
		for i, w := range g.OutNeighbors(f.v) {
			m := f.mass * g.ProbAt(base+int64(i))
			if m < ir.theta {
				continue
			}
			ap[w] += m
			if ap[w] > 1 {
				ap[w] = 1
			}
			stack = append(stack, frame{w, m})
		}
	}
}

var _ im.Selector = (*IRIE)(nil)

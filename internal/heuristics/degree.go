// Package heuristics implements the heuristic IM baselines the paper
// benchmarks: IRIE (Jung, Heo, Chen — ICDM'12) for IC/WC, SIMPATH (Goyal,
// Lu, Lakshmanan — ICDM'11) for LT, and DegreeDiscount (Chen et al. —
// KDD'09), the cheap degree-based baseline.
package heuristics

import (
	"container/heap"
	"context"

	"github.com/holisticim/holisticim/internal/graph"
	"github.com/holisticim/holisticim/internal/im"
)

// DegreeDiscount implements Chen et al.'s degree-discount heuristic for
// IC with uniform propagation probability p: when a neighbor of v is
// selected as a seed, v's effective degree is discounted by
//
//	dd_v = d_v − 2 t_v − (d_v − t_v)·t_v·p,
//
// t_v = number of already-selected neighbors of v.
type DegreeDiscount struct {
	g *graph.Graph
	p float64
}

// NewDegreeDiscount returns the selector; p should equal the uniform IC
// probability the graph uses (paper convention 0.1).
func NewDegreeDiscount(g *graph.Graph, p float64) *DegreeDiscount {
	return &DegreeDiscount{g: g, p: p}
}

// Name implements im.Selector.
func (d *DegreeDiscount) Name() string { return "DegreeDiscount" }

type ddItem struct {
	v     graph.NodeID
	score float64
	index int
}

type ddHeap []*ddItem

func (h ddHeap) Len() int           { return len(h) }
func (h ddHeap) Less(i, j int) bool { return h[i].score > h[j].score }
func (h ddHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *ddHeap) Push(x interface{}) {
	it := x.(*ddItem)
	it.index = len(*h)
	*h = append(*h, it)
}
func (h *ddHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// Select implements im.Selector, checking cancellation at every chosen
// seed (the discount update is the per-seed unit of work).
func (d *DegreeDiscount) Select(ctx context.Context, k int) (im.Result, error) {
	g := d.g
	n := g.NumNodes()
	res := im.Result{Algorithm: d.Name()}
	if err := im.CheckK(k, n); err != nil {
		return res, err
	}
	tr := im.StartTracker(ctx)

	items := make([]*ddItem, n)
	h := make(ddHeap, 0, n)
	tv := make([]int32, n)
	for v := graph.NodeID(0); v < n; v++ {
		if v&0x3FFF == 0 {
			if err := tr.Interrupted(&res); err != nil {
				return res, err
			}
		}
		items[v] = &ddItem{v: v, score: float64(g.OutDegree(v))}
		h = append(h, items[v])
	}
	heap.Init(&h)
	selected := make([]bool, n)
	for len(res.Seeds) < k && h.Len() > 0 {
		if err := tr.Interrupted(&res); err != nil {
			return res, err
		}
		it := heap.Pop(&h).(*ddItem)
		selected[it.v] = true
		tr.Seed(&res, it.v)
		// Discount undirected-sense neighbors (out-neighbors suffice on the
		// symmetrized graphs; directed graphs discount influence targets).
		for _, w := range g.OutNeighbors(it.v) {
			if selected[w] {
				continue
			}
			tv[w]++
			dw := float64(g.OutDegree(w))
			t := float64(tv[w])
			items[w].score = dw - 2*t - (dw-t)*t*d.p
			heap.Fix(&h, items[w].index)
		}
	}
	tr.Finish(&res)
	return res, nil
}

var _ im.Selector = (*DegreeDiscount)(nil)

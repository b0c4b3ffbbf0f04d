package churn

import (
	"math"

	"github.com/holisticim/holisticim/internal/graph"
)

// LabelPropOptions configures the propagation (Zhu & Ghahramani's label
// propagation in its soft, local-and-global-consistency form: F ←
// α·Ŵ·F + (1−α)·Y, where Ŵ row-normalizes the similarity weights).
type LabelPropOptions struct {
	// Alpha balances network smoothing vs the prior labels (default 0.5).
	Alpha float64
	// Iterations caps the fixed-point loop (default 100).
	Iterations int
	// Tolerance stops early once max |ΔF| falls below it (default 1e-6).
	Tolerance float64
}

func (o *LabelPropOptions) normalize() {
	if o.Alpha <= 0 || o.Alpha >= 1 {
		o.Alpha = 0.5
	}
	if o.Iterations <= 0 {
		o.Iterations = 100
	}
	if o.Tolerance <= 0 {
		o.Tolerance = 1e-6
	}
}

// PropagateLabels runs label propagation over the similarity graph.
// labels supplies Y (e.g. ±1 churn labels); known[i]=false zeroes node
// i's prior (pure semi-supervised prediction for that node); pass nil to
// treat every label as known. The returned affinities lie in [−1,1]:
// −1 ≈ certain churner, +1 ≈ certain loyal — the opinion layer of the
// paper's MEO churn analysis.
func PropagateLabels(g *graph.Graph, labels []float64, known []bool, opts LabelPropOptions) []float64 {
	opts.normalize()
	n := g.NumNodes()
	if int32(len(labels)) != n {
		panic("churn: label vector length mismatch")
	}
	y := make([]float64, n)
	for i, l := range labels {
		if known == nil || known[i] {
			y[i] = l
		}
	}
	f := append([]float64(nil), y...)
	next := make([]float64, n)
	// Row-normalization masses: Σ of incoming similarity weights.
	wsum := make([]float64, n)
	for v := graph.NodeID(0); v < n; v++ {
		for _, e := range g.InEdgeIndices(v) {
			wsum[v] += g.ProbAt(int64(e))
		}
	}
	for it := 0; it < opts.Iterations; it++ {
		maxDelta := 0.0
		for v := graph.NodeID(0); v < n; v++ {
			smooth := 0.0
			if wsum[v] > 0 {
				froms := g.InNeighbors(v)
				idxs := g.InEdgeIndices(v)
				for i, u := range froms {
					smooth += g.ProbAt(int64(idxs[i])) * f[u]
				}
				smooth /= wsum[v]
			}
			nv := opts.Alpha*smooth + (1-opts.Alpha)*y[v]
			if d := math.Abs(nv - f[v]); d > maxDelta {
				maxDelta = d
			}
			next[v] = nv
		}
		f, next = next, f
		if maxDelta < opts.Tolerance {
			break
		}
	}
	for i := range f {
		if f[i] > 1 {
			f[i] = 1
		}
		if f[i] < -1 {
			f[i] = -1
		}
	}
	return f
}

// BuildChurnGraph runs the whole pipeline of Sec. 4.1.2: generate
// customers, induce the similarity graph, propagate churn labels into
// affinities and install them as node opinions. Returns the annotated
// graph and the customer table.
func BuildChurnGraph(copts CustomerOptions, sopts SimilarityOptions, lopts LabelPropOptions) (*graph.Graph, []Customer) {
	customers := GenerateCustomers(copts)
	g := SimilarityGraph(customers, sopts)
	labels := make([]float64, len(customers))
	for i := range customers {
		labels[i] = customers[i].Label()
	}
	aff := PropagateLabels(g, labels, nil, lopts)
	g.SetOpinions(aff)
	return g, customers
}

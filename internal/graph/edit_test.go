package graph

import (
	"slices"
	"testing"
)

// WithArcEdits against a graph small enough to read: 0→1, 0→3, 2→3 with
// one removal, one insertion into a row, one row created, one change in
// place keeping two of its parameters. (internal/live checks it against
// the Builder over hundreds of random batches.)
func TestWithArcEdits(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdgeFull(0, 1, 0.1, 0.2, 0.3)
	b.AddEdgeFull(0, 3, 0.4, 0.5, 0.6)
	b.AddEdgeFull(2, 3, 0.7, 0.8, 0.9)
	g := b.Build()
	g.SetOpinions([]float64{0.1, -0.2, 0.3, -0.4})
	before := g.Fingerprint()

	p, w := 0.25, 0.75
	ng := g.WithArcEdits([]ArcEdit{
		{From: 0, To: 1, Remove: true},
		{From: 0, To: 2, P: &p},
		{From: 0, To: 3, W: &w},
		{From: 1, To: 0, P: &p, Phi: &p, W: &w},
	}, nil)

	if g.Fingerprint() != before || g.hash() != before {
		t.Fatal("the source graph changed")
	}
	start, to := ng.OutCSR()
	if !slices.Equal(start, []int64{0, 2, 3, 4, 4}) || !slices.Equal(to, []NodeID{2, 3, 0, 3}) {
		t.Fatalf("out-CSR %v %v", start, to)
	}
	if !slices.Equal(probs(ng), []float64{0.25, 0.4, 0.25, 0.7}) ||
		!slices.Equal(ng.Phis(), []float64{0, 0.5, 0.25, 0.8}) ||
		!slices.Equal(weights(ng), []float64{0, 0.75, 0.75, 0.9}) {
		t.Fatalf("parameters %v %v %v", probs(ng), ng.Phis(), weights(ng))
	}
	if !slices.Equal(ng.InNeighbors(3), []NodeID{0, 2}) || !slices.Equal(ng.InEdgeIndices(3), []int32{1, 3}) || ng.InDegree(1) != 0 {
		t.Fatalf("in-CSR of node 3: %v %v, in-degree of 1: %d", ng.InNeighbors(3), ng.InEdgeIndices(3), ng.InDegree(1))
	}
	if !slices.Equal(ng.Opinions(), g.Opinions()) || &ng.Opinions()[0] == &g.Opinions()[0] {
		t.Fatal("opinions not carried over into an array of the new graph's own")
	}

	// rebalanceLT overrides the weights of every arc into the named targets.
	ng = g.WithArcEdits([]ArcEdit{{From: 1, To: 3, W: &w}}, []NodeID{3})
	if !slices.Equal(weights(ng), []float64{0.3, 1.0 / 3, 1.0 / 3, 1.0 / 3}) {
		t.Fatalf("rebalanced weights %v", weights(ng))
	}

	for name, edits := range map[string][]ArcEdit{
		"unsorted":        {{From: 2, To: 3, P: &p}, {From: 0, To: 1, P: &p}},
		"arc twice":       {{From: 0, To: 1, P: &p}, {From: 0, To: 1, Remove: true}},
		"remove absent":   {{From: 1, To: 2, Remove: true}},
		"self-loop":       {{From: 1, To: 1, P: &p}},
		"out of range":    {{From: 1, To: 4, P: &p}},
		"bad parameter":   {{From: 1, To: 2, P: &p, W: new(float64), Phi: func() *float64 { v := 1.5; return &v }()}},
		"negative node":   {{From: -1, To: 2, P: &p}},
		"unsorted in row": {{From: 0, To: 3, P: &p}, {From: 0, To: 2, P: &p}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: edits accepted", name)
				}
			}()
			g.WithArcEdits(edits, nil)
		}()
	}
}

package heuristics

import (
	"testing"

	"github.com/holisticim/holisticim/internal/im"
	"github.com/holisticim/holisticim/internal/im/imtest"
)

// runSelect is this package's shim over the shared imtest.MustSelect —
// the call shape the pre-context package tests were written in.
func runSelect(sel im.Selector, k int) im.Result { return imtest.MustSelect(sel, k) }

// TestHeuristicsCancellation runs the shared conformance suite over every
// heuristic selector (run with -race).
func TestHeuristicsCancellation(t *testing.T) {
	g := imtest.TestGraph(200)
	cases := []struct {
		name string
		mk   func() im.Selector
	}{
		{"irie", func() im.Selector { return NewIRIE(g, 0, 0, 0) }},
		{"simpath", func() im.Selector { return NewSIMPATH(g, 1e-3, 4) }},
		{"degree-discount", func() im.Selector { return NewDegreeDiscount(g, 0.1) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { imtest.Conformance(t, tc.mk, g.NumNodes(), 4) })
	}
}

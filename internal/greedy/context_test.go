package greedy

import (
	"testing"

	"github.com/holisticim/holisticim/internal/diffusion"
	"github.com/holisticim/holisticim/internal/im"
	"github.com/holisticim/holisticim/internal/im/imtest"
)

// runSelect is this package's shim over the shared imtest.MustSelect —
// the call shape the pre-context package tests were written in.
func runSelect(sel im.Selector, k int) im.Result { return imtest.MustSelect(sel, k) }

// TestGreedyFamilyCancellation runs the shared conformance suite over the
// simulation-driven baselines (run with -race).
func TestGreedyFamilyCancellation(t *testing.T) {
	g := imtest.TestGraph(80)
	t.Run("greedy", func(t *testing.T) {
		imtest.Conformance(t, func() im.Selector {
			return NewGreedy(NewSpreadObjective(diffusion.NewIC(g), 30, 3))
		}, g.NumNodes(), 3)
	})
	t.Run("celfpp", func(t *testing.T) {
		imtest.Conformance(t, func() im.Selector {
			return NewCELFPP(NewSpreadObjective(diffusion.NewIC(g), 30, 3))
		}, g.NumNodes(), 3)
	})
}

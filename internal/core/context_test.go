package core

import (
	"testing"

	"github.com/holisticim/holisticim/internal/diffusion"
	"github.com/holisticim/holisticim/internal/im"
	"github.com/holisticim/holisticim/internal/im/imtest"
)

// runSelect is this package's shim over the shared imtest.MustSelect —
// the call shape the pre-context package tests were written in.
func runSelect(sel im.Selector, k int) im.Result { return imtest.MustSelect(sel, k) }

// TestScoreGreedyCancellation runs the shared conformance suite over both
// of the paper's scorers (run with -race).
func TestScoreGreedyCancellation(t *testing.T) {
	g := imtest.TestGraph(300)
	t.Run("easyim", func(t *testing.T) {
		imtest.Conformance(t, func() im.Selector {
			return NewScoreGreedy(NewEaSyIM(g, 3, WeightProb), ScoreGreedyOptions{
				Policy: PolicyMCMajority, ProbeModel: diffusion.NewIC(g), ProbeRuns: 8, Seed: 7,
			})
		}, g.NumNodes(), 4)
	})
	t.Run("osim", func(t *testing.T) {
		imtest.Conformance(t, func() im.Selector {
			return NewScoreGreedy(NewOSIM(g, 3, WeightProb, 1), ScoreGreedyOptions{
				Policy: PolicyMCMajority, ProbeModel: diffusion.NewOI(g, diffusion.LayerIC), ProbeRuns: 8, Seed: 7,
			})
		}, g.NumNodes(), 4)
	})
}

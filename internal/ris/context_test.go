package ris

import (
	"context"
	"testing"

	"github.com/holisticim/holisticim/internal/im"
	"github.com/holisticim/holisticim/internal/im/imtest"
)

// runSelect is this package's shim over the shared imtest.MustSelect —
// the call shape the pre-context package tests were written in.
func runSelect(sel im.Selector, k int) im.Result { return imtest.MustSelect(sel, k) }

// TestRISCancellation runs the shared conformance suite over TIM+ and IMM
// (run with -race). The θ caps keep the sampled collections small enough
// for a unit test while exercising the GenerateCtx checkpoints.
func TestRISCancellation(t *testing.T) {
	g := imtest.TestGraph(250)
	t.Run("tim+", func(t *testing.T) {
		imtest.Conformance(t, func() im.Selector {
			return NewTIMPlus(g, ModelIC, TIMOptions{Epsilon: 0.4, Seed: 5, ThetaCap: 30000})
		}, g.NumNodes(), 3)
	})
	t.Run("imm", func(t *testing.T) {
		imtest.Conformance(t, func() im.Selector {
			return NewIMM(g, ModelIC, TIMOptions{Epsilon: 0.4, Seed: 5, ThetaCap: 30000})
		}, g.NumNodes(), 3)
	})
}

// TestGenerateCtxStopsPromptly proves the sampling loop itself honors
// cancellation: with a pre-cancelled context no more than one checkpoint
// batch of RR sets is materialized.
func TestGenerateCtxStopsPromptly(t *testing.T) {
	g := imtest.TestGraph(250)
	col := NewCollection(g, ModelIC)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := col.GenerateCtx(ctx, 1_000_000, 1); err == nil {
		t.Fatal("GenerateCtx with cancelled context returned nil error")
	}
	if col.Len() != 0 {
		t.Fatalf("cancelled GenerateCtx still sampled %d sets", col.Len())
	}
}

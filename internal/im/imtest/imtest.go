// Package imtest provides the shared conformance suite every im.Selector
// implementation must pass: invalid budgets surface as errors (never
// panics), a pre-cancelled context stops the selection before any real
// work, and cancellation raised mid-run — from the first progress
// callback — yields a prompt return carrying the partial Result and an
// error wrapping context.Canceled. Each algorithm-family package runs the
// suite under -race in its own tests.
package imtest

import (
	"context"
	"errors"
	"testing"
	"time"

	"github.com/holisticim/holisticim/internal/graph"
	"github.com/holisticim/holisticim/internal/im"
	"github.com/holisticim/holisticim/internal/rng"
)

// Conformance exercises the context contract of a selector. mk must
// return a fresh selector bound to a graph with n nodes, at least k+1;
// k should be >= 2 so a mid-run cancellation is observable as a strict
// prefix of the budget.
func Conformance(t *testing.T, mk func() im.Selector, n int32, k int) {
	t.Helper()

	t.Run("invalid-k", func(t *testing.T) {
		sel := mk()
		if _, err := sel.Select(context.Background(), 0); err == nil {
			t.Fatalf("%s: Select(0) returned no error", sel.Name())
		}
		if _, err := sel.Select(context.Background(), 1<<30); err == nil {
			t.Fatalf("%s: Select(huge k) returned no error", sel.Name())
		}
	})

	t.Run("pre-cancelled", func(t *testing.T) {
		sel := mk()
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		res, err := sel.Select(ctx, k)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: err = %v, want wrapped context.Canceled", sel.Name(), err)
		}
		if !res.Partial {
			t.Fatalf("%s: cancelled selection not marked Partial", sel.Name())
		}
		if len(res.Seeds) >= k {
			t.Fatalf("%s: pre-cancelled selection still chose %d/%d seeds", sel.Name(), len(res.Seeds), k)
		}
	})

	t.Run("cancel-mid-run", func(t *testing.T) {
		sel := mk()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		ctx = im.WithProgress(ctx, func(seedIdx int, seed graph.NodeID, elapsed time.Duration) {
			if seedIdx == 0 {
				cancel() // pull the plug as soon as the first seed lands
			}
		})
		res, err := sel.Select(ctx, k)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: err = %v, want wrapped context.Canceled", sel.Name(), err)
		}
		if !res.Partial {
			t.Fatalf("%s: mid-run cancellation not marked Partial", sel.Name())
		}
		if len(res.Seeds) == 0 || len(res.Seeds) >= k {
			t.Fatalf("%s: partial result has %d seeds, want a non-empty strict prefix of %d",
				sel.Name(), len(res.Seeds), k)
		}
		if len(res.PerSeed) != len(res.Seeds) {
			t.Fatalf("%s: PerSeed has %d entries for %d seeds", sel.Name(), len(res.PerSeed), len(res.Seeds))
		}
	})

	t.Run("uncancelled-complete", func(t *testing.T) {
		sel := mk()
		var reported int
		ctx := im.WithProgress(context.Background(), func(seedIdx int, seed graph.NodeID, elapsed time.Duration) {
			reported++
		})
		res, err := sel.Select(ctx, k)
		if err != nil {
			t.Fatalf("%s: %v", sel.Name(), err)
		}
		if res.Partial || len(res.Seeds) != k {
			t.Fatalf("%s: full run partial=%v seeds=%d want %d", sel.Name(), res.Partial, len(res.Seeds), k)
		}
		if reported != k {
			t.Fatalf("%s: progress reported %d seeds, want %d", sel.Name(), reported, k)
		}
		seen := make(map[graph.NodeID]bool, k)
		for _, s := range res.Seeds {
			if s < 0 || s >= n || seen[s] {
				t.Fatalf("%s: seeds %v are not distinct nodes in [0,%d)", sel.Name(), res.Seeds, n)
			}
			seen[s] = true
		}
	})
}

// MustSelect runs sel.Select with a background context, panicking on the
// configuration errors the context-first Select surfaces — the call
// shape the pre-context package tests were written in. The per-package
// runSelect helpers delegate here so the semantics live in one place.
func MustSelect(sel im.Selector, k int) im.Result {
	res, err := sel.Select(context.Background(), k)
	if err != nil {
		panic(err)
	}
	return res
}

// TestGraph builds a small deterministic BA graph with IC probabilities,
// LT weights, opinions and interactions — enough annotation for every
// selector family to run on.
func TestGraph(n int32) *graph.Graph {
	g := graph.BarabasiAlbert(n, 3, rng.New(1))
	g.SetUniformProb(0.1)
	g.SetDefaultLTWeights()
	return g
}

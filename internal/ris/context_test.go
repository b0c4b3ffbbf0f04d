package ris

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/holisticim/holisticim/internal/im"
	"github.com/holisticim/holisticim/internal/im/imtest"
	"github.com/holisticim/holisticim/internal/opinion"
)

// runSelect is this package's shim over the shared imtest.MustSelect —
// the call shape the pre-context package tests were written in.
func runSelect(sel im.Selector, k int) im.Result { return imtest.MustSelect(sel, k) }

// TestRISCancellation runs the shared conformance suite over TIM+ and IMM
// (run with -race), sampling on two workers. The θ caps keep the sampled
// collections small enough for a unit test while exercising the per-chunk
// cancellation checkpoints.
func TestRISCancellation(t *testing.T) {
	g := imtest.TestGraph(250)
	t.Run("tim+", func(t *testing.T) {
		imtest.Conformance(t, func() im.Selector {
			return NewTIMPlus(g, ModelIC, TIMOptions{Epsilon: 0.4, Seed: 5, Workers: 2, ThetaCap: 30000})
		}, g.NumNodes(), 3)
	})
	t.Run("imm", func(t *testing.T) {
		imtest.Conformance(t, func() im.Selector {
			return NewIMM(g, ModelIC, TIMOptions{Epsilon: 0.4, Seed: 5, Workers: 2, ThetaCap: 30000})
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

// TestColdSelectEqualAtAnyWorkerCount: TIMOptions.Workers is invisible in
// what cold IMM and TIM+ return — seeds, θ, the bounds that sized it and
// the coverage — on the inputs internal/sketch pins their seeds on.
func TestColdSelectEqualAtAnyWorkerCount(t *testing.T) {
	for _, n := range []int32{300, 1000} {
		g := imtest.TestGraph(n)
		opinion.AssignOpinions(g, opinion.Normal, 2)
		for _, kind := range []ModelKind{ModelIC, ModelLT, ModelOC} {
			selectors := map[string]func(TIMOptions) im.Selector{
				"imm":        func(o TIMOptions) im.Selector { o.Epsilon = 0.3; return NewIMM(g, kind, o) },
				"imm-capped": func(o TIMOptions) im.Selector { o.Epsilon, o.ThetaCap = 0.3, 700; return NewIMM(g, kind, o) },
				"tim+":       func(o TIMOptions) im.Selector { o.Epsilon, o.ThetaCap = 0.4, 30000; return NewTIMPlus(g, kind, o) },
			}
			for name, mk := range selectors {
				var want string
				for _, workers := range []int{1, 2, 8} {
					res := runSelect(mk(TIMOptions{Seed: 5, Workers: workers}), 8)
					m := res.Metrics
					if m["theta"] < parallelMinCount {
						t.Fatalf("%s/%v/n=%d: θ=%v never leaves the sequential fallback", name, kind, n, m["theta"])
					}
					got := fmt.Sprintf("%v theta=%v lower_bound=%v kpt_star=%v kpt_plus=%v coverage=%v capped=%v",
						res.Seeds, m["theta"], m["lower_bound"], m["kpt_star"], m["kpt_plus"], m["coverage"], m["theta_capped"])
					if workers == 1 {
						want = got
					} else if got != want {
						t.Errorf("%s/%v/n=%d: workers=%d gave %s, one worker %s", name, kind, n, workers, got, want)
					}
				}
			}
		}
	}
}

// cancelAfter is a context that turns cancelled at its nth poll, an Err or
// a Done call. The samplers poll Done once per chunk of sets, so n picks a
// point mid-sampling that no timer could hit reliably.
type cancelAfter struct {
	context.Context
	left atomic.Int64
	once sync.Once
	done chan struct{}
}

func newCancelAfter(n int64) *cancelAfter {
	c := &cancelAfter{Context: context.Background(), done: make(chan struct{})}
	c.left.Store(n)
	return c
}

// poll counts one poll and reports whether the context is cancelled.
func (c *cancelAfter) poll() bool {
	if c.left.Add(-1) >= 0 {
		return false
	}
	c.once.Do(func() { close(c.done) })
	return true
}

func (c *cancelAfter) Err() error {
	if c.poll() {
		return context.Canceled
	}
	return nil
}

func (c *cancelAfter) Done() <-chan struct{} {
	c.poll()
	return c.done
}

// TestCancelledMidSamplingNamesThePhase cancels two-worker IMM and TIM+ runs
// at points spread over the whole run. Each must come back Partial with an
// error wrapping context.Canceled that names the phase the metrics say was
// under way — a bound is recorded the moment its phase ends — and between
// them the points must land in every sampling phase but TIM+'s refinement,
// which is 0.5% of its polls.
func TestCancelledMidSamplingNamesThePhase(t *testing.T) {
	g := imtest.TestGraph(1000)
	for _, tc := range []struct {
		mk     func() im.Selector
		phases []string // in order; phase i is under way once bounds[i-1] is recorded
		bounds []string
	}{
		{func() im.Selector { return NewIMM(g, ModelIC, TIMOptions{Epsilon: 0.3, Seed: 5, Workers: 2}) },
			[]string{"OPT lower-bounding", "node-selection sampling"}, []string{"lower_bound"}},
		{func() im.Selector {
			return NewTIMPlus(g, ModelIC, TIMOptions{Epsilon: 0.4, Seed: 5, Workers: 2, ThetaCap: 30000})
		},
			[]string{"KPT estimation", "KPT refinement", "node-selection sampling"}, []string{"kpt_star", "kpt_plus"}},
	} {
		count := newCancelAfter(1 << 62)
		if _, err := tc.mk().Select(count, 8); err != nil {
			t.Fatal(err)
		}
		polls := 1<<62 - count.left.Load()
		seen := map[string]bool{}
		const points = 16
		for i := int64(0); i < points; i++ {
			sel := tc.mk()
			res, err := sel.Select(newCancelAfter(i*polls/points), 8)
			if !errors.Is(err, context.Canceled) || !res.Partial || len(res.Seeds) >= 8 {
				t.Fatalf("%s cancelled at poll %d of %d: err=%v partial=%v seeds=%v", sel.Name(), i*polls/points, polls, err, res.Partial, res.Seeds)
			}
			if strings.Contains(err.Error(), "interrupted during") {
				phase := tc.phases[0]
				for j, bound := range tc.bounds {
					if _, ok := res.Metrics[bound]; ok {
						phase = tc.phases[j+1]
					}
				}
				if !strings.Contains(err.Error(), "interrupted during "+phase+":") {
					t.Fatalf("%s cancelled at poll %d: %q, but metrics %v put it in %s", sel.Name(), i*polls/points, err, res.Metrics, phase)
				}
				seen[phase] = true
			}
		}
		for _, phase := range tc.phases {
			if !seen[phase] && phase != "KPT refinement" {
				t.Errorf("%s: no cancellation point of %d landed in %s (%v)", tc.mk().Name(), points, phase, seen)
			}
		}
	}
}

package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/holisticim/holisticim/internal/diffusion"
	"github.com/holisticim/holisticim/internal/graph"
	"github.com/holisticim/holisticim/internal/im"
	"github.com/holisticim/holisticim/internal/rng"
)

// hostileGraph draws a digraph with what real inputs carry: isolated
// nodes, zero-probability and zero-weight arcs and negative opinions.
// Self-loops and parallel arcs cannot be loaded — ReadBinary refuses the
// rows Builder.Build never leaves — so no scorer ever meets them.
func hostileGraph(t *testing.T, r *rng.RNG) *graph.Graph {
	t.Helper()
	n := int32(2 + r.Intn(70))
	b := graph.NewBuilder(n)
	for i, arcs := 0, r.Intn(int(n)*6); i < arcs; i++ {
		u, v := graph.NodeID(r.Intn(int(n)/2+1)), graph.NodeID(r.Intn(int(n))) // the upper half has no out-arcs
		p, w := r.Float64(), 2*r.Float64()
		if r.Bool(0.15) {
			p, w = 0, 0
		}
		b.AddEdgeFull(u, v, p, r.Float64(), w)
	}
	g := b.Build()
	for v := graph.NodeID(0); v < n; v++ {
		g.SetOpinion(v, r.Range(-1, 1))
	}
	return g
}

// TestExcludeEqualsFreshAssign is the incremental pass's contract: after
// every batch of a random exclusion sequence, the kept state's scores ==
// those of a fresh scorer's Assign over the grown mask, on every node, with
// no tolerance. The trials must reach both branches of levels.Exclude: a
// level swept whole adds exactly n rows, a listed level fewer.
func TestExcludeEqualsFreshAssign(t *testing.T) {
	r := rng.New(20260929)
	var listedOnly, swept int
	for trial := 0; trial < 400; trial++ {
		g := hostileGraph(t, r)
		n := int(g.NumNodes())
		l, w := 1+r.Intn(4), EdgeWeight(r.Intn(2))
		lambda := []float64{1, 0.5, 0}[r.Intn(3)]
		mk := func() LevelScorer { return NewEaSyIM(g, l, w) }
		if trial%2 == 1 {
			mk = func() LevelScorer { return NewOSIM(g, l, w, lambda) }
		}
		mask := make([]bool, n)
		var live []graph.NodeID
		for v := range mask {
			if mask[v] = r.Bool(0.1); !mask[v] {
				live = append(live, graph.NodeID(v))
			}
		}
		rng.Shuffle(r, live)
		kept := mk()
		kept.Assign(nil, nil) // state to overwrite: Assign must not depend on it
		scores := kept.Assign(mask, nil)
		for step := 0; ; step++ {
			fresh := mk().Assign(mask, nil)
			for v := range fresh {
				if scores[v] != fresh[v] || mask[v] != (scores[v] == negInf) {
					t.Fatalf("trial %d (%s l=%d n=%d) step %d: node %d kept %v, fresh %v, excluded %v",
						trial, kept.Name(), l, n, step, v, scores[v], fresh[v], mask[v])
				}
			}
			if len(live) == 0 {
				break
			}
			batch := live[:1+r.Intn(min(len(live), 1+n/8))]
			if r.Bool(0.7) {
				batch = batch[:1] // a lone seed, as PolicySeedOnly hands over
			}
			live = live[len(batch):]
			for _, v := range batch {
				mask[v] = true
			}
			before, _, _ := kept.Work()
			kept.Exclude(batch, scores)
			if after, _, _ := kept.Work(); after-before < int64(n) {
				listedOnly++
			} else {
				swept++
			}
		}
	}
	if listedOnly < 100 || swept < 100 {
		t.Fatalf("%d passes only listed rows, %d swept a level: both branches must be exercised", listedOnly, swept)
	}
}

// TestDenseRanges is levels.dense's split: the ranges body receives tile
// [0, n) exactly once, sweepChunk rows at a time, and helpers start only for
// more than one worker on a graph of sweepGrain arcs or more — the 10k-node
// / 60k-arc BA a serving job scores must never fork. (par's tests hold For
// to its contract at any n, chunk and worker count.)
func TestDenseRanges(t *testing.T) {
	small := graph.BarabasiAlbert(10000, 3, rng.New(1))
	big := rmatGraph(6*sweepChunk+7, 3*sweepGrain/2)
	if small.NumEdges() >= sweepGrain || big.NumEdges() < sweepGrain {
		t.Fatalf("%d and %d arcs do not straddle the grain %d", small.NumEdges(), big.NumEdges(), sweepGrain)
	}
	for _, tc := range []struct {
		g       *graph.Graph
		workers int
		forks   bool
	}{{small, 1, false}, {small, 8, false}, {small, 0, false}, {big, 1, false}, {big, 2, true}, {big, 3, true}, {big, 64, true}} {
		s := NewEaSyIM(tc.g, 1, WeightProb)
		s.SetWorkers(tc.workers)
		var mu sync.Mutex
		var got [][2]int
		base, peak := runtime.NumGoroutine(), 0
		s.dense(func(lo, hi int) {
			mu.Lock()
			got = append(got, [2]int{lo, hi})
			peak = max(peak, runtime.NumGoroutine())
			mu.Unlock()
		})
		if forked := peak > base; forked != tc.forks {
			t.Fatalf("n=%d workers=%d: %d goroutines in a sweep, %d outside it", tc.g.NumNodes(), tc.workers, peak, base)
		}
		slices.SortFunc(got, func(a, b [2]int) int { return a[0] - b[0] })
		next := 0
		for _, r := range got {
			if r[0] != next || r[1] <= r[0] || r[1]-r[0] > sweepChunk {
				t.Fatalf("n=%d workers=%d: ranges %v do not tile the rows", tc.g.NumNodes(), tc.workers, got)
			}
			next = r[1]
		}
		if next != int(tc.g.NumNodes()) {
			t.Fatalf("n=%d workers=%d: ranges %v stop at %d", tc.g.NumNodes(), tc.workers, got, next)
		}
	}
}

// TestSelectCancelledBetweenSeeds cancels after the third seed: Select must
// stop before scoring a fourth and hand back exactly the seeds an
// uncancelled run starts with.
func TestSelectCancelledBetweenSeeds(t *testing.T) {
	g := rmatGraph(2000, 12000)
	mk := func() *ScoreGreedy {
		return NewScoreGreedy(NewOSIM(g, 3, WeightProb, 1), ScoreGreedyOptions{
			Policy: PolicyMCMajority, ProbeModel: diffusion.NewOI(g, diffusion.LayerIC), Seed: 9,
		})
	}
	full := runSelect(mk(), 8)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ctx = im.WithProgress(ctx, func(seedIdx int, _ graph.NodeID, _ time.Duration) {
		if seedIdx == 2 {
			cancel()
		}
	})
	res, err := mk().Select(ctx, 8)
	if !errors.Is(err, context.Canceled) || !res.Partial {
		t.Fatalf("err = %v, partial = %v: want a partial result wrapping context.Canceled", err, res.Partial)
	}
	if !slices.Equal(res.Seeds, full.Seeds[:3]) {
		t.Fatalf("cancelled run kept %v, want the first three of %v", res.Seeds, full.Seeds)
	}
	if got := res.Metrics["score_assignments"]; got != 3 {
		t.Fatalf("%v score assignments after cancelling at seed 3", got)
	}
	if fmt.Sprint(full.Metrics["state_bytes_per_node"]) == "0" || full.Metrics["rows_rescored"] >= 8*3*2000 {
		t.Fatalf("metrics %v: want the state size, and fewer rows than eight full passes", full.Metrics)
	}
}

package par

import (
	"context"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

// TestForPartitions: the ranges For hands out tile [0, n) exactly once, each
// starting on a multiple of chunk and at most chunk long — n a multiple of
// chunk or not, and more workers asked for than there are chunks — and
// every worker number is below Workers.
func TestForPartitions(t *testing.T) {
	for _, n := range []int{0, 1, 5, 127, 128, 129, 1000, 6*1024 + 7} {
		for _, chunk := range []int{1, 7, 128, 1024} {
			for _, workers := range []int{0, 1, 2, 3, 8, 64} {
				var mu sync.Mutex
				var got [][2]int
				bad := -1
				limit := Workers(workers, (n+chunk-1)/chunk)
				done := For(context.Background(), n, chunk, workers, func(w, lo, hi int) {
					mu.Lock()
					defer mu.Unlock()
					got = append(got, [2]int{lo, hi})
					if w < 0 || w >= limit {
						bad = w
					}
				})
				if done != n || bad >= 0 {
					t.Fatalf("n=%d chunk=%d workers=%d: done %d, worker %d of %d", n, chunk, workers, done, bad, limit)
				}
				slices.SortFunc(got, func(a, b [2]int) int { return a[0] - b[0] })
				next := 0
				for _, r := range got {
					if r[0] != next || r[0]%chunk != 0 || r[1] <= r[0] || r[1]-r[0] > chunk {
						t.Fatalf("n=%d chunk=%d workers=%d: ranges %v do not tile [0, n)", n, chunk, workers, got)
					}
					next = r[1]
				}
				if next != n {
					t.Fatalf("n=%d chunk=%d workers=%d: ranges stop at %d", n, chunk, workers, next)
				}
			}
		}
	}
}

// TestForCancelledKeepsCompletedPrefix cancels from inside a range: that
// range and every other one already claimed still run to their end, no
// range starts after the workers see the cancellation, and For returns the
// cut below which every index ran once and above which none ran.
func TestForCancelledKeepsCompletedPrefix(t *testing.T) {
	const n, chunk, cancelAt = 20000, 10, 3000
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if done := For(ctx, n, chunk, 4, func(_, _, _ int) { t.Error("a range ran under a cancelled context") }); done != 0 {
		t.Fatalf("pre-cancelled: done %d, want 0", done)
	}
	for _, workers := range []int{1, 2, 8} {
		ctx, cancel := context.WithCancel(context.Background())
		runs := make([]atomic.Int32, n)
		done := For(ctx, n, chunk, workers, func(_, lo, hi int) {
			if lo == cancelAt {
				cancel()
			}
			for i := lo; i < hi; i++ {
				runs[i].Add(1)
			}
		})
		cancel()
		if done < cancelAt+chunk || done >= n || workers == 1 && done != cancelAt+chunk {
			t.Fatalf("workers=%d: done %d, want the cancelling range [%d, %d) and little more", workers, done, cancelAt, cancelAt+chunk)
		}
		for i := range runs {
			want := int32(0)
			if i < done {
				want = 1
			}
			if got := runs[i].Load(); got != want {
				t.Fatalf("workers=%d done=%d: index %d ran %d times, want %d", workers, done, i, got, want)
			}
		}
	}
}

// TestWorkers is the one worker-count rule: non-positive asks for
// GOMAXPROCS, no more workers than chunks, never more than
// max(16, 2·GOMAXPROCS) whatever is asked, and at least one.
func TestWorkers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 12} {
		runtime.GOMAXPROCS(procs)
		bound := max(16, 2*procs)
		for _, tc := range []struct{ requested, chunks, want int }{
			{0, 1000, procs}, {-3, 1000, procs}, {5, 1000, 5},
			{8, 3, 3}, {0, 1, 1}, {0, 0, 1}, {4, 0, 1},
			{1 << 20, 1 << 20, bound}, {1 << 20, 10, min(10, bound)},
		} {
			if got := Workers(tc.requested, tc.chunks); got != tc.want {
				t.Errorf("GOMAXPROCS=%d: Workers(%d, %d) = %d, want %d", procs, tc.requested, tc.chunks, got, tc.want)
			}
		}
	}
}

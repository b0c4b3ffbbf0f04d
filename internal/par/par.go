// Package par is the one index-parallel loop of the algorithm packages:
// EaSyIM/OSIM's sweeps of every row, RR-set sampling and its repair, and
// Monte-Carlo runs all split [0, n) through For, with Workers as the one
// rule for how many goroutines they take. For only decides who computes an
// index, never what: a body whose result for index i is a function of the
// input and i alone leaves the same bits at any worker count.
package par

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers is the worker count of a loop over chunks claimable ranges:
// requested, or GOMAXPROCS when requested is not positive, capped at chunks
// and at max(16, 2·GOMAXPROCS) whatever was requested — every worker is
// CPU-bound and may own O(n) scratch, and the count can arrive from a
// request field. The floor of 16 lets determinism tests split work for real
// on any machine. It is at least 1.
func Workers(requested, chunks int) int {
	procs := runtime.GOMAXPROCS(0)
	if requested <= 0 {
		requested = procs
	}
	return max(1, min(requested, chunks, max(16, 2*procs)))
}

// For runs body over [0, n) as ranges [lo, hi) of at most chunk (≥ 1)
// indices, claimed in ascending order from one counter by
// Workers(workers, ⌈n/chunk⌉) goroutines: the caller's as worker 0, helpers
// as 1, 2, …, so body can keep per-worker state in a slice of that length.
// A worker checks ctx before each claim and stops once it is done, but a
// claimed range always runs to its end, so the ranges that ran are exactly
// those below a cut: For returns it, the length of the completed prefix —
// n unless ctx was cancelled first.
func For(ctx context.Context, n, chunk, workers int, body func(worker, lo, hi int)) (done int) {
	workers = Workers(workers, (n+chunk-1)/chunk)
	var next atomic.Int64
	work := func(w int) {
		for {
			select {
			case <-ctx.Done():
				return
			default:
			}
			lo := int(next.Add(int64(chunk))) - chunk
			if lo >= n {
				return
			}
			body(w, lo, min(lo+chunk, n))
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work(w)
		}()
	}
	work(0)
	wg.Wait()
	return min(int(next.Load()), n)
}

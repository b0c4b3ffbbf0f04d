package ris

import (
	"context"
	"errors"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/holisticim/holisticim/internal/graph"
)

// parallelChunk is the number of consecutive set indices a worker claims
// per atomic fetch. Large enough that the counter is off the hot path,
// small enough that cancellation lands quickly and stragglers cannot
// unbalance the split.
const parallelChunk = 128

// parallelMinCount is the batch size below which GenerateParallelCtx
// falls back to sequential generation: spawning workers for a handful of
// truncated BFS walks costs more than it saves.
const parallelMinCount = 4 * parallelChunk

// maxGenWorkers bounds the goroutines one generation call will spawn,
// whatever the caller asked for: sampling is CPU-bound, every worker
// owns an O(n) scratch array, and the workers knob can reach this code
// from untrusted request fields. Floor of 16 so determinism tests can
// exercise a genuinely parallel split even on small machines.
func maxGenWorkers() int {
	if w := 2 * runtime.GOMAXPROCS(0); w > 16 {
		return w
	}
	return 16
}

// GenerateParallelCtx samples `count` additional RR sets across up to
// `workers` goroutines. The collection contents are identical to a
// sequential GenerateCtx call with the same arguments: set i is produced
// from the split stream (seed, startIndex+i) by whichever worker claims
// it, and the results are appended in index order. workers <= 0 picks
// GOMAXPROCS.
//
// On cancellation the contiguous prefix of completed chunks is appended
// (later sets sampled by still-draining workers are discarded) and the
// context error is returned; because the streams are per-index
// deterministic, a later extension regenerates the discarded sets
// identically.
func (c *Collection) GenerateParallelCtx(ctx context.Context, count int, seed uint64, workers int) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if w := maxGenWorkers(); workers > w {
		workers = w
	}
	if count < parallelMinCount {
		workers = 1
	}
	return c.generate(ctx, count, seed, workers)
}

// generate is the one sampling path. Workers claim chunks of
// parallelChunk consecutive set indices, sample each chunk into a
// worker-local buffer they reuse, and leave behind an exactly sized copy;
// set lengths and weights go straight into the grown per-set columns
// (disjoint indices, so unsynchronized). The caller is the first worker,
// with the collection's own sampler; workers-1 goroutines join it.
func (c *Collection) generate(ctx context.Context, count int, seed uint64, workers int) error {
	if count <= 0 {
		return ctx.Err()
	}
	have := c.Len()
	off := extend(c.off, have+count+1)
	var weights []float64
	if c.kind.Weighted() {
		weights = extend(c.weights, have+count)
	}
	chunks := make([][]graph.NodeID, (count+parallelChunk-1)/parallelChunk)
	var next atomic.Int64
	work := func(ctx context.Context, s *Sampler) {
		var buf []graph.NodeID
		for ctx.Err() == nil {
			ci := int(next.Add(1)) - 1
			if ci >= len(chunks) {
				return
			}
			buf = buf[:0]
			for i := have + ci*parallelChunk; i < min(have+(ci+1)*parallelChunk, have+count); i++ {
				start := len(buf)
				buf = s.SampleInto(seed, uint64(i), buf)
				off[i+1] = uint32(len(buf) - start) // a length, until appendChunks sums them
				if weights != nil {
					weights[i] = OCRootWeight(s.g, buf[start:])
				}
			}
			chunks[ci] = append([]graph.NodeID(nil), buf...)
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work(ctx, NewSampler(c.g, c.kind))
		}()
	}
	work(ctx, c.smp)
	wg.Wait()
	if err := c.appendChunks(chunks, off, weights); err != nil {
		return err
	}
	return ctx.Err()
}

// appendChunks installs the chunks generate sampled, up to the first gap a
// cancellation left (an RR set always contains its root, so a nil chunk
// marks "not sampled"), stitching them in index order onto the arena,
// grown once to its final size. off and weights are the per-set columns
// already grown for the whole batch, off still holding lengths for the
// new sets. It takes no context: these sets are paid for, and aborting
// mid-install would tear the collection.
func (c *Collection) appendChunks(chunks [][]graph.NodeID, off []uint32, weights []float64) error {
	have, total, done := c.Len(), len(c.ids), 0
	for done < len(chunks) && chunks[done] != nil {
		total += len(chunks[done])
		done++
	}
	if done == 0 {
		return nil
	}
	if total > math.MaxUint32 {
		return errors.New("ris: RR arena exceeds 2^32 members")
	}
	sets := min(have+done*parallelChunk, len(off)-1)
	ids := extend(c.ids, total)[:len(c.ids)]
	for _, ch := range chunks[:done] {
		ids = append(ids, ch...)
	}
	off = off[:sets+1]
	for i := have; i < sets; i++ {
		off[i+1] += off[i]
	}
	c.ids, c.off = ids, off
	if weights != nil {
		c.weights = weights[:sets]
	}
	c.index(have)
	return nil
}

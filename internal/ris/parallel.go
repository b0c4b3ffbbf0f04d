package ris

import (
	"context"
	"errors"
	"math"

	"github.com/holisticim/holisticim/internal/graph"
	"github.com/holisticim/holisticim/internal/par"
)

// parallelChunk is the number of consecutive set indices a worker claims
// per par.For claim. Large enough that the counter is off the hot path,
// small enough that cancellation lands quickly and stragglers cannot
// unbalance the split.
const parallelChunk = 128

// parallelMinCount is the batch size below which sampling — generation and
// Resample alike — stays on the caller: spawning workers for a handful of
// truncated BFS walks costs more than it saves.
const parallelMinCount = 4 * parallelChunk

// GenerateParallelCtx samples `count` additional RR sets across up to
// `workers` goroutines (par.Workers: <= 0 is GOMAXPROCS). The collection
// contents are identical to a sequential GenerateCtx call with the same
// arguments: set i is produced from the split stream (seed, startIndex+i)
// by whichever worker claims it, and the results are appended in index
// order.
//
// On cancellation the completed prefix of the batch is appended (see
// par.For) and the context error is returned; because the streams are
// per-index deterministic, a later extension samples the rest identically.
func (c *Collection) GenerateParallelCtx(ctx context.Context, count int, seed uint64, workers int) error {
	have, count := c.Len(), max(count, 0)
	off := extend(c.off, have+count+1)
	var weights, batch []float64
	if c.kind.Weighted() {
		weights = extend(c.weights, have+count)
		batch = weights[have:]
	}
	done, spans := sample(ctx, c.smp, seed, func(i int) uint64 { return uint64(have + i) }, workers, off[have+1:], batch)
	if err := c.appendSpans(spans, off[:have+done+1], weights); err != nil {
		return err
	}
	return ctx.Err()
}

// Resample draws the sets at the given indices of the stream keyed by seed
// over g, on up to workers goroutines, without touching the collection:
// what generating over g would have put at those indices, in the order of
// ids, as windows of per-worker buffers. It is how a repair replays the sets
// a graph mutation may have changed.
func (c *Collection) Resample(ctx context.Context, g *graph.Graph, seed uint64, ids []int32, workers int) ([][]graph.NodeID, error) {
	lens := make([]uint32, len(ids))
	done, spans := sample(ctx, NewSampler(g, c.kind), seed, func(i int) uint64 { return uint64(ids[i]) }, workers, lens, nil)
	sets := make([][]graph.NodeID, 0, done)
	for ci, span := range spans {
		for _, l := range lens[ci*parallelChunk : min((ci+1)*parallelChunk, done)] {
			sets, span = append(sets, span[:l:l]), span[l:]
		}
	}
	return sets, ctx.Err()
}

// sample is the one sampling path: it draws the sets id(0), …, id(n−1) of
// the stream keyed by seed, n = len(lens), with smp's graph and kind — smp
// itself as worker 0, a sampler of its own for each other worker par.For
// starts. Set i's length goes to lens[i] and, unless weights is nil, its
// root-opinion weight to weights[i]; the sets themselves come back as one
// span per chunk of parallelChunk sets, back to back, for the completed
// prefix of done sets.
//
// A worker samples the chunks it claims into a buffer of its own, and the
// spans are windows of those buffers, so no set is copied before its caller
// copies it. A chunk that might not fit the buffer's spare room starts a
// fresh one, four times the largest chunk the worker has sampled, rather
// than growing it: growing would copy every chunk already there.
func sample(ctx context.Context, smp *Sampler, seed uint64, id func(int) uint64, workers int, lens []uint32, weights []float64) (done int, spans [][]graph.NodeID) {
	n := len(lens)
	if n < parallelMinCount {
		workers = 1
	}
	spans = make([][]graph.NodeID, (n+parallelChunk-1)/parallelChunk)
	ws := make([]struct {
		smp     *Sampler
		buf     []graph.NodeID
		largest int
	}, par.Workers(workers, len(spans)))
	ws[0].smp = smp
	done = par.For(ctx, n, parallelChunk, len(ws), func(w, lo, hi int) {
		// A copy: the workers' entries share cache lines, so the set loop
		// must not write them.
		x := ws[w]
		if x.smp == nil {
			x.smp = NewSampler(smp.g, smp.kind)
		}
		if cap(x.buf)-len(x.buf) < x.largest {
			x.buf = make([]graph.NodeID, 0, 4*x.largest)
		}
		buf, start := x.buf, len(x.buf)
		for i := lo; i < hi; i++ {
			at := len(buf)
			buf = x.smp.SampleInto(seed, id(i), buf)
			lens[i] = uint32(len(buf) - at)
			if weights != nil {
				weights[i] = OCRootWeight(smp.g, buf[at:])
			}
		}
		spans[lo/parallelChunk] = buf[start:len(buf):len(buf)]
		x.buf, x.largest = buf, max(x.largest, len(buf)-start)
		ws[w] = x
	})
	return done, spans[:(done+parallelChunk-1)/parallelChunk]
}

// appendSpans installs the spans sample drew onto the arena, grown once to
// its final size, and indexes them. off and weights are the per-set columns
// grown for the whole batch and cut to the sets drawn, off still holding
// lengths for the new sets. It takes no context: these sets are paid for,
// and aborting mid-install would tear the collection.
func (c *Collection) appendSpans(spans [][]graph.NodeID, off []uint32, weights []float64) error {
	have, total := c.Len(), len(c.ids)
	sets := len(off) - 1
	if sets == have {
		return nil
	}
	for _, span := range spans {
		total += len(span)
	}
	if total > math.MaxUint32 {
		return errors.New("ris: RR arena exceeds 2^32 members")
	}
	ids := extend(c.ids, total)[:len(c.ids)]
	for _, span := range spans {
		ids = append(ids, span...)
	}
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

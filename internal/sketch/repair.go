package sketch

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"

	"github.com/holisticim/holisticim/internal/graph"
	"github.com/holisticim/holisticim/internal/ris"
)

// RepairOptions tunes one Repair call.
type RepairOptions struct {
	// Workers bounds parallel resampling (default: the index's build
	// workers). Cannot change the resampled sets.
	Workers int
}

// RepairStats reports what one Repair call did.
type RepairStats struct {
	Resampled int    // sets containing a dirty node, resampled against the new snapshot
	Changed   int    // resampled sets whose contents actually differ
	Version   uint64 // the version the index now advertises
}

// GraphVersion returns the graph version the sample is synchronized to
// (0 until SetGraphVersion or Repair stamps one).
func (x *Index) GraphVersion() uint64 {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.graphVersion
}

// SetGraphVersion stamps the version of the graph content the index was
// built (or loaded) against. Serving layers call it once at registration
// so later repairs advance from the right baseline.
func (x *Index) SetGraphVersion(v uint64) {
	x.mu.Lock()
	x.graphVersion = v
	x.mu.Unlock()
}

// Repair re-synchronizes the index with a mutated snapshot of its graph
// without rebuilding: g is the new content, dirty the mutated edges'
// target nodes (live.BatchResult.Dirty, or the union of several batches'
// dirty sets — repairs coalesce), newVersion the version g carries.
//
// Correctness rests on the samplers' locality: both reverse samplers
// read the in-edge list of a node only AFTER adding that node to the
// set, and every mutated edge's reads key off its target. An RR set
// containing no dirty node therefore replays byte-identically on g, and
// resampling exactly the sets that DO contain one — deterministically,
// from the same per-index split streams (Seed, id) — yields a collection
// byte-identical to a from-scratch generation of the same count over g.
// The node count must be unchanged (the root draw depends on n); Repair
// errors otherwise and the caller must rebuild.
//
// The collection drops its memoized greedy order only when a resampled
// set actually changed; repairs that touch nothing (or replay identically)
// keep serving the memoized order untouched. After the repair the index
// is bound to g, so Matches — and every serving fast path behind it —
// accepts the new snapshot by pointer, and GraphFingerprint is g's own
// memoized hash: Repair hashes nothing. Until then the index is bound to
// the previous snapshot, whose fingerprint disagrees, and planners
// re-route queries to cold backends rather than silently serving stale
// samples.
//
// The cost follows the sets that contain a dirty node: they are found
// through the inverted index, resampled back to back into one buffer per
// worker, compared with what the arena holds, and the ones that differ
// handed to ReplaceSets as windows of those buffers.
func (x *Index) Repair(ctx context.Context, g *graph.Graph, dirty []graph.NodeID, newVersion uint64, opts RepairOptions) (RepairStats, error) {
	if g == nil {
		return RepairStats{}, errors.New("sketch: repair against nil graph")
	}
	x.mu.Lock()
	defer x.mu.Unlock()
	if g.NumNodes() != x.g.NumNodes() {
		return RepairStats{}, fmt.Errorf("sketch: node count changed (%d -> %d); repair cannot preserve the sample, rebuild instead",
			x.g.NumNodes(), g.NumNodes())
	}
	if err := ctx.Err(); err != nil {
		return RepairStats{}, err
	}

	// Candidates: every set whose walk touched a dirty node, via the
	// inverted index of the CURRENT sample.
	n := x.g.NumNodes()
	candSet := make(map[int32]struct{})
	for di, d := range dirty {
		if di&0xFFF == 0 {
			if err := ctx.Err(); err != nil {
				return RepairStats{}, err
			}
		}
		if d < 0 || d >= n {
			return RepairStats{}, fmt.Errorf("sketch: dirty node %d out of range [0,%d)", d, n)
		}
		for _, sid := range x.col.SetsContaining(d) {
			candSet[sid] = struct{}{}
		}
	}
	st := RepairStats{Version: newVersion}
	resample := make([]int32, 0, len(candSet))
	for sid := range candSet {
		if len(resample)&0xFFF == 0 {
			if err := ctx.Err(); err != nil {
				return st, err
			}
		}
		resample = append(resample, sid)
	}
	slices.Sort(resample)

	// Resample the candidates against the NEW snapshot, from the same
	// per-index split streams — workers cannot change the contents.
	fresh, err := x.resampleLocked(ctx, g, resample, opts.Workers)
	if err != nil {
		return st, err
	}

	// Install: rebind everything to the new snapshot and replace only the
	// sets that actually changed, in one batched rewrite of the arena.
	x.g = g
	x.col.Rebind(g)
	changedIDs := make([]int32, 0, len(resample))
	changedSets := make([][]graph.NodeID, 0, len(resample))
	//lint:ignore imlint/ctxpoll the new snapshot is already bound; aborting mid-install would tear the collection
	for i, sid := range resample {
		if !slices.Equal(x.col.Set(int(sid)), fresh[i]) {
			changedIDs = append(changedIDs, sid)
			changedSets = append(changedSets, fresh[i])
		}
	}
	st.Resampled = len(resample)
	x.col.ReplaceSets(changedIDs, changedSets)
	st.Changed = len(changedIDs)
	x.graphVersion = newVersion

	// The collection keeps its greedy order unless a set changed; the
	// build-phase OPT bound at BuildK described the old content then, so
	// re-derive it against the repaired sample.
	if st.Changed > 0 {
		_, covered := x.col.Greedy(x.params.BuildK)
		x.lb = ris.IMMLowerBound(float64(n), float64(covered)/float64(x.col.Len()), x.params.Epsilon)
	}
	return st, nil
}

// resampleLocked regenerates the given set indices from their (Seed, id)
// streams against g, in id order, without touching the collection. Each
// worker samples its stretch back to back into one buffer; the returned
// sets are windows of those buffers.
func (x *Index) resampleLocked(ctx context.Context, g *graph.Graph, ids []int32, workers int) ([][]graph.NodeID, error) {
	if workers <= 0 {
		workers = x.params.Workers
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	out := make([][]graph.NodeID, len(ids))
	const parallelMin = 256
	if len(ids) < parallelMin {
		workers = 1
	}
	// sample fills out[lo:hi], stopping early once ctx is done.
	sample := func(lo, hi int) {
		smp := ris.NewSampler(g, x.params.Kind)
		var buf []graph.NodeID
		ends := make([]int, 0, hi-lo)
		for i := lo; i < hi; i++ {
			if i%64 == 0 && ctx.Err() != nil {
				return
			}
			buf = smp.SampleInto(x.params.Seed, uint64(ids[i]), buf)
			ends = append(ends, len(buf))
		}
		// Windows are cut once the buffer has stopped moving.
		start := 0
		for k, end := range ends {
			out[lo+k] = buf[start:end:end]
			start = end
		}
	}
	var wg sync.WaitGroup
	chunk := (len(ids) + workers - 1) / workers
	for lo := 0; lo < len(ids); lo += chunk {
		hi := min(lo+chunk, len(ids))
		if workers == 1 {
			sample(lo, hi)
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			sample(lo, hi)
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

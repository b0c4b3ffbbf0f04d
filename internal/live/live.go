// Package live makes graphs mutable without throwing derived state away.
//
// Every graph in the system is an immutable CSR snapshot — the property
// that lets RR-sketch indexes, result caches and concurrent selections
// share one instance without locks. live.Graph keeps that property while
// adding mutation: Apply(batch) validates a batch of edge operations
// atomically, materializes a NEW immutable snapshot with the batch
// applied, and returns a monotone version number together with the
// batch's dirty-node set (the targets of every touched edge).
//
// The dirty set is the contract with incremental sketch repair
// (sketch.Index.Repair): both RR samplers — reverse IC BFS and reverse
// LT walks — only ever read the in-edge list of a node AFTER adding that
// node to the set, so an RR set sampled before the batch that contains
// no dirty node replays byte-identically on the new snapshot. Repair
// therefore resamples exactly the sets containing a dirty node and
// leaves everything else untouched.
package live

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"

	"github.com/holisticim/holisticim/internal/graph"
)

// OpKind names one edge operation of a mutation batch.
type OpKind string

// Edge operations.
const (
	// OpAdd inserts a new arc (From,To); it must not already exist.
	// Omitted parameters default to zero.
	OpAdd OpKind = "add"
	// OpRemove deletes the arc (From,To); it must exist.
	OpRemove OpKind = "remove"
	// OpReweight changes parameters of the existing arc (From,To); omitted
	// parameters keep their current values.
	OpReweight OpKind = "reweight"
)

// EdgeOp is one operation of a mutation batch. P/Phi/W are pointers so a
// reweight can distinguish "set to zero" from "keep current".
type EdgeOp struct {
	Op       OpKind
	From, To graph.NodeID
	P        *float64 // influence probability p(u,v) ∈ [0,1]
	Phi      *float64 // interaction probability ϕ(u,v) ∈ [0,1]
	W        *float64 // LT weight, non-negative and finite
}

// ApplyOptions tunes one Apply call.
type ApplyOptions struct {
	// RebalanceLT re-derives w(u,v) = 1/indeg(v) for EVERY in-edge of each
	// dirty target after the batch, keeping LT weight columns normalized
	// under topology churn (the weighted-cascade convention). Safe for
	// incremental repair: the reweighted edges all point into dirty nodes,
	// which the batch's dirty set already covers.
	RebalanceLT bool
}

// BatchResult reports one applied batch.
type BatchResult struct {
	// Version is the monotone version number the batch produced (the
	// wrapped snapshot starts at 0; the first batch yields 1).
	Version uint64
	// Dirty lists the distinct targets of the batch's operations (plus
	// nothing else), sorted ascending. This is exactly the set incremental
	// sketch repair needs.
	Dirty []graph.NodeID
	// Applied counts the operations in the batch.
	Applied int
	// Nodes and Arcs describe the new snapshot.
	Nodes int32
	Arcs  int64
}

// Options configures Wrap. It has no fields: the struct stays only because
// benchmark/ constructs live.Options{} and a PR may not edit the benchmark
// beside other code — the next benchmark-only PR can drop it and Wrap's
// second parameter.
type Options struct{}

// Graph wraps an immutable graph.Graph with a version counter. All methods
// are safe for concurrent use; Apply calls serialize.
type Graph struct {
	mu      sync.RWMutex
	g       *graph.Graph // guarded by mu
	version uint64       // guarded by mu
}

// Wrap starts a mutation lineage at version 0 over g.
func Wrap(g *graph.Graph, _ Options) *Graph {
	if g == nil {
		panic("live: nil graph")
	}
	return &Graph{g: g}
}

// Graph returns the current immutable snapshot. Callers may hold it
// indefinitely; later Apply calls produce new snapshots instead of
// touching this one.
func (lv *Graph) Graph() *graph.Graph {
	lv.mu.RLock()
	defer lv.mu.RUnlock()
	return lv.g
}

// Version returns the current version number.
func (lv *Graph) Version() uint64 {
	lv.mu.RLock()
	defer lv.mu.RUnlock()
	return lv.version
}

// Snapshot returns the current snapshot and its version, read atomically.
func (lv *Graph) Snapshot() (*graph.Graph, uint64) {
	lv.mu.RLock()
	defer lv.mu.RUnlock()
	return lv.g, lv.version
}

// edgeKey packs an arc for batch conflict detection and the rebuild
// edit map.
func edgeKey(u, v graph.NodeID) int64 { return int64(u)<<32 | int64(uint32(v)) }

func validProb(p float64) bool   { return p >= 0 && p <= 1 && !math.IsNaN(p) }
func validWeight(w float64) bool { return w >= 0 && !math.IsNaN(w) && !math.IsInf(w, 0) }

// validateLocked checks one op against the current snapshot. Whole-batch
// atomicity rides on validation being side-effect free: Apply validates
// every op before building anything.
func (lv *Graph) validateLocked(i int, op EdgeOp) error {
	n := lv.g.NumNodes()
	if op.From < 0 || op.From >= n || op.To < 0 || op.To >= n {
		return fmt.Errorf("live: op %d: edge (%d,%d) out of range [0,%d)", i, op.From, op.To, n)
	}
	if op.From == op.To {
		return fmt.Errorf("live: op %d: self-loop (%d,%d)", i, op.From, op.To)
	}
	if op.P != nil && !validProb(*op.P) {
		return fmt.Errorf("live: op %d: probability %v out of [0,1]", i, *op.P)
	}
	if op.Phi != nil && !validProb(*op.Phi) {
		return fmt.Errorf("live: op %d: interaction %v out of [0,1]", i, *op.Phi)
	}
	if op.W != nil && !validWeight(*op.W) {
		return fmt.Errorf("live: op %d: LT weight %v negative or non-finite", i, *op.W)
	}
	exists := lv.g.HasEdge(op.From, op.To)
	switch op.Op {
	case OpAdd:
		if exists {
			return fmt.Errorf("live: op %d: add of existing edge (%d,%d)", i, op.From, op.To)
		}
	case OpRemove:
		if !exists {
			return fmt.Errorf("live: op %d: remove of absent edge (%d,%d)", i, op.From, op.To)
		}
	case OpReweight:
		if !exists {
			return fmt.Errorf("live: op %d: reweight of absent edge (%d,%d)", i, op.From, op.To)
		}
		if op.P == nil && op.Phi == nil && op.W == nil {
			return fmt.Errorf("live: op %d: reweight of (%d,%d) sets no parameter", i, op.From, op.To)
		}
	default:
		return fmt.Errorf("live: op %d: unknown op %q", i, op.Op)
	}
	return nil
}

// Apply validates and applies one batch atomically: either every op is
// valid and a new snapshot at version+1 is installed, or the error names
// the first offending op and nothing changes. Opinions carry over to the
// new snapshot unchanged. ctx is honored between the validation and
// rebuild phases (the rebuild itself is a single fast CSR pass).
func (lv *Graph) Apply(ctx context.Context, ops []EdgeOp, opts ApplyOptions) (BatchResult, error) {
	if len(ops) == 0 {
		return BatchResult{}, errors.New("live: empty batch")
	}
	lv.mu.Lock()
	defer lv.mu.Unlock()
	if err := ctx.Err(); err != nil {
		return BatchResult{}, err
	}

	// Validate everything first; also reject two ops on one arc (their
	// outcome would depend on batch order, which the wire format does not
	// promise to preserve under retries).
	edits := make(map[int64]int, len(ops)) // edgeKey -> op index
	for i, op := range ops {
		if err := lv.validateLocked(i, op); err != nil {
			return BatchResult{}, err
		}
		key := edgeKey(op.From, op.To)
		if j, dup := edits[key]; dup {
			return BatchResult{}, fmt.Errorf("live: ops %d and %d both touch edge (%d,%d)", j, i, op.From, op.To)
		}
		edits[key] = i
	}
	if err := ctx.Err(); err != nil {
		return BatchResult{}, err
	}

	// Dirty targets and, for the optional LT rebalance, the new in-degree
	// of each dirty target (old in-degree plus adds minus removes).
	g := lv.g
	n := g.NumNodes()
	dirtySet := make(map[graph.NodeID]int32, len(ops)) // target -> in-degree delta
	for _, op := range ops {
		d := dirtySet[op.To]
		switch op.Op {
		case OpAdd:
			d++
		case OpRemove:
			d--
		}
		dirtySet[op.To] = d
	}
	newInDeg := func(v graph.NodeID) int32 { return g.InDegree(v) + dirtySet[v] }
	ltWeight := func(v graph.NodeID, old float64) float64 {
		if !opts.RebalanceLT {
			return old
		}
		if _, dirty := dirtySet[v]; !dirty {
			return old
		}
		if d := newInDeg(v); d > 0 {
			return 1 / float64(d)
		}
		return 0
	}

	// Rebuild: one pass over the old CSR with the edit map applied, then
	// the added arcs.
	b := graph.NewBuilder(n)
	for u := graph.NodeID(0); u < n; u++ {
		nbrs := g.OutNeighbors(u)
		ps := g.OutProbs(u)
		phis := g.OutPhis(u)
		ws := g.OutWeights(u)
		for i, v := range nbrs {
			p, phi, w := ps[i], phis[i], ws[i]
			if j, ok := edits[edgeKey(u, v)]; ok {
				op := ops[j]
				if op.Op == OpRemove {
					continue
				}
				// OpReweight (OpAdd cannot hit an existing arc).
				if op.P != nil {
					p = *op.P
				}
				if op.Phi != nil {
					phi = *op.Phi
				}
				if op.W != nil {
					w = *op.W
				}
			}
			b.AddEdgeFull(u, v, p, phi, ltWeight(v, w))
		}
	}
	for _, op := range ops {
		if op.Op != OpAdd {
			continue
		}
		var p, phi, w float64
		if op.P != nil {
			p = *op.P
		}
		if op.Phi != nil {
			phi = *op.Phi
		}
		if op.W != nil {
			w = *op.W
		}
		b.AddEdgeFull(op.From, op.To, p, phi, ltWeight(op.To, w))
	}
	newG := b.Build()
	newG.SetOpinions(g.Opinions())

	dirty := make([]graph.NodeID, 0, len(dirtySet))
	for v := range dirtySet {
		dirty = append(dirty, v)
	}
	sort.Slice(dirty, func(i, j int) bool { return dirty[i] < dirty[j] })

	lv.g = newG
	lv.version++
	return BatchResult{
		Version: lv.version,
		Dirty:   dirty,
		Applied: len(ops),
		Nodes:   newG.NumNodes(),
		Arcs:    newG.NumEdges(),
	}, nil
}

// Package live makes graphs mutable without throwing derived state away.
//
// Every graph in the system is an immutable CSR snapshot — the property
// that lets RR-sketch indexes, result caches and concurrent selections
// share one instance without locks. Apply keeps that property while
// adding mutation: it validates a batch of edge operations atomically,
// derives a NEW immutable snapshot from the given one
// (graph.WithArcEdits: the arrays block-copied around the edited arcs,
// nothing re-sorted, only the in-adjacency re-derived), and returns the
// next version number together with the batch's dirty-node set (the
// targets of every touched edge).
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
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
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
	// Version is the version number the batch produced, one past the
	// snapshot it was applied to (a wrapped lineage starts at 0, so its
	// first batch yields 1).
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

// edgeKey packs an arc for batch conflict detection.
func edgeKey(u, v graph.NodeID) int64 { return int64(u)<<32 | int64(uint32(v)) }

// validate checks one op against g. Whole-batch atomicity rides on
// validation being side-effect free: Apply validates every op before
// building anything.
func validate(g *graph.Graph, i int, op EdgeOp) error {
	n := g.NumNodes()
	if op.From < 0 || op.From >= n || op.To < 0 || op.To >= n {
		return fmt.Errorf("live: op %d: edge (%d,%d) out of range [0,%d)", i, op.From, op.To, n)
	}
	if op.From == op.To {
		return fmt.Errorf("live: op %d: self-loop (%d,%d)", i, op.From, op.To)
	}
	if op.P != nil && !graph.ValidProb(*op.P) {
		return fmt.Errorf("live: op %d: probability %v out of [0,1]", i, *op.P)
	}
	if op.Phi != nil && !graph.ValidProb(*op.Phi) {
		return fmt.Errorf("live: op %d: interaction %v out of [0,1]", i, *op.Phi)
	}
	if op.W != nil && !graph.ValidWeight(*op.W) {
		return fmt.Errorf("live: op %d: LT weight %v negative or non-finite", i, *op.W)
	}
	exists := g.HasEdge(op.From, op.To)
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

// Apply validates one batch against g, the snapshot at version, and
// derives the snapshot after it atomically: either every op is valid and
// the new snapshot comes back with the batch at version+1, or the error
// names the first offending op and g stays the latest. g itself is never
// touched, and opinions carry over unchanged. ctx is honored before
// validation and before the new snapshot is derived; the derivation
// itself — a few block copies and one counting sort — runs to completion.
func Apply(ctx context.Context, g *graph.Graph, version uint64, ops []EdgeOp, opts ApplyOptions) (*graph.Graph, BatchResult, error) {
	if len(ops) == 0 {
		return nil, BatchResult{}, errors.New("live: empty batch")
	}
	if err := ctx.Err(); err != nil {
		return nil, BatchResult{}, err
	}

	// Validate everything first; also reject two ops on one arc (their
	// outcome would depend on batch order, which the wire format does not
	// promise to preserve under retries).
	seen := make(map[int64]int, len(ops)) // edgeKey -> op index
	for i, op := range ops {
		if err := validate(g, i, op); err != nil {
			return nil, BatchResult{}, err
		}
		key := edgeKey(op.From, op.To)
		if j, dup := seen[key]; dup {
			return nil, BatchResult{}, fmt.Errorf("live: ops %d and %d both touch edge (%d,%d)", j, i, op.From, op.To)
		}
		seen[key] = i
	}
	if err := ctx.Err(); err != nil {
		return nil, BatchResult{}, err
	}

	// Dirty targets — the distinct heads of the batch's arcs, ascending —
	// and the batch as the sorted arc edits the graph layer takes. An add's
	// omitted parameters and a reweight's kept ones are both a nil there.
	dirty := make([]graph.NodeID, len(ops))
	arcs := make([]graph.ArcEdit, len(ops))
	for i, op := range ops {
		dirty[i] = op.To
		arcs[i] = graph.ArcEdit{From: op.From, To: op.To, Remove: op.Op == OpRemove, P: op.P, Phi: op.Phi, W: op.W}
	}
	slices.Sort(dirty)
	dirty = slices.Compact(dirty)
	slices.SortFunc(arcs, func(a, b graph.ArcEdit) int {
		return cmp.Or(cmp.Compare(a.From, b.From), cmp.Compare(a.To, b.To))
	})

	// With RebalanceLT the in-arcs of every dirty target are reweighted by
	// its in-degree in the new snapshot.
	var rebalance []graph.NodeID
	if opts.RebalanceLT {
		rebalance = dirty
	}
	newG := g.WithArcEdits(arcs, rebalance)
	return newG, BatchResult{
		Version: version + 1,
		Dirty:   dirty,
		Applied: len(ops),
		Nodes:   newG.NumNodes(),
		Arcs:    newG.NumEdges(),
	}, nil
}

// Apply applies one batch to the wrapped lineage (see the function Apply)
// and, on success, makes its snapshot the current one.
func (lv *Graph) Apply(ctx context.Context, ops []EdgeOp, opts ApplyOptions) (BatchResult, error) {
	lv.mu.Lock()
	defer lv.mu.Unlock()
	g, res, err := Apply(ctx, lv.g, lv.version, ops, opts)
	if err != nil {
		return BatchResult{}, err
	}
	lv.g, lv.version = g, res.Version
	return res, nil
}

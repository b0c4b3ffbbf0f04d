package service

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/holisticim/holisticim"
)

// Sketch registry errors.
var (
	ErrSketchNotFound = errors.New("service: sketch not found")
	ErrSketchExists   = errors.New("service: sketch already registered")
	ErrSketchesFull   = errors.New("service: sketch registry full")
)

// SketchID is the canonical identifier of a sketch: one index per
// (graph, RR semantics, ε, seed), semantics being ris.ModelKind's "ic",
// "lt" or the opinion-weighted "oc". The id pins the sample a fast-path
// selection will use: a graph name rebound to different content evicts
// its sketches (RebindGraph), so a live id always means a live sample.
// The cluster layer's manifest ids and routing keys are this string too.
func SketchID(graph, semantics string, epsilon float64, seed uint64) string {
	return fmt.Sprintf("%s:%s:e%g:s%d", graph, semantics, epsilon, seed)
}

// SketchRegistry holds the server's RR-sketch indexes. Like the graph
// registry it only ever grows up to its cap — but sketches, unlike
// graphs, can be evicted (DELETE /v1/sketches/{id}) and rebuilt, since
// an id always maps to the same deterministic sample.
type SketchRegistry struct {
	mu          sync.RWMutex
	maxSketches int
	entries     map[string]*sketchEntry
	builds      int64 // completed builds/loads, for /v1/stats

	repairs       atomic.Int64 // completed incremental repairs, for /v1/stats
	repairedSets  atomic.Int64 // RR sets resampled across all repairs
	repairsFailed atomic.Int64 // repairs that failed (the sketch was evicted)
}

type sketchEntry struct {
	idx       *holisticim.Sketch
	graph     string
	semantics string
	epsilon   float64
	seed      uint64

	repair repairState
}

// repairState coalesces mutation batches into background repairs for one
// sketch. ScheduleRepair merges each batch's dirty set under the lock
// and starts one drain job when none is running; the drain loop's
// check-and-clear also runs under the lock, so a batch arriving while a
// repair is in flight is either folded into the current drain iteration
// or picked up by the next — never lost. Coalescing is sound because
// repairing the union of several batches' dirty sets against the latest
// snapshot yields the same sample as repairing batch by batch: a set is
// resampled iff it ever contained a dirty node, and resampling is a pure
// function of (latest graph, seed, set index).
type repairState struct {
	mu             sync.Mutex
	pendingDirty   map[holisticim.NodeID]struct{}
	pendingGraph   *holisticim.Graph
	pendingVersion uint64
	running        bool
}

// NewSketchRegistry returns an empty sketch registry.
func NewSketchRegistry() *SketchRegistry {
	return &SketchRegistry{entries: make(map[string]*sketchEntry)}
}

// Add registers idx under the canonical id for its key, refusing an id
// that is already bound.
func (r *SketchRegistry) Add(graph, semantics string, epsilon float64, seed uint64, idx *holisticim.Sketch) (string, error) {
	id, _, err := r.put(graph, semantics, epsilon, seed, idx, false)
	return id, err
}

// Put registers idx under its canonical id, REPLACING any sketch already
// bound to the id. This is the store watcher's load path: a manifest
// update ships a rebuilt sample for the same (graph, semantics, ε, seed)
// key, and the replica must swap it in place — in-flight selections
// holding the old index finish against it, new lookups see the new one.
// Returns the id and whether an existing entry was replaced. The cap only
// gates NEW ids; replacements always land, since refusing one would leave
// a stale sample serving the fast path.
func (r *SketchRegistry) Put(graph, semantics string, epsilon float64, seed uint64, idx *holisticim.Sketch) (string, bool, error) {
	return r.put(graph, semantics, epsilon, seed, idx, true)
}

func (r *SketchRegistry) put(graph, semantics string, epsilon float64, seed uint64, idx *holisticim.Sketch, replace bool) (id string, replaced bool, err error) {
	if idx == nil {
		return "", false, errors.New("service: nil sketch")
	}
	id = SketchID(graph, semantics, epsilon, seed)
	r.mu.Lock()
	defer r.mu.Unlock()
	_, replaced = r.entries[id]
	if replaced && !replace {
		return "", false, fmt.Errorf("%w: %q", ErrSketchExists, id)
	}
	if !replaced && r.maxSketches > 0 && len(r.entries) >= r.maxSketches {
		return "", false, fmt.Errorf("%w (%d sketches)", ErrSketchesFull, r.maxSketches)
	}
	r.entries[id] = &sketchEntry{idx: idx, graph: graph, semantics: semantics, epsilon: epsilon, seed: seed}
	r.builds++
	return id, replaced, nil
}

// Lookup returns the index serving (graph, semantics, ε, seed), or nil.
func (r *SketchRegistry) Lookup(graph, semantics string, epsilon float64, seed uint64) *holisticim.Sketch {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.entries[SketchID(graph, semantics, epsilon, seed)]
	if !ok {
		return nil
	}
	return e.idx
}

// Get returns the index with the given id.
func (r *SketchRegistry) Get(id string) (*holisticim.Sketch, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.entries[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrSketchNotFound, id)
	}
	return e.idx, nil
}

// Evict drops the index with the given id. In-flight selections holding
// the index finish against it; the memory is reclaimed once they unwind.
func (r *SketchRegistry) Evict(id string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.entries[id]; !ok {
		return false
	}
	delete(r.entries, id)
	return true
}

// info materializes one entry's SketchInfo (counters read live).
func (e *sketchEntry) info(id string) SketchInfo {
	st := e.idx.Stats()
	p := e.idx.Params()
	return SketchInfo{
		ID:               id,
		Graph:            e.graph,
		Model:            e.semantics,
		Epsilon:          e.epsilon,
		Seed:             e.seed,
		BuildK:           p.BuildK,
		Sets:             st.Sets,
		OrderLen:         st.OrderLen,
		Selects:          st.Selects,
		Extensions:       st.Extensions,
		MemoryBytes:      st.MemoryBytes,
		GraphVersion:     e.idx.GraphVersion(),
		GraphFingerprint: fmt.Sprintf("%016x", e.idx.GraphFingerprint()),
	}
}

// ScheduleRepair queues incremental repairs for every sketch registered
// against graphName after a mutation to (g, version) with the given
// dirty nodes. Batches coalesce per sketch (see repairState); at most
// one drain job runs per sketch at a time, submitted through submit —
// typically a closure over the server's job manager, so repairs share
// the bounded worker pool with selections. A repair that fails evicts
// its sketch: a sample that could not be resynchronized must never serve
// the fast path again. Returns how many sketches had work scheduled.
func (r *SketchRegistry) ScheduleRepair(graphName string, g *holisticim.Graph, version uint64, dirty []holisticim.NodeID, submit func(key string, fn JobFunc) error) int {
	r.mu.RLock()
	targets := make(map[string]*sketchEntry)
	for id, e := range r.entries {
		if e.graph == graphName {
			targets[id] = e
		}
	}
	r.mu.RUnlock()

	scheduled := 0
	for id, e := range targets {
		st := &e.repair
		st.mu.Lock()
		if st.pendingDirty == nil {
			st.pendingDirty = make(map[holisticim.NodeID]struct{}, len(dirty))
		}
		for _, d := range dirty {
			st.pendingDirty[d] = struct{}{}
		}
		// Latest snapshot wins: repairing the accumulated union against it
		// subsumes every intermediate version.
		st.pendingGraph = g
		st.pendingVersion = version
		start := !st.running
		if start {
			st.running = true
		}
		st.mu.Unlock()
		scheduled++
		if !start {
			continue
		}
		// The version in the key makes every submission unique: a plain
		// per-sketch key could collide with a drain job that already set
		// running=false but whose single-flight entry the manager has not
		// yet cleared — the new submission would dedup against it, drop
		// its JobFunc, and strand the pending work.
		key := fmt.Sprintf("sketchrepair:%s:v%d", id, version)
		if err := submit(key, r.drainFunc(id, e)); err != nil {
			// Queue full: the sketch cannot be repaired now and must not
			// keep serving the old content's fast path.
			st.mu.Lock()
			st.running = false
			st.mu.Unlock()
			r.repairsFailed.Add(1)
			r.Evict(id)
		}
	}
	return scheduled
}

// drainFunc returns the JobFunc that drains one sketch's pending repairs.
func (r *SketchRegistry) drainFunc(id string, e *sketchEntry) JobFunc {
	return func(ctx context.Context, report func(int)) (*QueryAnswer, error) {
		st := &e.repair
		total := 0
		for {
			st.mu.Lock()
			if len(st.pendingDirty) == 0 {
				st.running = false
				st.mu.Unlock()
				return nil, nil
			}
			dirty := make([]holisticim.NodeID, 0, len(st.pendingDirty))
			for d := range st.pendingDirty {
				dirty = append(dirty, d)
			}
			st.pendingDirty = make(map[holisticim.NodeID]struct{})
			g := st.pendingGraph
			ver := st.pendingVersion
			st.mu.Unlock()

			stats, err := e.idx.Repair(ctx, g, dirty, ver, holisticim.SketchRepairOptions{})
			if err != nil {
				st.mu.Lock()
				st.running = false
				st.mu.Unlock()
				r.repairsFailed.Add(1)
				r.Evict(id)
				return nil, fmt.Errorf("service: repair sketch %s: %w", id, err)
			}
			r.repairs.Add(1)
			r.repairedSets.Add(int64(stats.Resampled))
			total += stats.Resampled
			report(total)
		}
	}
}

// CountFor returns how many sketches are registered for graphName.
func (r *SketchRegistry) CountFor(graphName string) int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	n := 0
	for _, e := range r.entries {
		if e.graph == graphName {
			n++
		}
	}
	return n
}

// RepairTotals returns the registry-wide repair counters for /v1/stats.
func (r *SketchRegistry) RepairTotals() (repairs, sets, failed int64) {
	return r.repairs.Load(), r.repairedSets.Load(), r.repairsFailed.Load()
}

// List returns the registered sketches' summaries, sorted by id.
func (r *SketchRegistry) List() []SketchInfo {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]SketchInfo, 0, len(r.entries))
	for id, e := range r.entries {
		out = append(out, e.info(id))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Info returns the summary for one id.
func (r *SketchRegistry) Info(id string) (SketchInfo, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.entries[id]
	if !ok {
		return SketchInfo{}, fmt.Errorf("%w: %q", ErrSketchNotFound, id)
	}
	return e.info(id), nil
}

// Totals sums the registry-wide counters for /v1/stats.
func (r *SketchRegistry) Totals() (count int, sets int64, bytes int64, builds int64) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, e := range r.entries {
		st := e.idx.Stats()
		sets += int64(st.Sets)
		bytes += st.MemoryBytes
	}
	return len(r.entries), sets, bytes, r.builds
}

// LoadSnapshot registers a sketch loaded from a snapshot file, keyed by
// the parameters stored in the snapshot itself.
func (r *SketchRegistry) LoadSnapshot(graphName string, g *holisticim.Graph, path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", fmt.Errorf("service: open sketch snapshot: %w", err)
	}
	defer f.Close()
	idx, err := holisticim.ReadSketch(f, g)
	if err != nil {
		return "", fmt.Errorf("service: read %s: %w", path, err)
	}
	p := idx.Params()
	return r.Add(graphName, p.Kind.Semantics(), p.Epsilon, p.Seed, idx)
}

// RebindGraph reconciles the registry with a graph name that was just
// rebound: every sketch registered for the name is rebound to the new
// instance when the content fingerprints still agree (Index.Matches
// self-rebinds on a fingerprint match), and evicted when they don't — a
// sketch over the old topology must never serve the new graph's fast
// path. Returns how many sketches were kept and how many evicted.
func (r *SketchRegistry) RebindGraph(graphName string, g *holisticim.Graph) (kept, evicted int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for id, e := range r.entries {
		if e.graph != graphName {
			continue
		}
		if e.idx.Matches(g, e.idx.Kind()) {
			kept++
			continue
		}
		delete(r.entries, id)
		evicted++
	}
	return kept, evicted
}

package service

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sort"
	"sync"

	"github.com/holisticim/holisticim"
	"github.com/holisticim/holisticim/internal/admission"
)

// Sketch registry errors.
var (
	ErrSketchNotFound = errors.New("service: sketch not found")
	ErrSketchExists   = errors.New("service: sketch already registered")
	ErrSketchesFull   = errors.New("service: sketch registry full")
)

// SketchID is the canonical identifier of a sketch: one index per
// (graph, RR semantics, ε, seed), semantics being ris.ModelKind's "ic",
// "lt" or the opinion-weighted "oc". A name rebound to different content
// drops its sketches, so a live id always means a live sample. The
// cluster layer's manifest ids and routing keys are this string too.
func SketchID(graph, semantics string, epsilon float64, seed uint64) string {
	return fmt.Sprintf("%s:%s:e%g:s%d", graph, semantics, epsilon, seed)
}

// sketchKey names a sketch within its graph's entry.
type sketchKey struct {
	semantics string
	epsilon   float64
	seed      uint64
}

// sketchEntry is one registered index. Unlike graphs, sketches can be
// evicted (DELETE /v1/sketches/{id}) and rebuilt, since an id always maps
// to the same deterministic sample.
type sketchEntry struct {
	idx   *holisticim.Sketch
	graph string
	key   sketchKey
	id    string

	repair repairState
}

// repairState coalesces mutation batches into background repairs for one
// sketch. scheduleRepairs merges each batch's dirty set under the lock
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

// AddSketch registers idx under the id name and its own parameters spell,
// refusing an id already bound. idx must be bound to the graph name holds:
// a sample over a snapshot a Replace or an edge batch has since superseded
// is refused with ErrGraphReplaced.
func (r *Registry) AddSketch(name string, idx *holisticim.Sketch) (string, error) {
	return r.putSketch(name, idx, false)
}

// PutSketch is AddSketch REPLACING any sketch already bound to the id —
// the store watcher's path for a republished sample: in-flight selections
// finish against the old index, new lookups see the new one. A
// replacement lands even at the cap; refusing it would keep a stale one.
func (r *Registry) PutSketch(name string, idx *holisticim.Sketch) (string, error) {
	return r.putSketch(name, idx, true)
}

func (r *Registry) putSketch(name string, idx *holisticim.Sketch, replace bool) (string, error) {
	if idx == nil {
		return "", errors.New("service: nil sketch")
	}
	p, bound := idx.Params(), idx.Graph()
	k := sketchKey{p.Kind.Semantics(), p.Epsilon, p.Seed}
	id := SketchID(name, k.semantics, k.epsilon, k.seed)
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.graphs[name]
	if !ok {
		return "", fmt.Errorf("%w: %q", ErrGraphNotFound, name)
	}
	if e.g != bound {
		return "", fmt.Errorf("%w: %q moved on while sketch %q was sampled", ErrGraphReplaced, name, id)
	}
	_, taken := e.sketches[k]
	if taken && !replace {
		return "", fmt.Errorf("%w: %q", ErrSketchExists, id)
	}
	if !taken && r.maxSketches > 0 && len(r.sketchesLocked("")) >= r.maxSketches {
		return "", fmt.Errorf("%w (%d sketches)", ErrSketchesFull, r.maxSketches)
	}
	e.sketches[k] = &sketchEntry{idx: idx, graph: name, key: k, id: id,
		repair: repairState{pendingDirty: make(map[holisticim.NodeID]struct{})}}
	r.builds++
	return id, nil
}

// sketchesLocked returns the sketches registered on name, or on every
// graph when name is "".
func (r *Registry) sketchesLocked(name string) []*sketchEntry {
	var out []*sketchEntry
	for n, e := range r.graphs {
		if name != "" && n != name {
			continue
		}
		for _, sk := range e.sketches {
			out = append(out, sk)
		}
	}
	return out
}

// sketchesOf is sketchesLocked for callers about to call index methods.
func (r *Registry) sketchesOf(name string) []*sketchEntry {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.sketchesLocked(name)
}

// sketchByID finds the sketch registered under id, or nil.
func (r *Registry) sketchByID(id string) *sketchEntry {
	for _, sk := range r.sketchesOf("") {
		if sk.id == id {
			return sk
		}
	}
	return nil
}

// EvictSketch drops the index with the given id. In-flight selections
// holding it finish against it; its memory is reclaimed once they unwind.
func (r *Registry) EvictSketch(id string) bool {
	sk := r.sketchByID(id)
	return sk != nil && r.evict(sk)
}

// evict removes sk from its graph's current entry, if it is still there
// (and not a newer index registered under the same id since).
func (r *Registry) evict(sk *sketchEntry) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.graphs[sk.graph]
	if !ok || e.sketches[sk.key] != sk {
		return false
	}
	delete(e.sketches, sk.key)
	return true
}

// info materializes one entry's SketchInfo (counters read live).
func (sk *sketchEntry) info() SketchInfo {
	st := sk.idx.Stats()
	return SketchInfo{
		ID:               sk.id,
		Graph:            sk.graph,
		Model:            sk.key.semantics,
		Epsilon:          sk.key.epsilon,
		Seed:             sk.key.seed,
		BuildK:           sk.idx.Params().BuildK,
		Sets:             st.Sets,
		OrderLen:         st.OrderLen,
		Selects:          st.Selects,
		Extensions:       st.Extensions,
		MemoryBytes:      st.MemoryBytes,
		GraphVersion:     sk.idx.GraphVersion(),
		GraphFingerprint: fmt.Sprintf("%016x", sk.idx.GraphFingerprint()),
	}
}

// ListSketches returns the registered sketches' summaries, sorted by id.
func (r *Registry) ListSketches() []SketchInfo {
	held := r.sketchesOf("")
	out := make([]SketchInfo, len(held))
	for i, sk := range held {
		out[i] = sk.info()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// DescribeSketch returns the summary for one id.
func (r *Registry) DescribeSketch(id string) (SketchInfo, error) {
	sk := r.sketchByID(id)
	if sk == nil {
		return SketchInfo{}, fmt.Errorf("%w: %q", ErrSketchNotFound, id)
	}
	return sk.info(), nil
}

// SketchTotals sums the registry-wide sketch counters for /v1/stats.
func (r *Registry) SketchTotals() (count int, sets int64, bytes int64, builds int64) {
	r.mu.RLock()
	held, builds := r.sketchesLocked(""), r.builds
	r.mu.RUnlock()
	for _, sk := range held {
		st := sk.idx.Stats()
		sets += int64(st.Sets)
		bytes += st.MemoryBytes
	}
	return len(held), sets, bytes, builds
}

// LoadSnapshot registers a sketch loaded from a snapshot file over g,
// which must be the graph name currently holds; it is keyed by the
// parameters stored in the snapshot itself.
func (r *Registry) LoadSnapshot(name string, g *holisticim.Graph, path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", fmt.Errorf("service: open sketch snapshot: %w", err)
	}
	defer f.Close()
	idx, err := holisticim.ReadSketch(f, g)
	if err != nil {
		return "", fmt.Errorf("service: read %s: %w", path, err)
	}
	return r.AddSketch(name, idx)
}

// scheduleRepairs queues repairs of the sketches a mutation to (g,
// res.Version) left behind, coalesced per sketch (see repairState) into
// at most one batch-class drain job at a time, so a repair storm cannot
// delay interactive queries. A sketch whose repair cannot be queued is
// evicted: a sample that missed a batch must never serve again. Returns
// how many repairs were queued or folded into a running drain.
func (r *Registry) scheduleRepairs(g *holisticim.Graph, res holisticim.BatchResult, stale []*sketchEntry) int {
	scheduled := 0
	for _, sk := range stale {
		st := &sk.repair
		st.mu.Lock()
		for _, d := range res.Dirty {
			st.pendingDirty[d] = struct{}{}
		}
		// Latest snapshot wins: repairing the accumulated union against it
		// subsumes every intermediate version.
		st.pendingGraph = g
		st.pendingVersion = res.Version
		start := !st.running
		st.running = true
		st.mu.Unlock()
		if start {
			// The version in the key makes every submission unique: a plain
			// per-sketch key could collide with a drain job that already set
			// running=false but whose single-flight entry the manager has not
			// yet cleared — the new submission would dedup against it, drop
			// its JobFunc, and strand the pending work.
			key := fmt.Sprintf("sketchrepair:%s:v%d", sk.id, res.Version)
			err := ErrShuttingDown
			if r.jobs != nil {
				_, _, err = r.jobs.Submit(JobSpec{Key: key, Priority: admission.Batch}, r.drainFunc(sk))
			}
			if err != nil {
				r.repairFailed(sk)
				continue
			}
		}
		scheduled++
	}
	return scheduled
}

// repairFailed stops sk's drain and evicts it.
func (r *Registry) repairFailed(sk *sketchEntry) {
	sk.repair.mu.Lock()
	sk.repair.running = false
	sk.repair.mu.Unlock()
	r.repairsFailed.Add(1)
	r.evict(sk)
}

// drainFunc returns the JobFunc that drains one sketch's pending repairs.
func (r *Registry) drainFunc(sk *sketchEntry) JobFunc {
	return func(ctx context.Context, report func(int)) (*QueryAnswer, error) {
		st := &sk.repair
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

			stats, err := sk.idx.Repair(ctx, g, dirty, ver, holisticim.SketchRepairOptions{})
			if err != nil {
				r.repairFailed(sk)
				return nil, fmt.Errorf("service: repair sketch %s: %w", sk.id, err)
			}
			r.repairs.Add(1)
			r.repairedSets.Add(int64(stats.Resampled))
			total += stats.Resampled
			report(total)
		}
	}
}

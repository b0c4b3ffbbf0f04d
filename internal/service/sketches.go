package service

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sort"

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
	r.writer.Lock()
	defer r.writer.Unlock()
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
	if !taken && len(r.sketchesLocked("")) >= maxSketches {
		return "", fmt.Errorf("%w (%d sketches)", ErrSketchesFull, maxSketches)
	}
	e.sketches[k] = &sketchEntry{idx: idx, graph: name, key: k, id: id}
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

// repair brings the sketches a batch left behind to (g, res.Version) on
// the calling goroutine. A sketch whose repair fails is evicted: a sample
// that missed a batch must never serve again. Returns how many sketches
// were repaired.
func (r *Registry) repair(ctx context.Context, g *holisticim.Graph, res holisticim.BatchResult, stale []*sketchEntry) int {
	repaired := 0
	for _, sk := range stale {
		stats, err := sk.idx.Repair(ctx, g, res.Dirty, res.Version, holisticim.SketchRepairOptions{})
		if err != nil {
			r.repairsFailed.Add(1)
			r.evict(sk)
			continue
		}
		r.repairs.Add(1)
		r.repairedSets.Add(int64(stats.Resampled))
		repaired++
	}
	return repaired
}

package service

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/holisticim/holisticim"
	"github.com/holisticim/holisticim/internal/graph"
	"github.com/holisticim/holisticim/internal/live"
)

// Registry errors.
var (
	ErrGraphNotFound    = errors.New("service: graph not found")
	ErrGraphExists      = errors.New("service: graph already registered")
	ErrPathLoadDisabled = errors.New("service: loading server-local paths is disabled")
	ErrRegistryFull     = errors.New("service: graph registry full")
	// ErrGraphReplaced reports a sketch sampled over a snapshot that a
	// Replace or an edge batch has since superseded, refused rather than
	// registered against content the name no longer holds.
	ErrGraphReplaced = errors.New("service: graph was replaced concurrently")
)

// Registry holds the named graphs shared across requests and, per graph,
// the RR-sketch indexes sampled over it. The untrusted API (POST
// /v1/graphs) can never rebind a name, which is what makes the name a
// sound component of job keys; the operator's Replace
// and LoadFile MAY rebind it, and Mutate advances it by edge batches.
// Each such event installs a new entry with a bumped generation and, in
// the same critical section, settles the name's sketches: a rebind keeps
// those matching the new content, a mutation's entry inherits them all
// and repairs them before Mutate returns. Every registry, standalone or a
// Server's, holds at most maxGraphs names and maxSketches new sketch ids.
//
// Every install — Add, Replace, Mutate, AddSketch, PutSketch — holds
// writer for its whole course, so none interleaves with another: a sketch
// build lands before a batch (and is repaired by it) or after (and is
// refused). Readers and evictions never take writer. No sketch index
// method runs under mu: an index holds its own lock for a whole repair,
// and every lookup of every graph goes through mu.
type Registry struct {
	writer sync.Mutex
	mu     sync.RWMutex
	graphs map[string]*regEntry
	builds int64 // sketch builds and snapshot loads registered

	replacements  atomic.Int64 // names rebound to new content
	mutations     atomic.Int64 // applied edge batches
	repairs       atomic.Int64 // completed incremental repairs
	repairedSets  atomic.Int64 // RR sets resampled across all repairs
	repairsFailed atomic.Int64 // repairs that failed (the sketch was evicted)
}

// regEntry is one installed snapshot of a name. g, info and gen are fixed
// at install; sketches changes under Registry.mu.
type regEntry struct {
	g    *holisticim.Graph
	info GraphInfo
	// gen counts how many times this name has been rebound or mutated.
	// Serving layers fold it into job keys so work computed against a
	// superseded instance can never be served — or attached to —
	// afterwards (an in-flight job completing late answers only its old
	// generation's key, which no new request can reach).
	gen uint64

	// sketches holds the indexes sampled over this name, keyed by their
	// own (RR semantics, ε, seed). A mutation's entry takes the map over.
	sketches map[sketchKey]*sketchEntry

	statsOnce sync.Once
	stats     GraphStats
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{graphs: make(map[string]*regEntry)}
}

// Add registers a prebuilt graph under name, refusing a name already
// taken. source is a free-form provenance tag ("file:...",
// "generated:ba", ...).
func (r *Registry) Add(name string, g *holisticim.Graph, source string) error {
	return r.put(name, g, source, 0, false)
}

// newRegEntry hashes and measures the whole graph, O(arcs): callers build
// the entry before taking r.mu, which every lookup of every graph goes
// through.
func newRegEntry(name string, g *holisticim.Graph, source string) *regEntry {
	return &regEntry{g: g, sketches: make(map[sketchKey]*sketchEntry), info: GraphInfo{
		Name:        name,
		Nodes:       g.NumNodes(),
		Arcs:        g.NumEdges(),
		Source:      source,
		MemoryBytes: g.MemoryFootprint(),
		Fingerprint: fmt.Sprintf("%016x", g.Fingerprint()),
	}}
}

// Replace registers g under name, rebinding the name if it is already
// taken (the memoized stats are recomputed for the new content). This is
// the operator-facing refresh path — reloading a dataset file in place —
// not reachable from POST /v1/graphs, whose names stay immutable. The new
// entry keeps the name's sketches whose sample matches g's content (an
// identical-content reload keeps serving) and drops the rest.
func (r *Registry) Replace(name string, g *holisticim.Graph, source string) error {
	return r.put(name, g, source, 0, true)
}

// ReplaceSnapshot is Replace for store-loaded artifacts: the published
// snapshot carries the publisher's graph version, which is recorded on
// the new entry so GET /v1/cluster/info advertises the lineage position
// of the loaded content instead of resetting to 0, and the name's next
// edge batch continues from it.
func (r *Registry) ReplaceSnapshot(name string, g *holisticim.Graph, source string, version uint64) error {
	return r.put(name, g, source, version, true)
}

// put installs the entry complete — version and kept sketches included —
// in one critical section, so every concurrent reader sees either the old
// entry or the new one. On a rebind the name's sketches are matched
// against g before that section (Matches hashes g and takes each index's
// lock); holding writer, no sketch can register in between.
func (r *Registry) put(name string, g *holisticim.Graph, source string, version uint64, rebind bool) error {
	if name == "" {
		return errors.New("service: empty graph name")
	}
	if g == nil {
		return errors.New("service: nil graph")
	}
	e := newRegEntry(name, g, source)
	e.info.Version = version
	r.writer.Lock()
	defer r.writer.Unlock()
	keep := make(map[*sketchEntry]bool)
	if rebind {
		for _, sk := range r.sketchesOf(name) {
			keep[sk] = sk.idx.Matches(g, sk.idx.Kind())
		}
	}
	return r.install(name, e, keep, rebind)
}

// install is put's critical section.
func (r *Registry) install(name string, e *regEntry, keep map[*sketchEntry]bool, rebind bool) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	old, taken := r.graphs[name]
	switch {
	case taken && !rebind:
		return fmt.Errorf("%w: %q", ErrGraphExists, name)
	case !taken && len(r.graphs) >= maxGraphs:
		return fmt.Errorf("%w (%d graphs)", ErrRegistryFull, maxGraphs)
	case !taken:
		r.graphs[name] = e
		return nil
	}
	for k, sk := range old.sketches {
		if keep[sk] {
			e.sketches[k] = sk
		}
	}
	e.gen = old.gen + 1
	r.graphs[name] = e
	r.replacements.Add(1)
	return nil
}

// Mutate applies an edge batch to the named graph, installs the new
// immutable snapshot under the same name at the entry's version + 1, and
// repairs the name's sketches against it — all before it returns, so a
// caller that sees the batch's version finds every sketch at it. Readers
// are never blocked by the swap: a request in flight keeps the snapshot
// it fetched, and the generation bump keys jobs and answers off the old
// content exactly as a Replace does. Unlike Replace, the new entry
// inherits the name's sketches, each repaired to the batch's dirty set
// instead of evicted. Returns the batch and how many sketches it repaired.
func (r *Registry) Mutate(ctx context.Context, name string, ops []live.EdgeOp, opts live.ApplyOptions) (live.BatchResult, int, error) {
	r.writer.Lock()
	defer r.writer.Unlock()
	e, _, err := r.lookup(name, sketchKey{})
	if err != nil {
		return live.BatchResult{}, 0, err
	}
	newG, res, err := live.Apply(ctx, e.g, e.info.Version, ops, opts)
	if err != nil {
		return live.BatchResult{}, 0, err
	}

	// Swap first, then repair: a reader that fetched the old entry keeps
	// serving it until the repair takes the index lock, and once that lock
	// frees the index matches the entry readers now fetch.
	e2 := newRegEntry(name, newG, e.info.Source)
	e2.gen = e.gen + 1
	e2.info.Version = res.Version
	r.mu.Lock()
	e2.sketches = e.sketches
	r.graphs[name] = e2
	stale := r.sketchesLocked(name)
	r.mu.Unlock()
	r.mutations.Add(1)
	// The batch is installed: a client hanging up now must not cost a
	// sketch its repair.
	return res, r.repair(context.WithoutCancel(ctx), newG, res, stale), nil
}

// lookup returns name's current entry and the sketch registered on it
// under k (nil when none), read under one lock acquisition: the graph,
// its generation and the sketch are consistent with each other.
func (r *Registry) lookup(name string, k sketchKey) (*regEntry, *sketchEntry, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.graphs[name]
	if !ok {
		return nil, nil, fmt.Errorf("%w: %q", ErrGraphNotFound, name)
	}
	return e, e.sketches[k], nil
}

// Get returns the named graph.
func (r *Registry) Get(name string) (*holisticim.Graph, error) {
	e, _, err := r.lookup(name, sketchKey{})
	if err != nil {
		return nil, err
	}
	return e.g, nil
}

// List returns the registered graphs' summaries, sorted by name.
func (r *Registry) List() []GraphInfo {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]GraphInfo, 0, len(r.graphs))
	for _, e := range r.graphs {
		out = append(out, e.info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Info returns the stored summary for the named graph without touching
// the graph itself.
func (r *Registry) Info(name string) (GraphInfo, error) {
	e, _, err := r.lookup(name, sketchKey{})
	if err != nil {
		return GraphInfo{}, err
	}
	return e.info, nil
}

// Len returns the number of registered graphs.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.graphs)
}

// Stats returns the Table-2 style statistics for the named graph.
// Graphs are immutable, so the (potentially expensive — sampled BFS over
// the whole graph) computation runs once per graph and is memoized;
// samples and seed only influence that first computation.
func (r *Registry) Stats(name string, samples int, seed uint64) (GraphStats, error) {
	e, _, err := r.lookup(name, sketchKey{})
	if err != nil {
		return GraphStats{}, err
	}
	e.statsOnce.Do(func() {
		st := graph.ComputeStats(e.g, samples, seed)
		e.stats = GraphStats{
			GraphInfo:         e.info,
			AvgOutDegree:      st.AvgOutDegree,
			MaxOutDegree:      st.MaxOutDegree,
			MaxInDegree:       st.MaxInDegree,
			EffectiveDiameter: st.EffectiveDiameter,
			Reachable:         st.Reachable,
			MeanEdgeProb:      graph.MeanEdgeProb(e.g),
		}
	})
	return e.stats, nil
}

// LoadFile registers a graph read from an edge-list or binary file. A
// name that is already registered is REBOUND to the freshly read content
// (Replace semantics): re-running the operator's load path refreshes the
// dataset, keeping only the sketches that still match its content.
func (r *Registry) LoadFile(name, path string) error {
	g, err := holisticim.ReadGraphFile(path)
	if err != nil {
		return err
	}
	return r.Replace(name, g, "file:"+path)
}

// Build registers a graph described by spec. allowPaths gates file
// loading (POST /v1/graphs from untrusted clients should not be able to
// read the server's filesystem).
func (r *Registry) Build(spec GraphSpec, allowPaths bool) error {
	if spec.Name == "" {
		return errors.New("service: graph spec needs a name")
	}
	var g *holisticim.Graph
	switch {
	case spec.Path != "" && spec.Generator != "":
		return errors.New("service: graph spec sets both path and generator")
	case spec.Path != "":
		if !allowPaths {
			return ErrPathLoadDisabled
		}
		var err error
		if g, err = holisticim.ReadGraphFile(spec.Path); err != nil {
			return err
		}
	case spec.Generator == "ba":
		if spec.Nodes < 2 {
			return errors.New("service: ba generator needs nodes ≥ 2")
		}
		g = holisticim.GenerateBA(spec.Nodes, spec.effectiveEdgesPerNode(), seedOr1(spec.Seed))
	case spec.Generator == "rmat":
		if spec.Nodes < 2 || spec.Arcs <= 0 {
			return errors.New("service: rmat generator needs nodes ≥ 2 and arcs > 0")
		}
		g = holisticim.GenerateRMAT(spec.Nodes, spec.Arcs, spec.Undirected, seedOr1(spec.Seed))
	case spec.Generator != "":
		return fmt.Errorf("service: unknown generator %q (want ba or rmat)", spec.Generator)
	default:
		return errors.New("service: graph spec needs a path or a generator")
	}

	if err := applyParams(g, spec); err != nil {
		return err
	}
	source := "generated:" + spec.Generator
	if spec.Path != "" {
		source = "file:" + spec.Path
	}
	return r.Add(spec.Name, g, source)
}

func applyParams(g *holisticim.Graph, spec GraphSpec) error {
	set := 0
	if spec.Prob != nil {
		set++
	}
	if spec.WeightedCascade {
		set++
	}
	if spec.Trivalency {
		set++
	}
	if set > 1 {
		return errors.New("service: at most one of prob, weighted_cascade, trivalency")
	}
	switch {
	case spec.Prob != nil:
		if *spec.Prob < 0 || *spec.Prob > 1 {
			return fmt.Errorf("service: prob %v out of [0,1]", *spec.Prob)
		}
		g.SetUniformProb(*spec.Prob)
	case spec.WeightedCascade:
		g.SetWeightedCascadeProb()
	case spec.Trivalency:
		g.SetTrivalencyProb(nil, seedOr1(spec.Seed)+1)
	}
	if spec.Phi != nil {
		if *spec.Phi < 0 || *spec.Phi > 1 {
			return fmt.Errorf("service: phi %v out of [0,1]", *spec.Phi)
		}
		g.SetUniformPhi(*spec.Phi)
	}
	if spec.Opinions != "" {
		dist, err := holisticim.ParseOpinionDistribution(spec.Opinions)
		if err != nil {
			return fmt.Errorf("service: %w", err)
		}
		holisticim.AssignOpinions(g, dist, seedOr1(spec.Seed)+2)
		if spec.Phi == nil {
			holisticim.AssignInteractions(g, seedOr1(spec.Seed)+3)
		}
	}
	return nil
}

func seedOr1(s uint64) uint64 {
	if s == 0 {
		return 1
	}
	return s
}

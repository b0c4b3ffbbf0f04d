package service

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

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
	// ErrGraphReplaced reports a mutation batch that lost a race against an
	// operator Replace: the lineage the batch was prepared for no longer
	// exists, so the batch is refused rather than applied to unrelated
	// content.
	ErrGraphReplaced = errors.New("service: graph was replaced concurrently")
)

// Registry holds named immutable graphs shared across requests. Graphs
// are loaded or generated once; the untrusted API (POST /v1/graphs)
// can never rebind a name, which is what makes the name a sound
// component of result-cache fingerprints. The operator-facing Replace
// and LoadFile paths MAY rebind — refreshing a dataset in place — and
// every rebind fires onReplace so the server can drop stale cache
// entries and rebind or evict the sketches pinned to the old instance.
type Registry struct {
	mu sync.RWMutex
	// maxGraphs caps registrations when positive. Enforced inside Add,
	// under the lock, so concurrent registrations cannot exceed it.
	maxGraphs int
	graphs    map[string]*regEntry
	// onReplace observes name rebinds (never first registrations). Called
	// outside the registry lock with the new graph already visible.
	onReplace func(name string, g *holisticim.Graph)
	// onMutate observes edge-batch mutations (Mutate). Unlike a Replace,
	// a mutation preserves the lineage — node count and version history —
	// so the hook carries the dirty-node set and new version, letting the
	// server repair its sketches incrementally instead of evicting them.
	// Called outside the registry lock with the new snapshot visible.
	onMutate func(name string, g *holisticim.Graph, version uint64, dirty []holisticim.NodeID)
}

type regEntry struct {
	g    *holisticim.Graph
	info GraphInfo
	// gen counts how many times this name has been rebound. Serving
	// layers fold it into cache and job-deduplication keys so work
	// computed against a replaced instance can never be served — or
	// attached to — after the replacement (an in-flight job completing
	// post-replace re-caches under its old generation, which no new
	// request can reach).
	gen uint64

	// live is the mutation lineage this entry belongs to, shared by every
	// snapshot a chain of Mutate calls produces for the name. nil until
	// the first mutation; reset to nil by Replace, which abandons the
	// lineage (versions restart from zero on the next mutation).
	live *liveState

	statsOnce sync.Once
	stats     GraphStats
}

// liveState serializes mutations for one graph lineage. Its mutex is
// held across the whole batch (validate → derive new CSR → install), so
// concurrent Apply batches for the same name get consecutive versions
// while readers keep serving the previous immutable snapshot.
type liveState struct {
	mu sync.Mutex
	lv *live.Graph
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{graphs: make(map[string]*regEntry)}
}

// Add registers a prebuilt graph under name. source is a free-form
// provenance tag ("file:...", "generated:ba", ...).
func (r *Registry) Add(name string, g *holisticim.Graph, source string) error {
	if name == "" {
		return errors.New("service: empty graph name")
	}
	if g == nil {
		return errors.New("service: nil graph")
	}
	e := newRegEntry(name, g, source)
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.graphs[name]; ok {
		return fmt.Errorf("%w: %q", ErrGraphExists, name)
	}
	if r.maxGraphs > 0 && len(r.graphs) >= r.maxGraphs {
		return fmt.Errorf("%w (%d graphs)", ErrRegistryFull, r.maxGraphs)
	}
	r.graphs[name] = e
	return nil
}

// newRegEntry hashes and measures the whole graph, O(arcs): callers build
// the entry before taking r.mu, which every lookup of every graph goes
// through.
func newRegEntry(name string, g *holisticim.Graph, source string) *regEntry {
	return &regEntry{g: g, info: GraphInfo{
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
// not reachable from POST /v1/graphs, whose names stay immutable. A
// rebind fires the onReplace hook so dependent state (result cache,
// sketch registry) is made consistent before the call returns.
func (r *Registry) Replace(name string, g *holisticim.Graph, source string) error {
	return r.replace(name, g, source, 0)
}

// ReplaceSnapshot is Replace for store-loaded artifacts: the published
// snapshot carries the publisher's mutation-log version, which is
// recorded on the new entry so GET /v1/cluster/info advertises the
// lineage position of the loaded content instead of resetting to 0.
func (r *Registry) ReplaceSnapshot(name string, g *holisticim.Graph, source string, version uint64) error {
	return r.replace(name, g, source, version)
}

// replace installs the entry complete, version included, in one critical
// section: the hook and every concurrent lister see either the old entry
// or the new one, never the new content at a placeholder version.
func (r *Registry) replace(name string, g *holisticim.Graph, source string, version uint64) error {
	if name == "" {
		return errors.New("service: empty graph name")
	}
	if g == nil {
		return errors.New("service: nil graph")
	}
	e := newRegEntry(name, g, source)
	e.info.Version = version
	r.mu.Lock()
	old, replaced := r.graphs[name]
	if !replaced && r.maxGraphs > 0 && len(r.graphs) >= r.maxGraphs {
		r.mu.Unlock()
		return fmt.Errorf("%w (%d graphs)", ErrRegistryFull, r.maxGraphs)
	}
	if replaced {
		e.gen = old.gen + 1
	}
	r.graphs[name] = e
	hook := r.onReplace
	r.mu.Unlock()
	if replaced && hook != nil {
		hook(name, g)
	}
	return nil
}

// liveStateOf returns the entry's mutation lineage, creating it on first
// use. The lineage is attached under the write lock so concurrent first
// mutations agree on one liveState.
func (r *Registry) liveStateOf(name string) (*liveState, *regEntry, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.graphs[name]
	if !ok {
		return nil, nil, fmt.Errorf("%w: %q", ErrGraphNotFound, name)
	}
	if e.live == nil {
		e.live = &liveState{}
	}
	return e.live, e, nil
}

// Mutate applies an edge batch to the named graph and installs the new
// immutable snapshot under the same name. Readers are never blocked: a
// request in flight keeps the snapshot it fetched, and the generation
// bump keys caches and jobs off the old content exactly as a Replace
// does. Unlike Replace, the mutation carries its lineage — the returned
// BatchResult's Version and Dirty set — through the onMutate hook, so
// dependent sketches can be repaired incrementally instead of evicted.
func (r *Registry) Mutate(ctx context.Context, name string, ops []live.EdgeOp, opts live.ApplyOptions) (live.BatchResult, error) {
	ls, e, err := r.liveStateOf(name)
	if err != nil {
		return live.BatchResult{}, err
	}

	// The lineage lock serializes whole batches; the registry lock is
	// only taken briefly around the final install.
	ls.mu.Lock()
	defer ls.mu.Unlock()

	// Re-read the entry: a Replace (or another mutation) may have rebound
	// the name while we waited. Another mutation keeps e.live == ls and we
	// simply continue from its snapshot; a Replace abandons the lineage
	// and the batch must be refused.
	r.mu.RLock()
	cur, ok := r.graphs[name]
	r.mu.RUnlock()
	if !ok {
		return live.BatchResult{}, fmt.Errorf("%w: %q", ErrGraphNotFound, name)
	}
	if cur.live != ls {
		return live.BatchResult{}, fmt.Errorf("%w: %q", ErrGraphReplaced, name)
	}
	e = cur
	if ls.lv == nil {
		// First mutation of the lineage: start the log at the current
		// snapshot (version 0).
		ls.lv = live.Wrap(e.g, live.Options{})
	}

	res, err := ls.lv.Apply(ctx, ops, opts)
	if err != nil {
		return live.BatchResult{}, err
	}
	newG := ls.lv.Graph()

	// Under the lock only the swap happens.
	e2 := newRegEntry(name, newG, e.info.Source)
	e2.gen = e.gen + 1
	e2.live = ls
	e2.info.Version = res.Version
	r.mu.Lock()
	if cur, ok := r.graphs[name]; !ok || cur != e || cur.live != ls {
		r.mu.Unlock()
		return live.BatchResult{}, fmt.Errorf("%w: %q", ErrGraphReplaced, name)
	}
	r.graphs[name] = e2
	hook := r.onMutate
	r.mu.Unlock()
	if hook != nil {
		hook(name, newG, res.Version, res.Dirty)
	}
	return res, nil
}

// Get returns the named graph.
func (r *Registry) Get(name string) (*holisticim.Graph, error) {
	g, _, err := r.GetWithGeneration(name)
	return g, err
}

// GetWithGeneration returns the named graph together with its rebind
// generation, read under one lock acquisition: the pair is consistent
// even against a concurrent Replace, which is what lets a caller key
// derived work (cached selections, deduplicated jobs) to the exact
// instance it fetched.
func (r *Registry) GetWithGeneration(name string) (*holisticim.Graph, uint64, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.graphs[name]
	if !ok {
		return nil, 0, fmt.Errorf("%w: %q", ErrGraphNotFound, name)
	}
	return e.g, e.gen, nil
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
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.graphs[name]
	if !ok {
		return GraphInfo{}, fmt.Errorf("%w: %q", ErrGraphNotFound, name)
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
	r.mu.RLock()
	e, ok := r.graphs[name]
	r.mu.RUnlock()
	if !ok {
		return GraphStats{}, fmt.Errorf("%w: %q", ErrGraphNotFound, name)
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
// dataset, and the replacement hook keeps caches and sketches honest.
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
		if spec.Nodes <= 0 {
			return errors.New("service: ba generator needs nodes > 0")
		}
		g = holisticim.GenerateBA(spec.Nodes, spec.effectiveEdgesPerNode(), seedOr1(spec.Seed))
	case spec.Generator == "rmat":
		if spec.Nodes <= 0 || spec.Arcs <= 0 {
			return errors.New("service: rmat generator needs nodes > 0 and arcs > 0")
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

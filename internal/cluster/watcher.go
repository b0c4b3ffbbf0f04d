package cluster

import (
	"context"
	"fmt"
	"os"
	"sync"
	"time"

	"github.com/holisticim/holisticim"
	"github.com/holisticim/holisticim/internal/service"
)

// Watcher keeps one replica's registry synchronized with a snapshot
// store: each sync pass diffs the manifest against what the replica has
// loaded (by content fingerprint, never by name alone) and warm-loads
// new or changed artifacts through the registry's replace paths — so a
// reload does exactly what an operator reload does (a new generation for
// the name, sketches kept only where their sample matches the new
// content). The replica's /readyz flips only after the first pass loads
// the manifest completely.
type Watcher struct {
	store    *Store
	srv      *service.Server
	interval time.Duration

	// OnSync, when set, observes every sync pass (for logging).
	OnSync func(SyncResult, error)

	mu sync.Mutex
	// loadedGraphs maps graph name → fingerprint this watcher loaded;
	// loadedSketches maps sketch id → the graph fingerprint its loaded
	// sample was built over. Only ids recorded here are ever evicted, so
	// the watcher never touches locally built artifacts.
	loadedGraphs   map[string]string
	loadedSketches map[string]string
	synced         bool
}

// SyncResult reports what one sync pass did.
type SyncResult struct {
	ManifestVersion uint64
	GraphsLoaded    int
	SketchesLoaded  int
	SketchesEvicted int
}

// NewWatcher builds a watcher over store feeding srv's registries.
// interval paces Run's sync loop (default 2s).
func NewWatcher(store *Store, srv *service.Server, interval time.Duration) *Watcher {
	if interval <= 0 {
		interval = 2 * time.Second
	}
	return &Watcher{
		store:          store,
		srv:            srv,
		interval:       interval,
		loadedGraphs:   make(map[string]string),
		loadedSketches: make(map[string]string),
	}
}

// SyncOnce runs one full sync pass: graphs first (a sketch can only bind
// to a loaded graph), then sketches, then eviction of store-loaded
// sketches the manifest dropped. On full success the replica's manifest
// version advances and — on the first success — /readyz flips ready. A
// failed pass loads what it can, changes no readiness, and is retried
// by Run on the next tick.
func (w *Watcher) SyncOnce(ctx context.Context) (SyncResult, error) {
	w.mu.Lock()
	defer w.mu.Unlock()

	m, err := w.store.Manifest()
	if err != nil {
		return SyncResult{}, err
	}
	res := SyncResult{ManifestVersion: m.Version}

	for _, entry := range m.Graphs {
		if err := ctx.Err(); err != nil {
			return res, err
		}
		if w.loadedGraphs[entry.Name] == entry.Fingerprint {
			continue
		}
		g, err := w.loadGraph(entry)
		if err != nil {
			return res, err
		}
		if err := w.srv.Registry().ReplaceSnapshot(entry.Name, g, "store:"+entry.File, entry.Version); err != nil {
			return res, fmt.Errorf("cluster: register graph %q: %w", entry.Name, err)
		}
		w.loadedGraphs[entry.Name] = entry.Fingerprint
		res.GraphsLoaded++
	}

	for _, entry := range m.Sketches {
		if err := ctx.Err(); err != nil {
			return res, err
		}
		if w.loadedSketches[entry.ID] == entry.GraphFingerprint {
			continue
		}
		if err := w.loadSketch(entry); err != nil {
			return res, err
		}
		w.loadedSketches[entry.ID] = entry.GraphFingerprint
		res.SketchesLoaded++
	}

	// Store-loaded sketches the manifest no longer lists are evicted —
	// the publisher retired the sample, and this replica must not keep
	// serving it. Graphs are deliberately NOT evicted: queries referencing
	// the name keep working against the last published content.
	for id := range w.loadedSketches {
		if _, ok := m.SketchByID(id); !ok {
			w.srv.Registry().EvictSketch(id)
			delete(w.loadedSketches, id)
			res.SketchesEvicted++
		}
	}

	w.srv.SetManifestVersion(m.Version)
	if !w.synced {
		w.synced = true
		w.srv.SetReady(true)
	}
	return res, nil
}

// loadGraph reads and fingerprint-verifies one published graph file:
// the loaded content must hash to exactly what the manifest promised,
// which fences out torn publishes and mislabeled files.
func (w *Watcher) loadGraph(entry ManifestGraph) (*holisticim.Graph, error) {
	f, err := os.Open(w.store.Path(entry.File))
	if err != nil {
		return nil, fmt.Errorf("cluster: open graph %q: %w", entry.Name, err)
	}
	defer f.Close()
	g, err := holisticim.ReadBinaryGraph(f)
	if err != nil {
		return nil, fmt.Errorf("cluster: read graph %q: %w", entry.Name, err)
	}
	if fp := fmt.Sprintf("%016x", g.Fingerprint()); fp != entry.Fingerprint {
		return nil, fmt.Errorf("cluster: graph %q fingerprint %s does not match manifest %s",
			entry.Name, fp, entry.Fingerprint)
	}
	return g, nil
}

// loadSketch reads one published sketch and installs it over the graph
// instance currently registered for its name. The registered graph must
// carry the exact fingerprint the sketch was built over — a sketch
// published against a newer (or older) graph than this replica has
// loaded fails the pass and is retried once the graph catches up; the
// snapshot reader then verifies the same fingerprint from the file's
// own header before any set is accepted. The sample is keyed by that
// header too: an entry whose id (or whose model, ε and seed) disagrees
// with the file fails the pass rather than installing the sample under
// another key's queries.
func (w *Watcher) loadSketch(entry ManifestSketch) error {
	g, err := w.srv.Registry().Get(entry.Graph)
	if err != nil {
		return fmt.Errorf("cluster: sketch %q needs graph %q: %w", entry.ID, entry.Graph, err)
	}
	if fp := fmt.Sprintf("%016x", g.Fingerprint()); fp != entry.GraphFingerprint {
		return fmt.Errorf("cluster: sketch %q built over graph fingerprint %s, replica has %s",
			entry.ID, entry.GraphFingerprint, fp)
	}
	f, err := os.Open(w.store.Path(entry.File))
	if err != nil {
		return fmt.Errorf("cluster: open sketch %q: %w", entry.ID, err)
	}
	defer f.Close()
	idx, err := holisticim.ReadSketch(f, g)
	if err != nil {
		return fmt.Errorf("cluster: read sketch %q: %w", entry.ID, err)
	}
	p := idx.Params()
	header := SketchIDOf(entry.Graph, p.Kind.Semantics(), p.Epsilon, p.Seed)
	if listed := SketchIDOf(entry.Graph, entry.Model, entry.Epsilon, entry.Seed); header != entry.ID || header != listed {
		return fmt.Errorf("cluster: sketch %q (listed as %s) holds the sample %s", entry.ID, listed, header)
	}
	idx.SetGraphVersion(entry.GraphVersion)
	if _, err := w.srv.Registry().PutSketch(entry.Graph, idx); err != nil {
		return fmt.Errorf("cluster: register sketch %q: %w", entry.ID, err)
	}
	return nil
}

// Run syncs immediately and then on every interval tick until ctx ends.
func (w *Watcher) Run(ctx context.Context) {
	tick := time.NewTicker(w.interval)
	defer tick.Stop()
	for {
		res, err := w.SyncOnce(ctx)
		if w.OnSync != nil {
			w.OnSync(res, err)
		}
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
	}
}

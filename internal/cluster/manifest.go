// Package cluster makes the serving layer horizontally scalable: a
// shared snapshot store replicas warm-load artifacts from, a watcher
// that keeps a replica's registries synchronized with the store's
// manifest, and a consistent-hash router that forwards each query whole
// to its key's owner among the healthy replicas.
//
// The design leans directly on the paper's build-once/serve-many sketch
// economics: an RR-sketch index is an immutable, fingerprinted artifact,
// so any replica that loads the same snapshot serves byte-identical
// answers — which is what lets the router treat replicas as
// interchangeable and consistent hashing as a cache-affinity
// optimization rather than a correctness requirement.
package cluster

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// ManifestGraph describes one published graph snapshot: where its file
// lives (relative to the store root), the content fingerprint of the
// bytes, and the graph version the snapshot captures.
type ManifestGraph struct {
	Name        string `json:"name"`
	File        string `json:"file"`
	Fingerprint string `json:"fingerprint"`
	Version     uint64 `json:"version"`
}

// ManifestSketch describes one published sketch snapshot, keyed exactly
// like the serving registry keys it: (graph, RR semantics, ε, seed).
// GraphFingerprint pins the sample to the graph content it was built
// over — a replica refuses to load the sketch against anything else.
type ManifestSketch struct {
	ID               string  `json:"id"`
	Graph            string  `json:"graph"`
	Model            string  `json:"model"` // RR semantics: "ic", "lt" or "oc"
	Epsilon          float64 `json:"epsilon"`
	Seed             uint64  `json:"seed"`
	File             string  `json:"file"`
	GraphFingerprint string  `json:"graph_fingerprint"`
	GraphVersion     uint64  `json:"graph_version"`
}

// Manifest is the store's table of contents: every artifact a replica
// must hold to be ready. Version increments on every publish, giving
// watchers and routers a single freshness ordinal to compare.
type Manifest struct {
	Version  uint64           `json:"version"`
	Graphs   []ManifestGraph  `json:"graphs"`
	Sketches []ManifestSketch `json:"sketches"`
}

// GraphByName returns the manifest entry for a graph name, if present.
func (m *Manifest) GraphByName(name string) (ManifestGraph, bool) {
	for _, g := range m.Graphs {
		if g.Name == name {
			return g, true
		}
	}
	return ManifestGraph{}, false
}

// SketchByID returns the manifest entry for a sketch id, if present.
func (m *Manifest) SketchByID(id string) (ManifestSketch, bool) {
	for _, s := range m.Sketches {
		if s.ID == id {
			return s, true
		}
	}
	return ManifestSketch{}, false
}

// sortEntries keeps the manifest's JSON deterministic so identical
// contents serialize to identical bytes regardless of publish order.
func (m *Manifest) sortEntries() {
	sort.Slice(m.Graphs, func(i, j int) bool { return m.Graphs[i].Name < m.Graphs[j].Name })
	sort.Slice(m.Sketches, func(i, j int) bool { return m.Sketches[i].ID < m.Sketches[j].ID })
}

// readManifest loads path. A missing file is an empty manifest (version
// 0): a store directory starts useful before its first publish.
func readManifest(path string) (Manifest, error) {
	b, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return Manifest{}, nil
	}
	if err != nil {
		return Manifest{}, fmt.Errorf("cluster: read manifest: %w", err)
	}
	var m Manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return Manifest{}, fmt.Errorf("cluster: parse manifest %s: %w", path, err)
	}
	return m, nil
}

// writeManifest publishes m atomically: marshal to a temp file in the
// same directory, then rename over the final path. Readers either see
// the old manifest or the new one, never a torn write.
func writeManifest(path string, m *Manifest) error {
	m.sortEntries()
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".manifest-*.tmp")
	if err != nil {
		return fmt.Errorf("cluster: write manifest: %w", err)
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(append(b, '\n')); err != nil {
		tmp.Close()
		return fmt.Errorf("cluster: write manifest: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("cluster: write manifest: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("cluster: publish manifest: %w", err)
	}
	return nil
}

package cluster

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"github.com/holisticim/holisticim"
	"github.com/holisticim/holisticim/internal/service"
)

// manifestFile is the store's table-of-contents file name.
const manifestFile = "manifest.json"

// Store is a shared snapshot directory replicas warm-load from:
//
//	<dir>/manifest.json
//	<dir>/graphs/<name>-<fingerprint>.himg
//	<dir>/sketches/<mangled id>-<fingerprint>.hims
//
// Artifact files are immutable once published — the fingerprint in the
// name pins the content — and every write lands via temp-file +
// atomic rename, so concurrent readers never observe a torn file. The
// store assumes ONE logical publisher (a build pipeline or operator);
// replicas only read. Artifacts of a superseded fingerprint are left on
// disk for replicas still warm-loading the previous manifest.
type Store struct {
	dir string
}

// OpenStore opens (creating if needed) a snapshot store rooted at dir.
func OpenStore(dir string) (*Store, error) {
	for _, d := range []string{dir, filepath.Join(dir, "graphs"), filepath.Join(dir, "sketches")} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("cluster: open store: %w", err)
		}
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Manifest reads the current manifest (empty, version 0, before the
// first publish).
func (s *Store) Manifest() (Manifest, error) {
	return readManifest(filepath.Join(s.dir, manifestFile))
}

// Path resolves a manifest entry's relative file to an absolute path.
func (s *Store) Path(file string) string { return filepath.Join(s.dir, file) }

// mangle makes an artifact id filesystem-safe (sketch ids contain ':').
func mangle(id string) string {
	return strings.NewReplacer(":", "_", "/", "_").Replace(id)
}

// writeArtifact writes one immutable artifact via temp + rename and
// returns its path relative to the store root.
func (s *Store) writeArtifact(subdir, name string, write func(f *os.File) error) (string, error) {
	rel := filepath.Join(subdir, name)
	final := filepath.Join(s.dir, rel)
	tmp, err := os.CreateTemp(filepath.Join(s.dir, subdir), "."+name+"-*.tmp")
	if err != nil {
		return "", fmt.Errorf("cluster: write artifact: %w", err)
	}
	defer os.Remove(tmp.Name())
	if err := write(tmp); err != nil {
		tmp.Close()
		return "", fmt.Errorf("cluster: write artifact %s: %w", rel, err)
	}
	if err := tmp.Close(); err != nil {
		return "", fmt.Errorf("cluster: write artifact %s: %w", rel, err)
	}
	if err := os.Rename(tmp.Name(), final); err != nil {
		return "", fmt.Errorf("cluster: publish artifact %s: %w", rel, err)
	}
	return rel, nil
}

// updateManifest applies mutate to the current manifest, bumps the
// version and publishes the result atomically.
func (s *Store) updateManifest(mutate func(m *Manifest)) (Manifest, error) {
	path := filepath.Join(s.dir, manifestFile)
	m, err := readManifest(path)
	if err != nil {
		return Manifest{}, err
	}
	mutate(&m)
	m.Version++
	if err := writeManifest(path, &m); err != nil {
		return Manifest{}, err
	}
	return m, nil
}

// PublishGraph writes g's binary snapshot into the store and records it
// in the manifest under name (replacing any previous entry for the
// name). version is the graph version, carried so
// replicas and routers can reason about sketch staleness against it.
func (s *Store) PublishGraph(name string, g *holisticim.Graph, version uint64) (ManifestGraph, error) {
	if name == "" {
		return ManifestGraph{}, fmt.Errorf("cluster: empty graph name")
	}
	if g == nil {
		return ManifestGraph{}, fmt.Errorf("cluster: nil graph")
	}
	fp := fmt.Sprintf("%016x", g.Fingerprint())
	rel, err := s.writeArtifact("graphs", fmt.Sprintf("%s-%s.himg", mangle(name), fp), func(f *os.File) error {
		return holisticim.WriteBinaryGraph(f, g)
	})
	if err != nil {
		return ManifestGraph{}, err
	}
	entry := ManifestGraph{Name: name, File: rel, Fingerprint: fp, Version: version}
	_, err = s.updateManifest(func(m *Manifest) {
		for i := range m.Graphs {
			if m.Graphs[i].Name == name {
				m.Graphs[i] = entry
				return
			}
		}
		m.Graphs = append(m.Graphs, entry)
	})
	return entry, err
}

// SketchIDOf is the canonical sketch identifier the serving registry
// keys indexes by (service.SketchID); the store reuses it so a manifest
// entry names the exact registry slot a replica will load it into.
func SketchIDOf(graph, semantics string, epsilon float64, seed uint64) string {
	return service.SketchID(graph, semantics, epsilon, seed)
}

// PublishSketch writes idx's snapshot into the store and records it in
// the manifest, keyed to graphName and the sketch's own parameters. The
// manifest entry pins the graph fingerprint the sample was built over;
// the usual flow publishes the graph first and the sketch immediately
// after, so one manifest version carries a coherent (graph, sketch)
// pair.
func (s *Store) PublishSketch(graphName string, idx *holisticim.Sketch) (ManifestSketch, error) {
	if idx == nil {
		return ManifestSketch{}, fmt.Errorf("cluster: nil sketch")
	}
	p := idx.Params()
	sem := p.Kind.Semantics()
	id := SketchIDOf(graphName, sem, p.Epsilon, p.Seed)
	fp := fmt.Sprintf("%016x", idx.GraphFingerprint())
	rel, err := s.writeArtifact("sketches", fmt.Sprintf("%s-%s.hims", mangle(id), fp), func(f *os.File) error {
		return holisticim.WriteSketch(f, idx)
	})
	if err != nil {
		return ManifestSketch{}, err
	}
	entry := ManifestSketch{
		ID:               id,
		Graph:            graphName,
		Model:            sem,
		Epsilon:          p.Epsilon,
		Seed:             p.Seed,
		File:             rel,
		GraphFingerprint: fp,
		GraphVersion:     idx.GraphVersion(),
	}
	_, err = s.updateManifest(func(m *Manifest) {
		for i := range m.Sketches {
			if m.Sketches[i].ID == id {
				m.Sketches[i] = entry
				return
			}
		}
		m.Sketches = append(m.Sketches, entry)
	})
	return entry, err
}

// RemoveSketch drops a sketch entry from the manifest (the artifact file
// stays for replicas mid-load of an older manifest). Watchers evict the
// sketch from their registries on the next sync.
func (s *Store) RemoveSketch(id string) error {
	_, err := s.updateManifest(func(m *Manifest) {
		out := m.Sketches[:0]
		for _, e := range m.Sketches {
			if e.ID != id {
				out = append(out, e)
			}
		}
		m.Sketches = out
	})
	return err
}

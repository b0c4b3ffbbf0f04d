package cluster

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"testing"

	"github.com/holisticim/holisticim"
	"github.com/holisticim/holisticim/internal/service"
)

func TestWatcherWarmLoadFlipsReady(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	g := testGraph(t, 1)
	publishPair(t, st, "soc", g)

	s := service.New(service.Config{ColdStart: true})
	defer s.Close()
	if s.Ready() {
		t.Fatal("cold server reports ready before warm-load")
	}
	w := NewWatcher(st, s, 0)
	res, err := w.SyncOnce(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.GraphsLoaded != 1 || res.SketchesLoaded != 1 || res.ManifestVersion != 2 {
		t.Fatalf("sync result %+v", res)
	}
	if !s.Ready() {
		t.Fatal("server not ready after full manifest load")
	}
	got, err := s.Registry().Get("soc")
	if err != nil {
		t.Fatal(err)
	}
	if got.Fingerprint() != g.Fingerprint() {
		t.Fatal("loaded graph content differs from published")
	}
	id := SketchIDOf("soc", "ic", testEps, testSeed)
	if _, err := s.Registry().DescribeSketch(id); err != nil {
		t.Fatalf("sketch %s not loaded: %v", id, err)
	}

	// A second pass over the same manifest is a no-op.
	res, err = w.SyncOnce(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.GraphsLoaded+res.SketchesLoaded+res.SketchesEvicted != 0 {
		t.Fatalf("idempotent re-sync did work: %+v", res)
	}
}

func TestWatcherReloadsOnRepublish(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	publishPair(t, st, "soc", testGraph(t, 1))
	s := service.New(service.Config{ColdStart: true})
	defer s.Close()
	w := NewWatcher(st, s, 0)
	if _, err := w.SyncOnce(context.Background()); err != nil {
		t.Fatal(err)
	}

	g2 := testGraph(t, 2)
	publishPair(t, st, "soc", g2)
	res, err := w.SyncOnce(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.GraphsLoaded != 1 || res.SketchesLoaded != 1 {
		t.Fatalf("republish sync result %+v", res)
	}
	got, err := s.Registry().Get("soc")
	if err != nil {
		t.Fatal(err)
	}
	if got.Fingerprint() != g2.Fingerprint() {
		t.Fatal("replica still serves the superseded graph")
	}
}

func TestWatcherEvictsRetiredSketch(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	publishPair(t, st, "soc", testGraph(t, 1))
	s := service.New(service.Config{ColdStart: true})
	defer s.Close()
	w := NewWatcher(st, s, 0)
	if _, err := w.SyncOnce(context.Background()); err != nil {
		t.Fatal(err)
	}

	id := SketchIDOf("soc", "ic", testEps, testSeed)
	if err := st.RemoveSketch(id); err != nil {
		t.Fatal(err)
	}
	res, err := w.SyncOnce(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.SketchesEvicted != 1 {
		t.Fatalf("sync result %+v, want one eviction", res)
	}
	if _, err := s.Registry().DescribeSketch(id); err == nil {
		t.Fatalf("sketch %s still loaded after manifest retirement", id)
	}
}

// A graph artifact whose content does not hash to the manifest's
// fingerprint must be rejected — the fence against torn or mislabeled
// publishes. The replica stays not-ready.
func TestWatcherRejectsFingerprintMismatch(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	g := testGraph(t, 1)
	entry, err := st.PublishGraph("soc", g, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Overwrite the artifact with a DIFFERENT graph's bytes.
	var buf bytes.Buffer
	if err := holisticim.WriteBinaryGraph(&buf, testGraph(t, 2)); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(st.Path(entry.File), buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	s := service.New(service.Config{ColdStart: true})
	defer s.Close()
	w := NewWatcher(st, s, 0)
	if _, err := w.SyncOnce(context.Background()); err == nil {
		t.Fatal("sync accepted a fingerprint-mismatched graph")
	}
	if s.Ready() {
		t.Fatal("replica became ready off a failed warm-load")
	}
}

// A sketch published against a different graph content than the manifest's
// graph entry must fail the pass (and retry once the graph catches up) —
// never bind a sample to the wrong snapshot.
func TestWatcherRejectsSketchOverWrongGraph(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	g1 := testGraph(t, 1)
	if _, err := st.PublishGraph("soc", g1, 0); err != nil {
		t.Fatal(err)
	}
	// Sketch built over DIFFERENT content, published under the same name.
	if _, err := st.PublishSketch("soc", testSketch(t, testGraph(t, 2))); err != nil {
		t.Fatal(err)
	}

	s := service.New(service.Config{ColdStart: true})
	defer s.Close()
	w := NewWatcher(st, s, 0)
	if _, err := w.SyncOnce(context.Background()); err == nil {
		t.Fatal("sync bound a sketch to a graph with a different fingerprint")
	}
	if s.Ready() {
		t.Fatal("replica became ready off a failed warm-load")
	}
	// The graph itself did load; only the sketch is held back.
	if _, err := s.Registry().Get("soc"); err != nil {
		t.Fatalf("graph should have loaded: %v", err)
	}
	id := SketchIDOf("soc", "ic", testEps, testSeed)
	if _, err := s.Registry().DescribeSketch(id); err == nil {
		t.Fatal("mismatched sketch was registered")
	}
}

// A manifest entry that disagrees with its snapshot's own header — an ε
// rewritten after publishing, with or without the id that spells it —
// fails the pass and registers nothing: a sample built at testEps must
// never serve another ε's queries.
func TestWatcherRejectsSketchEntryDisagreeingWithHeader(t *testing.T) {
	for _, tc := range []struct {
		name    string
		rewrite func(e *ManifestSketch)
	}{
		{"id and epsilon", func(e *ManifestSketch) { e.Epsilon, e.ID = 0.2, SketchIDOf(e.Graph, e.Model, 0.2, e.Seed) }},
		{"epsilon only", func(e *ManifestSketch) { e.Epsilon = 0.2 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st, err := OpenStore(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			publishPair(t, st, "soc", testGraph(t, 1))
			if _, err := st.updateManifest(func(m *Manifest) { tc.rewrite(&m.Sketches[0]) }); err != nil {
				t.Fatal(err)
			}

			s := service.New(service.Config{ColdStart: true})
			defer s.Close()
			w := NewWatcher(st, s, 0)
			if _, err := w.SyncOnce(context.Background()); err == nil {
				t.Fatal("sync accepted a sketch whose manifest entry disagrees with its header")
			}
			if s.Ready() {
				t.Fatal("replica became ready off a failed warm-load")
			}
			if n := s.Stats().Sketches; n != 0 {
				t.Fatalf("%d sketches registered, want none: %+v", n, s.Registry().ListSketches())
			}
		})
	}
}

// Sanity check used by the e2e tests: two distinct generator seeds give
// distinct fingerprints.
func TestTestGraphsDiffer(t *testing.T) {
	if fmt.Sprintf("%016x", testGraph(t, 1).Fingerprint()) == fmt.Sprintf("%016x", testGraph(t, 2).Fingerprint()) {
		t.Fatal("generator seeds 1 and 2 collide")
	}
}

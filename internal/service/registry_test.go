package service

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"github.com/holisticim/holisticim"
)

func f64(v float64) *float64 { return &v }

func TestRegistryAddGetList(t *testing.T) {
	r := NewRegistry()
	g := holisticim.GenerateBA(100, 2, 1)
	if err := r.Add("ba", g, "test"); err != nil {
		t.Fatal(err)
	}
	if err := r.Add("ba", g, "test"); !errors.Is(err, ErrGraphExists) {
		t.Fatalf("duplicate Add: %v, want ErrGraphExists", err)
	}
	got, err := r.Get("ba")
	if err != nil || got != g {
		t.Fatalf("Get(ba) = %v, %v", got, err)
	}
	if _, err := r.Get("nope"); !errors.Is(err, ErrGraphNotFound) {
		t.Fatalf("Get(nope): %v, want ErrGraphNotFound", err)
	}
	if err := r.Add("aa", holisticim.GenerateBA(10, 1, 2), "test"); err != nil {
		t.Fatal(err)
	}
	list := r.List()
	if len(list) != 2 || list[0].Name != "aa" || list[1].Name != "ba" {
		t.Fatalf("List() = %+v, want aa,ba sorted", list)
	}
	if list[1].Nodes != 100 || list[1].Arcs != g.NumEdges() {
		t.Fatalf("List info mismatch: %+v", list[1])
	}
}

// A store-loaded rebind is installed complete: a reader racing the
// rebinds — as /v1/cluster/info and /v1/graphs may — sees each content
// only at the version it was published with, never at a placeholder 0
// patched in afterwards. An operator Replace then resets the version.
func TestReplaceSnapshotInstallsVersionWithEntry(t *testing.T) {
	r := NewRegistry()
	graphs := []*holisticim.Graph{holisticim.GenerateBA(50, 2, 1), holisticim.GenerateBA(50, 2, 2)}
	version := func(i int) uint64 { return uint64(3 + 4*i) }
	published := map[string]uint64{}
	for i, g := range graphs {
		published[fmt.Sprintf("%016x", g.Fingerprint())] = version(i)
	}
	if err := r.ReplaceSnapshot("soc", graphs[0], "store:a", version(0)); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 1; i <= 200; i++ {
			if err := r.ReplaceSnapshot("soc", graphs[i%2], "store", version(i%2)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for reading := true; reading; {
		select {
		case <-done:
			reading = false
		default:
		}
		info, err := r.Info("soc")
		if err != nil || info.Version != published[info.Fingerprint] {
			t.Errorf("reader saw %+v (%v), want version %d for that content", info, err, published[info.Fingerprint])
			<-done
			return
		}
	}
	if err := r.Replace("soc", holisticim.GenerateBA(50, 2, 3), "file:c"); err != nil {
		t.Fatal(err)
	}
	if info, _ := r.Info("soc"); info.Version != 0 || info.Source != "file:c" {
		t.Fatalf("after Replace: %+v", info)
	}
}

// An edge batch continues a store-loaded graph's lineage: its version is
// the published one + 1, on the entry and on the repaired sketch alike.
func TestMutateContinuesSnapshotVersion(t *testing.T) {
	ctx := context.Background()
	r := NewRegistry()
	g := holisticim.GenerateBA(200, 2, 1)
	g.SetUniformProb(0.1)
	if err := r.ReplaceSnapshot("soc", g, "store:a", 7); err != nil {
		t.Fatal(err)
	}
	idx, err := holisticim.BuildSketch(ctx, g, holisticim.SketchOptions{Epsilon: 0.4, Seed: 3, BuildK: 5})
	if err != nil {
		t.Fatal(err)
	}
	id, err := r.AddSketch("soc", idx)
	if err != nil {
		t.Fatal(err)
	}
	ops := []holisticim.EdgeOp{{Op: holisticim.OpRemoveEdge, From: 0, To: g.OutNeighbors(0)[0]}}
	res, repaired, err := r.Mutate(ctx, "soc", ops, holisticim.ApplyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Version != 8 || repaired != 1 {
		t.Fatalf("batch after version 7: version %d, %d repaired; want 8 and 1", res.Version, repaired)
	}
	if info, _ := r.Info("soc"); info.Version != 8 {
		t.Fatalf("entry lists version %d, want 8", info.Version)
	}
	si, err := r.DescribeSketch(id)
	if err != nil {
		t.Fatalf("sketch evicted: %v", err)
	}
	if si.GraphVersion != 8 {
		t.Fatalf("sketch at graph version %d, want 8", si.GraphVersion)
	}
}

func TestRegistryBuildGenerators(t *testing.T) {
	r := NewRegistry()
	err := r.Build(GraphSpec{
		Name: "ba", Generator: "ba", Nodes: 200, EdgesPerNode: 2, Seed: 7,
		Prob: f64(0.2), Opinions: "normal",
	}, false)
	if err != nil {
		t.Fatal(err)
	}
	g, _ := r.Get("ba")
	if g.NumNodes() != 200 {
		t.Fatalf("ba nodes = %d", g.NumNodes())
	}
	if p, ok := g.EdgeProb(0, g.OutNeighbors(0)[0]); g.OutDegree(0) > 0 && (!ok || p != 0.2) {
		t.Fatalf("uniform prob not applied: %v", p)
	}
	opinionated := false
	for _, o := range g.Opinions() {
		if o != 0 {
			opinionated = true
			break
		}
	}
	if !opinionated {
		t.Fatal("opinions were not assigned")
	}

	if err := r.Build(GraphSpec{
		Name: "rm", Generator: "rmat", Nodes: 256, Arcs: 1000, Seed: 3, WeightedCascade: true,
	}, false); err != nil {
		t.Fatal(err)
	}
	rm, _ := r.Get("rm")
	if rm.NumNodes() != 256 || rm.NumEdges() == 0 {
		t.Fatalf("rmat graph %d nodes %d arcs", rm.NumNodes(), rm.NumEdges())
	}

	bad := []GraphSpec{
		{Name: "", Generator: "ba", Nodes: 10},
		{Name: "x"},
		{Name: "x", Generator: "unknown", Nodes: 10},
		{Name: "x", Generator: "ba"},
		{Name: "x", Generator: "rmat", Nodes: 10},
		{Name: "x", Generator: "ba", Nodes: 10, Prob: f64(2)},
		{Name: "x", Generator: "ba", Nodes: 10, Prob: f64(0.1), WeightedCascade: true},
		{Name: "x", Generator: "ba", Nodes: 10, Opinions: "sideways"},
		{Name: "x", Generator: "ba", Nodes: 10, Path: "also-a-path"},
	}
	for i, spec := range bad {
		if err := r.Build(spec, false); err == nil {
			t.Errorf("bad spec %d accepted: %+v", i, spec)
		}
	}
}

func TestRegistryFileLoading(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.txt")
	if err := os.WriteFile(path, []byte("0 1 0.5\n1 2 0.25\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	r := NewRegistry()
	if err := r.LoadFile("txt", path); err != nil {
		t.Fatal(err)
	}
	g, _ := r.Get("txt")
	if g.NumNodes() != 3 || g.NumEdges() != 2 {
		t.Fatalf("loaded %d nodes %d arcs", g.NumNodes(), g.NumEdges())
	}
	if p, ok := g.EdgeProb(0, 1); !ok || p != 0.5 {
		t.Fatalf("edge prob 0->1 = %v, %v", p, ok)
	}

	// Round-trip the binary format through the same loader.
	bin := filepath.Join(dir, "g.bin")
	f, err := os.Create(bin)
	if err != nil {
		t.Fatal(err)
	}
	if err := holisticim.WriteBinaryGraph(f, g); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if err := r.LoadFile("bin", bin); err != nil {
		t.Fatal(err)
	}
	gb, _ := r.Get("bin")
	if gb.NumNodes() != 3 || gb.NumEdges() != 2 {
		t.Fatalf("binary load: %d nodes %d arcs", gb.NumNodes(), gb.NumEdges())
	}

	// Path loading through Build is gated.
	if err := r.Build(GraphSpec{Name: "gated", Path: path}, false); err == nil {
		t.Fatal("Build with path should fail when path loading is disabled")
	}
	if err := r.Build(GraphSpec{Name: "gated", Path: path}, true); err != nil {
		t.Fatalf("Build with allowed path: %v", err)
	}

	if err := r.LoadFile("missing", filepath.Join(dir, "nope.txt")); err == nil {
		t.Fatal("loading a missing file should fail")
	}
}

func TestRegistryStats(t *testing.T) {
	r := NewRegistry()
	g := holisticim.GenerateBA(300, 3, 1)
	g.SetUniformProb(0.25)
	if err := r.Add("g", g, "test"); err != nil {
		t.Fatal(err)
	}
	st, err := r.Stats("g", 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if st.Nodes != 300 || st.Arcs != g.NumEdges() {
		t.Fatalf("stats identity mismatch: %+v", st)
	}
	if st.AvgOutDegree <= 0 || st.MaxOutDegree <= 0 {
		t.Fatalf("degree stats empty: %+v", st)
	}
	if st.MeanEdgeProb != 0.25 {
		t.Fatalf("MeanEdgeProb = %v, want 0.25", st.MeanEdgeProb)
	}
	if _, err := r.Stats("nope", 8, 1); !errors.Is(err, ErrGraphNotFound) {
		t.Fatalf("Stats(nope): %v", err)
	}
	// Stats are memoized per (immutable) graph: different sampling
	// parameters on a later call must return the first computation.
	st2, err := r.Stats("g", 2, 99)
	if err != nil {
		t.Fatal(err)
	}
	if st2 != st {
		t.Fatalf("stats not memoized: %+v vs %+v", st2, st)
	}
}

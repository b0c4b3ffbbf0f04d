package holisticim

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"github.com/holisticim/holisticim/internal/core"
	"github.com/holisticim/holisticim/internal/graph"
)

// mustSpread and mustOpinionSpread run the context-first estimators to
// completion and fail the test on a configuration error.
func mustSpread(t *testing.T, g *Graph, seeds []NodeID, o Options) Estimate {
	t.Helper()
	est, err := EstimateSpreadContext(context.Background(), g, seeds, o)
	if err != nil {
		t.Fatal(err)
	}
	return est
}

func mustOpinionSpread(t *testing.T, g *Graph, seeds []NodeID, o Options) Estimate {
	t.Helper()
	est, err := EstimateOpinionSpreadContext(context.Background(), g, seeds, o)
	if err != nil {
		t.Fatal(err)
	}
	return est
}

func testGraph() *Graph {
	g := GenerateBA(400, 3, 1)
	g.SetUniformProb(0.1)
	AssignOpinions(g, OpinionNormal, 2)
	AssignInteractions(g, 3)
	return g
}

func TestSelectSeedsAllAlgorithms(t *testing.T) {
	g := testGraph()
	opts := Options{MCRuns: 100, Seed: 5, TIMThetaCap: 20000}
	algs := []Algorithm{
		AlgEaSyIM, AlgOSIM, AlgGreedy, AlgCELFPP, AlgModifiedGreedy,
		AlgTIMPlus, AlgIMM, AlgIRIE, AlgDegreeDiscount,
	}
	for _, alg := range algs {
		res, err := SelectSeeds(g, 3, alg, opts)
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if len(res.Seeds) != 3 {
			t.Fatalf("%s: got %d seeds", alg, len(res.Seeds))
		}
		seen := map[NodeID]bool{}
		for _, s := range res.Seeds {
			if s < 0 || s >= g.NumNodes() {
				t.Fatalf("%s: seed %d out of range", alg, s)
			}
			if seen[s] {
				t.Fatalf("%s: duplicate seed %d", alg, s)
			}
			seen[s] = true
		}
	}
	// SIMPATH runs under LT.
	res, err := SelectSeeds(g, 3, AlgSIMPATH, Options{Model: ModelLT, Seed: 5})
	if err != nil || len(res.Seeds) != 3 {
		t.Fatalf("simpath: %v %v", res.Seeds, err)
	}
}

func TestDegreeDiscountHeterogeneousProbs(t *testing.T) {
	// Regression: DegreeDiscount used to read node 0's first out-edge
	// probability as the global p, which is arbitrary on heterogeneous
	// graphs. It now uses the mean edge probability, so an outlier first
	// edge must not change the selection.
	g1 := GenerateBA(400, 3, 1)
	g1.SetUniformProb(0.1)
	g2 := g1.Clone()
	// Poison exactly node 0's first out-edge in g2.
	g2.SetEdgeParamsFunc(func(u, v NodeID) (float64, float64) {
		if u == 0 && v == g2.OutNeighbors(0)[0] {
			return 0.99, 0
		}
		return 0.1, 0
	})
	r1, err := SelectSeeds(g1, 5, AlgDegreeDiscount, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := SelectSeeds(g2, 5, AlgDegreeDiscount, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i := range r1.Seeds {
		if r1.Seeds[i] != r2.Seeds[i] {
			t.Fatalf("one outlier edge changed the selection: %v vs %v", r1.Seeds, r2.Seeds)
		}
	}
}

func TestOptionsFingerprint(t *testing.T) {
	fp := func(alg Algorithm, k int, o Options) string {
		return Query{Algorithm: alg, K: k, Options: o}.Fingerprint()
	}
	zero := fp(AlgEaSyIM, 10, Options{})
	explicit := fp(AlgEaSyIM, 10, Options{
		Model: ModelIC, PathLength: 3, Lambda: 1, Epsilon: 0.1, MCRuns: 10000, Seed: 1,
	})
	if zero != explicit {
		t.Fatalf("defaults not canonicalized: %q vs %q", zero, explicit)
	}
	if fp(AlgEaSyIM, 10, Options{Workers: 4}) != zero {
		t.Fatal("Workers leaked into the fingerprint")
	}
	if fp(AlgOSIM, 10, Options{}) == zero {
		t.Fatal("algorithm (and its default model) must separate fingerprints")
	}
	if fp(AlgEaSyIM, 10, Options{Seed: 2}) == zero {
		t.Fatal("seed must separate fingerprints")
	}
	if fp(AlgEaSyIM, 11, Options{}) == zero {
		t.Fatal("k must separate fingerprints")
	}
}

// TestWorkersDoNotChangeSelection is the behavioural half of keeping
// Workers out of the fingerprint, on the selectors that split work by it: on
// a graph large enough that EaSyIM/OSIM's sweeps and the RR sampling do fork,
// the seeds and every metric are those of one worker.
func TestWorkersDoNotChangeSelection(t *testing.T) {
	g := GenerateRMAT(20000, 200000, false, 3)
	g.SetWeightedCascadeProb()
	AssignOpinions(g, OpinionNormal, 4)
	AssignInteractions(g, 5)
	for _, alg := range []Algorithm{AlgEaSyIM, AlgOSIM, AlgIMM, AlgTIMPlus} {
		var want string
		for _, workers := range []int{1, 2, 8} {
			res, err := SelectSeeds(g, 5, alg, Options{Seed: 6, Epsilon: 0.5, TIMThetaCap: 4000, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			got := fmt.Sprint(res.Seeds, res.Metrics)
			if workers == 1 {
				want = got
			} else if got != want {
				t.Errorf("%s: workers=%d gave %s, one worker %s", alg, workers, got, want)
			}
		}
	}
}

func TestSelectSeedsErrors(t *testing.T) {
	g := testGraph()
	if _, err := SelectSeeds(nil, 1, AlgEaSyIM, Options{}); err == nil {
		t.Fatal("nil graph accepted")
	}
	if _, err := SelectSeeds(g, 0, AlgEaSyIM, Options{}); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := SelectSeeds(g, 1, Algorithm("bogus"), Options{}); err == nil {
		t.Fatal("bogus algorithm accepted")
	}
	if _, err := SelectSeeds(g, 1, AlgEaSyIM, Options{Model: ModelKind("bogus")}); err == nil {
		t.Fatal("bogus model accepted")
	}
}

func TestEstimateSpreadConsistency(t *testing.T) {
	g := testGraph()
	res, err := SelectSeeds(g, 5, AlgEaSyIM, Options{MCRuns: 200, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	est := mustSpread(t, g, res.Seeds, Options{MCRuns: 2000, Seed: 9})
	if est.Spread <= 0 {
		t.Fatalf("spread %v", est.Spread)
	}
	estDeg := mustSpread(t, g, graph.TopKByOutDegree(g, 5), Options{MCRuns: 2000, Seed: 9})
	if est.Spread < 0.75*estDeg.Spread {
		t.Fatalf("EaSyIM spread %v far below degree %v", est.Spread, estDeg.Spread)
	}
}

// TestOpinionAwareBeatsObliviousOnMEO is the paper's core claim at API
// level: OSIM seeds achieve at least the effective opinion spread of EaSyIM
// seeds. The claim is about the expectation over probe randomness, so it is
// asserted on the mean over Options.Seed 1..20, with no slack: one seed's
// selections can lose (2 of seeds 1..40 do), the mean has not.
func TestOpinionAwareBeatsObliviousOnMEO(t *testing.T) {
	g := GenerateBA(500, 3, 11)
	g.SetUniformProb(0.15)
	AssignOpinions(g, OpinionPolarized, 12)
	AssignInteractions(g, 13)
	const seeds = 20
	meo := func(alg Algorithm, seed uint64) float64 {
		res, err := SelectSeeds(g, 8, alg, Options{MCRuns: 200, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		return mustOpinionSpread(t, g, res.Seeds, Options{MCRuns: 4000, Seed: 17}).EffectiveOpinionSpread(1)
	}
	var osim, easy float64
	for seed := uint64(1); seed <= seeds; seed++ {
		osim += meo(AlgOSIM, seed) / seeds
		easy += meo(AlgEaSyIM, seed) / seeds
	}
	t.Logf("mean MEO over %d probe seeds: OSIM %.3f, EaSyIM %.3f", seeds, osim, easy)
	if osim < easy {
		t.Fatalf("OSIM's mean MEO %v below EaSyIM's %v", osim, easy)
	}
}

func TestGraphIOThroughFacade(t *testing.T) {
	g := testGraph()
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumNodes() != g.NumNodes() || g2.NumEdges() != g.NumEdges() {
		t.Fatal("round trip changed size")
	}
}

// TestReadGraphFile: the one graph-file loader sniffs the binary magic
// and falls back to the edge-list parser — including for files too short
// to hold the magic at all.
func TestReadGraphFile(t *testing.T) {
	g := testGraph()
	dir := t.TempDir()
	write := func(name string, fill func(*bytes.Buffer) error) string {
		var buf bytes.Buffer
		if err := fill(&buf); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	cases := []struct {
		name         string
		path         string
		nodes, edges int64 // expected shape; -1 nodes means an error
	}{
		{"binary", write("g.bin", func(b *bytes.Buffer) error { return WriteBinaryGraph(b, g) }),
			int64(g.NumNodes()), g.NumEdges()},
		{"edge list", write("g.txt", func(b *bytes.Buffer) error { return WriteEdgeList(b, g) }),
			int64(g.NumNodes()), g.NumEdges()},
		{"shorter than the magic", write("tiny.txt", func(b *bytes.Buffer) error { b.WriteString("0 1"); return nil }),
			2, 1},
		{"truncated binary", write("cut.bin", func(b *bytes.Buffer) error { b.WriteString("HIMG\x01"); return nil }),
			-1, 0},
		{"missing path", filepath.Join(dir, "absent"), -1, 0},
	}
	for _, tc := range cases {
		got, err := ReadGraphFile(tc.path)
		switch {
		case tc.nodes < 0:
			if err == nil {
				t.Errorf("%s: loaded a graph, want an error", tc.name)
			}
		case err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case int64(got.NumNodes()) != tc.nodes || got.NumEdges() != tc.edges:
			t.Errorf("%s: loaded %d nodes / %d arcs, want %d / %d",
				tc.name, got.NumNodes(), got.NumEdges(), tc.nodes, tc.edges)
		}
	}
}

func TestGenerateRMATFacade(t *testing.T) {
	g := GenerateRMAT(1024, 8000, true, 21)
	if g.NumNodes() != 1024 || g.NumEdges() == 0 {
		t.Fatalf("rmat %d/%d", g.NumNodes(), g.NumEdges())
	}
}

func TestBuilderFacade(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdgeP(0, 1, 0.5, 0.5)
	g := b.Build()
	if !g.HasEdge(0, 1) {
		t.Fatal("builder facade broken")
	}
}

// TestModelNamesThroughFacade pins what every ModelKind means: the model
// simulating it, its RR semantics, opinion-awareness and EaSyIM edge weight.
func TestModelNamesThroughFacade(t *testing.T) {
	g := testGraph()
	for _, c := range []struct {
		kind         ModelKind
		name, rr     string
		opinionAware bool
		weight       core.EdgeWeight
	}{
		{ModelIC, "IC", "ic", false, core.WeightProb},
		{ModelWC, "IC", "ic", false, core.WeightProb},
		{ModelLT, "LT", "lt", false, core.WeightLT},
		{ModelOIIC, "OI-IC", "ic", true, core.WeightProb},
		{ModelOILT, "OI-LT", "lt", true, core.WeightLT},
		{ModelOC, "OC", "oc", true, core.WeightLT},
	} {
		m, err := NewModel(g, c.kind)
		if err != nil {
			t.Fatalf("%s: %v", c.kind, err)
		}
		if m.Name() != c.name || c.kind.RRSemantics() != c.rr || c.kind.OpinionAware() != c.opinionAware ||
			modelKinds[c.kind].weight != c.weight {
			t.Errorf("%s: name %q, rr %q, opinion-aware %v, weight %v; want %q, %q, %v, %v", c.kind,
				m.Name(), c.kind.RRSemantics(), c.kind.OpinionAware(), modelKinds[c.kind].weight,
				c.name, c.rr, c.opinionAware, c.weight)
		}
	}
	if len(modelKinds) != 6 {
		t.Errorf("modelKinds has %d entries, the table above 6", len(modelKinds))
	}
	unknown := ModelKind("sir")
	if _, err := NewModel(g, unknown); err == nil {
		t.Error("unknown kind built a model")
	}
	if unknown.RRSemantics() != "ic" || unknown.OpinionAware() || modelKinds[unknown].weight != core.WeightProb {
		t.Error("unknown kind does not read as the oblivious IC defaults")
	}
}

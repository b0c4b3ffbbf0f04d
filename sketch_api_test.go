package holisticim

import (
	"bytes"
	"context"
	"testing"
)

func sketchTestGraph() *Graph {
	g := GenerateBA(2000, 3, 1)
	g.SetUniformProb(0.1)
	return g
}

func TestOptionsSketchFastPath(t *testing.T) {
	g := sketchTestGraph()
	sk, err := BuildSketch(context.Background(), g, SketchOptions{Epsilon: 0.3, Seed: 5, BuildK: 20})
	if err != nil {
		t.Fatal(err)
	}

	// With a matching sketch attached, IMM selections are served from it.
	res, err := SelectSeeds(g, 10, AlgIMM, Options{Epsilon: 0.3, Seed: 5, Sketch: sk})
	if err != nil {
		t.Fatal(err)
	}
	if res.Algorithm != "RR-sketch" {
		t.Fatalf("algorithm %q, want RR-sketch", res.Algorithm)
	}
	direct, err := sk.Select(context.Background(), 10)
	if err != nil {
		t.Fatal(err)
	}
	for i := range direct.Seeds {
		if res.Seeds[i] != direct.Seeds[i] {
			t.Fatalf("facade seed %d differs from direct sketch select", i)
		}
	}
	// TIM+ rides the same index.
	res, err = SelectSeeds(g, 10, AlgTIMPlus, Options{Epsilon: 0.3, Seed: 5, Sketch: sk})
	if err != nil {
		t.Fatal(err)
	}
	if res.Algorithm != "RR-sketch" {
		t.Fatalf("TIM+ with sketch: algorithm %q", res.Algorithm)
	}

	// A θ cap opts out of the fast path.
	res, err = SelectSeeds(g, 5, AlgIMM, Options{Epsilon: 0.3, Seed: 5, Sketch: sk, TIMThetaCap: 500})
	if err != nil {
		t.Fatal(err)
	}
	if res.Algorithm != "IMM" {
		t.Fatalf("capped run should bypass the sketch, got %q", res.Algorithm)
	}

	// A different graph never matches.
	other := sketchTestGraph()
	res, err = SelectSeeds(other, 5, AlgIMM, Options{Epsilon: 0.3, Seed: 5, Sketch: sk, TIMThetaCap: 200})
	if err != nil {
		t.Fatal(err)
	}
	if res.Algorithm != "IMM" {
		t.Fatalf("foreign graph should bypass the sketch, got %q", res.Algorithm)
	}
	// An LT-family model needs LT semantics the IC sketch lacks.
	res, err = SelectSeeds(g, 5, AlgIMM, Options{Model: ModelLT, Epsilon: 0.3, Seed: 5, Sketch: sk, TIMThetaCap: 200})
	if err != nil {
		t.Fatal(err)
	}
	if res.Algorithm != "IMM" {
		t.Fatalf("LT request should bypass an IC sketch, got %q", res.Algorithm)
	}
}

func TestSketchPersistenceFacade(t *testing.T) {
	g := sketchTestGraph()
	sk, err := BuildSketch(context.Background(), g, SketchOptions{Epsilon: 0.35, Seed: 9, BuildK: 10})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteSketch(&buf, sk); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	h, err := ReadSketchHeader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if h.Epsilon != 0.35 || h.Seed != 9 || h.Nodes != g.NumNodes() {
		t.Fatalf("header mismatch: %+v", h)
	}

	loaded, err := ReadSketch(bytes.NewReader(raw), g)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sk.Select(context.Background(), 10)
	if err != nil {
		t.Fatal(err)
	}
	got, err := loaded.Select(context.Background(), 10)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Seeds {
		if got.Seeds[i] != want.Seeds[i] {
			t.Fatalf("loaded sketch seed %d differs", i)
		}
	}
}

// An "oc" sketch serves both the weighted selection (via AlgTIMPlus/
// AlgIMM with Model "oc") and the opinion-spread estimate without Monte
// Carlo.
func TestOpinionSketchFastPath(t *testing.T) {
	g := sketchTestGraph()
	AssignOpinions(g, OpinionNormal, 2)
	sk, err := BuildSketch(context.Background(), g, SketchOptions{Model: ModelOC, Epsilon: 0.3, Seed: 5, BuildK: 20})
	if err != nil {
		t.Fatal(err)
	}
	if sk.Kind().String() != "OC" {
		t.Fatalf("sketch kind %v, want OC", sk.Kind())
	}

	// Weighted selection rides the TIM+/IMM entry points.
	res, err := SelectSeeds(g, 10, AlgIMM, Options{Model: ModelOC, Epsilon: 0.3, Seed: 5, Sketch: sk})
	if err != nil {
		t.Fatal(err)
	}
	if res.Algorithm != "RR-sketch" {
		t.Fatalf("algorithm %q, want RR-sketch", res.Algorithm)
	}
	if _, ok := res.Metrics["weighted_coverage"]; !ok {
		t.Fatal("weighted selection did not report weighted_coverage")
	}

	// The opinion estimate is served from the sketch: it must equal the
	// index's own estimator, not a Monte-Carlo average.
	opts := Options{Model: ModelOC, Epsilon: 0.3, Seed: 5, Sketch: sk}
	if !servesEstimate(t, g, opts) {
		t.Fatal("matching oc sketch not recognized for the estimate fast path")
	}
	est, err := EstimateOpinionSpreadContext(context.Background(), g, res.Seeds, opts)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := sk.EstimateOpinion(res.Seeds)
	if err != nil {
		t.Fatal(err)
	}
	if est.OpinionSpread != direct.Opinion || est.Spread != direct.Spread ||
		est.PositiveSpread != direct.Positive || est.NegativeSpread != direct.Negative {
		t.Fatalf("facade estimate %+v differs from sketch estimator %+v", est, direct)
	}
	if est.Runs != direct.Sets {
		t.Fatalf("sketch-served estimate reports Runs=%d, want RR-set count %d", est.Runs, direct.Sets)
	}

	// Non-OC models never take the opinion fast path, nor do foreign
	// graphs (few MC runs keep the fallback cheap).
	mcOpts := Options{Model: ModelOIIC, MCRuns: 50, Sketch: sk}
	if servesEstimate(t, g, mcOpts) {
		t.Fatal("oi-ic estimate claimed the oc sketch")
	}
	est, err = EstimateOpinionSpreadContext(context.Background(), g, res.Seeds, mcOpts)
	if err != nil {
		t.Fatal(err)
	}
	if est.Runs != 50 {
		t.Fatalf("fallback estimate ran %d MC runs, want 50", est.Runs)
	}
	other := sketchTestGraph()
	AssignOpinions(other, OpinionUniform, 9)
	if servesEstimate(t, other, Options{Model: ModelOC, MCRuns: 50, Sketch: sk}) {
		t.Fatal("foreign graph claimed the oc sketch")
	}
}

// servesEstimate asks the planner whether an opinion estimate under opts
// is answered from opts.Sketch instead of Monte Carlo.
func servesEstimate(t *testing.T, g *Graph, opts Options) bool {
	t.Helper()
	plan, err := PlanQuery(g, Query{Objective: ObjectiveOpinion, SeedSets: [][]NodeID{{0}}, Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	return plan.SketchOnly()
}

func TestRRSemantics(t *testing.T) {
	cases := map[ModelKind]string{
		ModelIC: "ic", ModelWC: "ic", ModelOIIC: "ic", "": "ic",
		ModelLT: "lt", ModelOILT: "lt", ModelOC: "oc",
	}
	for k, want := range cases {
		if got := k.RRSemantics(); got != want {
			t.Errorf("%q.RRSemantics() = %q, want %q", k, got, want)
		}
	}
}

package service

import (
	"context"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"github.com/holisticim/holisticim"
)

// TestOpinionSketchService drives the opinion-aware ("oc") sketch path
// end to end: build → weighted fast-path select → sketch-served estimate
// → stats, plus the Monte-Carlo fallback on a key miss.
func TestOpinionSketchService(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	info := buildTestSketch(t, ts.URL, SketchSpec{Graph: "g", Model: "oc", Epsilon: 0.3, Seed: 5, BuildK: 10})
	if info.Model != "oc" || info.Sets == 0 {
		t.Fatalf("oc sketch info: %+v", info)
	}

	// A model-oc IMM select is served synchronously by the weighted index.
	var sel SelectResponse
	req := SelectRequest{Graph: "g", Algorithm: "imm", K: 5, Options: Options{Model: "oc", Epsilon: 0.3, Seed: 5}}
	if code := doJSON(t, "POST", ts.URL+"/v1/select", req, &sel); code != http.StatusOK {
		t.Fatalf("oc fast-path select status %d (%+v)", code, sel)
	}
	if !sel.Sketch || sel.Result == nil || len(sel.Result.Seeds) != 5 {
		t.Fatalf("oc fast-path response: %+v", sel)
	}
	if sel.Result.Metrics["weighted_coverage"] == 0 {
		t.Fatalf("weighted selection metrics missing: %+v", sel.Result.Metrics)
	}

	// The opinion estimate is served from the sketch, not Monte Carlo:
	// synchronously, with no job.
	est := runEstimate(t, ts.URL, estimateQuery("g", sel.Result.Seeds, Options{Model: "oc", Epsilon: 0.3, Seed: 5}), http.StatusOK)
	// Runs reports the RR-set count — at least the build-time sample (the
	// preceding select may have lazily extended it).
	if !est.Sketch || est.Runs < info.Sets {
		t.Fatalf("estimate not sketch-served: %+v (want runs>=%d)", est, info.Sets)
	}
	if est.Lambda != 1 || est.EffectiveOpinionSpread != est.PositiveSpread-est.NegativeSpread {
		t.Fatalf("estimate opinion fields inconsistent: %+v", est)
	}

	// A different seed misses the sketch key and falls back to MC, which
	// runs as a job.
	mc := runEstimate(t, ts.URL, estimateQuery("g", sel.Result.Seeds, Options{Model: "oc", Epsilon: 0.3, Seed: 6, MCRuns: 40}), http.StatusAccepted)
	if mc.Sketch || mc.Runs != 40 {
		t.Fatalf("fallback estimate not Monte Carlo: %+v", mc)
	}

	st := s.Stats()
	if st.SketchEstimateHits != 1 || st.SketchFastPathHits != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

// Satellite regression: a `{}` (all-defaults) select request must hit a
// sketch built from a fully spelled-out default spec — the three
// canonicalization sites resolve through one helper, so ε 0→0.1 and
// seed 0→1 cannot drift apart. And symmetrically, a spelled-out request
// must hit a `{}`-built sketch.
func TestDefaultCanonicalizationSharesSketch(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	buildTestSketch(t, ts.URL, SketchSpec{Graph: "g", Model: "ic", Epsilon: 0.1, Seed: 1, BuildK: 5})

	var sel SelectResponse
	empty := SelectRequest{Graph: "g", Algorithm: "imm", K: 3}
	if code := doJSON(t, "POST", ts.URL+"/v1/select", empty, &sel); code != http.StatusOK || !sel.Sketch {
		t.Fatalf("defaults request missed the spelled-out default sketch: status %d, %+v", code, sel)
	}
	spelled := SelectRequest{Graph: "g", Algorithm: "tim+", K: 3, Options: Options{Model: "ic", Epsilon: 0.1, Seed: 1}}
	if code := doJSON(t, "POST", ts.URL+"/v1/select", spelled, &sel); code != http.StatusOK || !sel.Sketch {
		t.Fatalf("spelled-out request missed the sketch: status %d, %+v", code, sel)
	}

	// The duplicate-build guard sees through the same canonicalization: a
	// `{}`-spec build of the same sketch conflicts instead of duplicating.
	var resp map[string]any
	if code := doJSON(t, "POST", ts.URL+"/v1/sketches", SketchSpec{Graph: "g", BuildK: 5}, &resp); code != http.StatusConflict {
		t.Fatalf("zero-value spec did not conflict with the default-spec sketch: %d", code)
	}
}

// writeGraphFile persists g to a binary graph file under dir.
func writeGraphFile(t *testing.T, dir, name string, g *holisticim.Graph) string {
	t.Helper()
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := holisticim.WriteBinaryGraph(f, g); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// Satellite regression: re-registering a graph under the same name must
// not silently kill the sketch fast path when the content is identical,
// and must evict sketches plus fence off cached results when it is not.
func TestGraphReplacementStaleness(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	mk := func(prob float64) *holisticim.Graph {
		g := holisticim.GenerateBA(250, 3, 7)
		g.SetUniformProb(prob)
		holisticim.AssignOpinions(g, holisticim.OpinionNormal, 2)
		return g
	}
	dir := t.TempDir()
	path := writeGraphFile(t, dir, "h.bin", mk(0.1))
	if err := s.Registry().LoadFile("h", path); err != nil {
		t.Fatal(err)
	}
	buildTestSketch(t, ts.URL, SketchSpec{Graph: "h", Epsilon: 0.3, Seed: 5, BuildK: 5})

	fastReq := SelectRequest{Graph: "h", Algorithm: "imm", K: 3, Options: Options{Epsilon: 0.3, Seed: 5}}
	var sel SelectResponse
	if code := doJSON(t, "POST", ts.URL+"/v1/select", fastReq, &sel); code != http.StatusOK || !sel.Sketch {
		t.Fatalf("fast path not serving before reload: status %d, %+v", code, sel)
	}

	// Warm the result cache with a cold selection.
	coldReq := SelectRequest{Graph: "h", Algorithm: "degree-discount", K: 2}
	var cold SelectResponse
	if code := doJSON(t, "POST", ts.URL+"/v1/select", coldReq, &cold); code != http.StatusAccepted {
		t.Fatalf("cold select status %d", code)
	}
	pollJob(t, ts.URL, cold.JobID)
	if code := doJSON(t, "POST", ts.URL+"/v1/select", coldReq, &cold); code != http.StatusOK || !cold.Cached {
		t.Fatalf("cold result not cached: status %d, %+v", code, cold)
	}

	// Reload with IDENTICAL content: the sketch must keep serving (the
	// index rebinds to the new instance via the content fingerprint).
	if err := s.Registry().LoadFile("h", path); err != nil {
		t.Fatal(err)
	}
	if code := doJSON(t, "POST", ts.URL+"/v1/select", fastReq, &sel); code != http.StatusOK || !sel.Sketch {
		t.Fatalf("identical reload killed the fast path: status %d, %+v", code, sel)
	}
	if st := s.Stats(); st.GraphReplacements != 1 || st.Sketches != 1 {
		t.Fatalf("stats after identical reload: %+v", st)
	}

	// Reload with DIFFERENT content: the sketch is evicted (a stale
	// sample must never serve the new topology) and the name's cached
	// results are out of reach.
	path2 := writeGraphFile(t, dir, "h2.bin", mk(0.2))
	if err := s.Registry().LoadFile("h", path2); err != nil {
		t.Fatal(err)
	}
	var sel2, cold2 SelectResponse // fresh: omitempty fields never reset on reuse
	if code := doJSON(t, "POST", ts.URL+"/v1/select", fastReq, &sel2); code != http.StatusAccepted || sel2.Sketch {
		t.Fatalf("stale sketch still serving after content change: status %d, %+v", code, sel2)
	}
	pollJob(t, ts.URL, sel2.JobID)
	if code := doJSON(t, "POST", ts.URL+"/v1/select", coldReq, &cold2); code != http.StatusAccepted || cold2.Cached {
		t.Fatalf("stale cached result served after content change: status %d, %+v", code, cold2)
	}
	pollJob(t, ts.URL, cold2.JobID)
	st := s.Stats()
	if st.GraphReplacements != 2 || st.Sketches != 0 {
		t.Fatalf("stats after content change: %+v", st)
	}

	// POST /v1/graphs still refuses rebinding: the untrusted API cannot
	// replace graphs.
	var errResp map[string]any
	spec := GraphSpec{Name: "h", Generator: "ba", Nodes: 50}
	if code := doJSON(t, "POST", ts.URL+"/v1/graphs", spec, &errResp); code != http.StatusConflict {
		t.Fatalf("POST /v1/graphs rebound a name: status %d (%v)", code, errResp)
	}
}

// A job in flight when its graph is replaced caches its stale result
// after the replacement, and a post-replace request must neither read it
// nor attach to the pre-replace job: both are fenced by the rebind
// generation folded into the cache/dedup key.
func TestInFlightJobFencedByReplacement(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	dir := t.TempDir()
	g1 := holisticim.GenerateBA(200, 3, 7)
	g1.SetUniformProb(0.1)
	path := writeGraphFile(t, dir, "f.bin", g1)
	if err := s.Registry().LoadFile("f", path); err != nil {
		t.Fatal(err)
	}

	// Gate the selection so we control when the "in-flight" job finishes
	// (the post-replace job reuses the stub and sails through the closed
	// release channel).
	started := make(chan struct{})
	release := make(chan struct{})
	var startedOnce sync.Once
	s.queryFn = selectStub(func(ctx context.Context, g *holisticim.Graph, k int, alg holisticim.Algorithm, o holisticim.Options) (holisticim.Result, error) {
		startedOnce.Do(func() { close(started) })
		<-release
		return holisticim.Result{Algorithm: string(alg), Seeds: []int32{1, 2}}, nil
	})

	req := SelectRequest{Graph: "f", Algorithm: "degree-discount", K: 2}
	var first SelectResponse
	if code := doJSON(t, "POST", ts.URL+"/v1/select", req, &first); code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	<-started

	// Replace the graph while the job runs, then let the job complete and
	// cache its (now stale) result under the OLD generation's key.
	g2 := holisticim.GenerateBA(200, 3, 7)
	g2.SetUniformProb(0.2)
	path2 := writeGraphFile(t, dir, "f2.bin", g2)
	if err := s.Registry().LoadFile("f", path2); err != nil {
		t.Fatal(err)
	}
	close(release)
	pollJob(t, ts.URL, first.JobID)

	// The identical request now carries the new generation: it must miss
	// both the cache and the old job, submitting fresh work.
	var second SelectResponse
	if code := doJSON(t, "POST", ts.URL+"/v1/select", req, &second); code != http.StatusAccepted {
		t.Fatalf("post-replace request status %d (%+v)", code, second)
	}
	if second.Cached || second.Deduped || second.JobID == first.JobID {
		t.Fatalf("post-replace request served stale work: %+v (first job %s)", second, first.JobID)
	}
	pollJob(t, ts.URL, second.JobID)
}

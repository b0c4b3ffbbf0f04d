package service

import (
	"net/http"
	"testing"
)

// buildTestSketch drives POST /v1/sketches to completion and returns the
// listed sketch.
func buildTestSketch(t *testing.T, ts string, spec SketchSpec) SketchInfo {
	t.Helper()
	var resp SelectResponse
	if code := doJSON(t, "POST", ts+"/v1/sketches", spec, &resp); code != http.StatusAccepted {
		t.Fatalf("POST sketches status %d (%+v)", code, resp)
	}
	done := pollJob(t, ts, resp.JobID)
	if done.State != StateDone || done.Result == nil || done.Result.Algorithm != "sketch-build" {
		t.Fatalf("sketch build job: %+v", done)
	}
	if done.Result.Metrics["sets"] == 0 {
		t.Fatalf("sketch build reported no sets: %+v", done.Result)
	}
	var list struct {
		Sketches []SketchInfo `json:"sketches"`
	}
	if code := doJSON(t, "GET", ts+"/v1/sketches", nil, &list); code != http.StatusOK {
		t.Fatalf("GET sketches status %d", code)
	}
	for _, s := range list.Sketches {
		if s.Graph == spec.Graph {
			return s
		}
	}
	t.Fatalf("built sketch not listed: %+v", list)
	return SketchInfo{}
}

// TestSketchLifecycle drives build → list → fast-path select → stats →
// evict end to end.
func TestSketchLifecycle(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	info := buildTestSketch(t, ts.URL, SketchSpec{Graph: "g", Epsilon: 0.3, Seed: 5, BuildK: 10})
	if info.Model != "ic" || info.Epsilon != 0.3 || info.Seed != 5 || info.Sets == 0 {
		t.Fatalf("sketch info: %+v", info)
	}

	// GET by id.
	var one SketchInfo
	if code := doJSON(t, "GET", ts.URL+"/v1/sketches/"+info.ID, nil, &one); code != http.StatusOK {
		t.Fatalf("GET sketch %q status %d", info.ID, code)
	}

	// A matching RIS-family select is served synchronously by the index.
	var sel SelectResponse
	req := SelectRequest{Graph: "g", Algorithm: "imm", K: 7, Options: Options{Epsilon: 0.3, Seed: 5}}
	if code := doJSON(t, "POST", ts.URL+"/v1/select", req, &sel); code != http.StatusOK {
		t.Fatalf("fast-path select status %d (%+v)", code, sel)
	}
	if !sel.Sketch || sel.State != StateDone || sel.Result == nil || len(sel.Result.Seeds) != 7 {
		t.Fatalf("fast-path response: %+v", sel)
	}
	if sel.Result.Algorithm != "RR-sketch" {
		t.Fatalf("fast-path algorithm %q", sel.Result.Algorithm)
	}
	// TIM+ rides the same index; repeated ks are memoized.
	req.Algorithm = "tim+"
	if code := doJSON(t, "POST", ts.URL+"/v1/select", req, &sel); code != http.StatusOK || !sel.Sketch {
		t.Fatalf("tim+ fast path: status %d, %+v", code, sel)
	}
	if got := s.SelectionsRun(); got != 0 {
		t.Fatalf("fast path must not run selection jobs, ran %d", got)
	}

	// A mismatched seed misses the sketch and goes through the job path.
	miss := SelectRequest{Graph: "g", Algorithm: "imm", K: 3, Options: Options{Epsilon: 0.3, Seed: 6, TIMThetaCap: 200}}
	var missResp SelectResponse
	if code := doJSON(t, "POST", ts.URL+"/v1/select", miss, &missResp); code != http.StatusAccepted {
		t.Fatalf("mismatched select status %d (%+v)", code, missResp)
	}
	pollJob(t, ts.URL, missResp.JobID)

	// An explicit θ cap opts out of the fast path even on a key match.
	capped := SelectRequest{Graph: "g", Algorithm: "imm", K: 3, Options: Options{Epsilon: 0.3, Seed: 5, TIMThetaCap: 200}}
	var cappedResp SelectResponse
	if code := doJSON(t, "POST", ts.URL+"/v1/select", capped, &cappedResp); code != http.StatusAccepted {
		t.Fatalf("capped select status %d (%+v)", code, cappedResp)
	}
	pollJob(t, ts.URL, cappedResp.JobID)

	// Stats report the registry and the fast-path hits.
	st := s.Stats()
	if st.Sketches != 1 || st.SketchFastPathHits != 2 || st.SketchBuilds != 1 {
		t.Fatalf("stats: %+v", st)
	}
	if st.SketchSets == 0 || st.SketchMemoryBytes == 0 {
		t.Fatalf("stats missing sketch footprint: %+v", st)
	}

	// Evict; the fast path stops matching and the id 404s.
	if code := doJSON(t, "DELETE", ts.URL+"/v1/sketches/"+info.ID, nil, nil); code != http.StatusOK {
		t.Fatalf("DELETE sketch status %d", code)
	}
	if code := doJSON(t, "DELETE", ts.URL+"/v1/sketches/"+info.ID, nil, nil); code != http.StatusNotFound {
		t.Fatalf("second DELETE status %d", code)
	}
	var after SelectResponse
	fresh := SelectRequest{Graph: "g", Algorithm: "imm", K: 2, Options: Options{Epsilon: 0.3, Seed: 5, TIMThetaCap: 200}}
	if code := doJSON(t, "POST", ts.URL+"/v1/select", fresh, &after); code != http.StatusAccepted {
		t.Fatalf("post-evict select status %d (%+v)", code, after)
	}
	if s.Stats().Sketches != 0 {
		t.Fatalf("sketch survived eviction: %+v", s.Stats())
	}
}

// TestSketchRebuildsAfterDelete: a sketch build has no Plan, so its job
// stops answering the build key when it ends, and a DELETE'd sketch is
// rebuilt by a new job on its next POST.
func TestSketchRebuildsAfterDelete(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	spec := SketchSpec{Graph: "g", Epsilon: 0.3, Seed: 5, BuildK: 10}
	build := func() SelectResponse {
		t.Helper()
		var resp SelectResponse
		if code := doJSON(t, "POST", ts.URL+"/v1/sketches", spec, &resp); code != http.StatusAccepted || resp.Deduped || resp.JobID == "" {
			t.Fatalf("POST sketches: status %d %+v, want a new job", code, resp)
		}
		if done := pollJob(t, ts.URL, resp.JobID); done.State != StateDone {
			t.Fatalf("sketch build job: %+v", done)
		}
		return resp
	}
	first := build()
	var list struct {
		Sketches []SketchInfo `json:"sketches"`
	}
	if code := doJSON(t, "GET", ts.URL+"/v1/sketches", nil, &list); code != http.StatusOK || len(list.Sketches) != 1 {
		t.Fatalf("GET sketches: status %d %+v", code, list)
	}
	if code := doJSON(t, "DELETE", ts.URL+"/v1/sketches/"+list.Sketches[0].ID, nil, nil); code != http.StatusOK {
		t.Fatalf("DELETE sketch status %d", code)
	}
	if second := build(); second.JobID == first.JobID {
		t.Fatalf("rebuild answered by the first build's job %s", first.JobID)
	}
	if st := s.Stats(); st.Sketches != 1 || st.SketchBuilds != 2 {
		t.Fatalf("stats %+v, want 1 sketch after 2 builds", st)
	}
}

func TestSketchBuildValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	cases := []struct {
		name string
		spec SketchSpec
		code int
	}{
		{"unknown graph", SketchSpec{Graph: "nope"}, http.StatusNotFound},
		{"bad model", SketchSpec{Graph: "g", Model: "martian"}, http.StatusBadRequest},
		{"bad epsilon", SketchSpec{Graph: "g", Epsilon: 1.5}, http.StatusBadRequest},
		{"bad build_k", SketchSpec{Graph: "g", BuildK: 10_000}, http.StatusBadRequest},
	}
	for _, c := range cases {
		var resp map[string]any
		if code := doJSON(t, "POST", ts.URL+"/v1/sketches", c.spec, &resp); code != c.code {
			t.Errorf("%s: status %d, want %d (%v)", c.name, code, c.code, resp)
		}
	}

	// Duplicate build: 409 once registered, in the uniform error envelope.
	buildTestSketch(t, ts.URL, SketchSpec{Graph: "g", Epsilon: 0.3, BuildK: 5})
	var resp ErrorResponse
	if code := doJSON(t, "POST", ts.URL+"/v1/sketches", SketchSpec{Graph: "g", Epsilon: 0.3, BuildK: 5}, &resp); code != http.StatusConflict {
		t.Fatalf("duplicate sketch build status %d", code)
	}
}

// The registry cap bounds how many sketches a server will hold.
func TestSketchRegistryCapacity(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	for seed := uint64(1); seed <= maxSketches; seed++ {
		buildTestSketch(t, ts.URL, SketchSpec{Graph: "g", Epsilon: 0.4, Seed: seed, BuildK: 5})
	}

	var resp SelectResponse
	if code := doJSON(t, "POST", ts.URL+"/v1/sketches", SketchSpec{Graph: "g", Epsilon: 0.4, Seed: maxSketches + 1, BuildK: 5}, &resp); code != http.StatusAccepted {
		t.Fatalf("build %d submit status %d", maxSketches+1, code)
	}
	done := pollJob(t, ts.URL, resp.JobID)
	if done.State != StateFailed {
		t.Fatalf("over-capacity build should fail, got %+v", done)
	}
	if got := s.Stats().Sketches; got != maxSketches {
		t.Fatalf("registry holds %d sketches, want %d", got, maxSketches)
	}
}

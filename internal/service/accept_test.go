package service

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/holisticim/holisticim"
)

// TestBatchQuerySpeedupVsSingleSketchSelect is the PR's acceptance
// criterion, the serving-layer sibling of sketch.TestSketchSpeedupVsColdIMM:
// on the 50k-node BA benchmark graph, a batch /v2/query with 5 k-values
// against a warm sketch must complete in < 2x the wall time of a single
// sketch select — the whole point of batch execution over shared state
// is that four extra budgets ride along nearly for free.
func TestBatchQuerySpeedupVsSingleSketchSelect(t *testing.T) {
	if testing.Short() {
		t.Skip("50k-node batch acceptance test")
	}
	g := holisticim.GenerateBA(50000, 3, 1)
	g.SetUniformProb(0.1)
	const eps, seed = 0.25, uint64(9)

	s := New(Config{})
	defer s.Close()
	if err := s.Registry().Add("big", g, "bench"); err != nil {
		t.Fatal(err)
	}
	idx, err := holisticim.BuildSketch(context.Background(), g,
		holisticim.SketchOptions{Epsilon: eps, Seed: seed, BuildK: 50})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Registry().AddSketch("big", idx); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	opts := Options{Epsilon: eps, Seed: seed}

	// Single sketch select: the first query on the warm sample, paying
	// for the memoized greedy order once.
	start := time.Now()
	var single QueryResponse
	if code := doJSON(t, "POST", ts.URL+"/v2/query",
		QueryRequest{Graph: "big", Algorithm: "imm", K: 25, Options: opts}, &single); code != http.StatusOK {
		t.Fatalf("single query status %d (%+v)", code, single)
	}
	singleTook := time.Since(start)
	if !single.Sketch || single.Answer == nil || len(single.Answer.Members[0].Result.Seeds) != 25 {
		t.Fatalf("single response %+v", single)
	}

	// Batch of 5 budgets over the same warm sketch.
	start = time.Now()
	var batch QueryResponse
	if code := doJSON(t, "POST", ts.URL+"/v2/query",
		QueryRequest{Graph: "big", Algorithm: "imm", Ks: []int{5, 10, 15, 20, 25}, Options: opts}, &batch); code != http.StatusOK {
		t.Fatalf("batch query status %d (%+v)", code, batch)
	}
	batchTook := time.Since(start)
	if !batch.Sketch || batch.Answer == nil || len(batch.Answer.Members) != 5 {
		t.Fatalf("batch response %+v", batch)
	}
	full := batch.Answer.Members[4].Result.Seeds
	for _, m := range batch.Answer.Members {
		if len(m.Result.Seeds) != m.K {
			t.Fatalf("member k=%d selected %d seeds", m.K, len(m.Result.Seeds))
		}
		for i, sd := range m.Result.Seeds {
			if sd != full[i] {
				t.Fatalf("member k=%d not a prefix at seed %d", m.K, i)
			}
		}
	}

	t.Logf("single sketch select: %v, 5-k batch: %v (%.2fx)",
		singleTook, batchTook, float64(batchTook)/float64(singleTook))
	if batchTook >= 2*singleTook {
		t.Fatalf("batch %v not < 2x single sketch select %v", batchTook, singleTook)
	}
}

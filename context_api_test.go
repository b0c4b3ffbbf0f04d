package holisticim

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestSelectSeedsContextCancellationAllAlgorithms is the facade-level
// conformance pass: for every algorithm, cancelling mid-selection (from
// the first progress report) yields a prompt return with a partial
// Result and an error wrapping context.Canceled. Run with -race in CI.
func TestSelectSeedsContextCancellationAllAlgorithms(t *testing.T) {
	g := testGraph()
	opts := Options{MCRuns: 60, Seed: 5, TIMThetaCap: 20000, Model: ModelIC}
	algs := []Algorithm{
		AlgEaSyIM, AlgOSIM, AlgGreedy, AlgCELFPP, AlgModifiedGreedy,
		AlgTIMPlus, AlgIMM, AlgIRIE, AlgDegreeDiscount,
	}
	for _, alg := range algs {
		alg := alg
		t.Run(string(alg), func(t *testing.T) {
			o := opts
			if alg == AlgOSIM || alg == AlgModifiedGreedy {
				o.Model = "" // pick the opinion-aware default
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			o.Progress = func(seedIdx int, seed NodeID, elapsed time.Duration) {
				if seedIdx == 0 {
					cancel()
				}
			}
			res, err := SelectSeedsContext(ctx, g, 4, alg, o)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want wrapped context.Canceled", err)
			}
			if !res.Partial {
				t.Fatal("cancelled selection not marked Partial")
			}
			if len(res.Seeds) == 0 || len(res.Seeds) >= 4 {
				t.Fatalf("partial result has %d seeds, want a non-empty strict prefix of 4", len(res.Seeds))
			}
		})
	}
}

// TestSimpathCancellation covers the LT-only algorithm the all-algorithms
// sweep skips (SIMPATH needs the LT model).
func TestSimpathCancellation(t *testing.T) {
	g := testGraph()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	o := Options{Model: ModelLT, Seed: 5, Progress: func(seedIdx int, seed NodeID, elapsed time.Duration) {
		if seedIdx == 0 {
			cancel()
		}
	}}
	res, err := SelectSeedsContext(ctx, g, 4, AlgSIMPATH, o)
	if !errors.Is(err, context.Canceled) || !res.Partial {
		t.Fatalf("err=%v partial=%v", err, res.Partial)
	}
}

// TestSelectSeedsDeadlineOption proves Options.Deadline alone — with a
// plain background context — bounds the selection wall-clock.
func TestSelectSeedsDeadlineOption(t *testing.T) {
	g := testGraph()
	res, err := SelectSeedsContext(context.Background(), g, 50, AlgGreedy,
		Options{MCRuns: 2000, Seed: 3, Deadline: 25 * time.Millisecond})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want wrapped context.DeadlineExceeded", err)
	}
	if !res.Partial {
		t.Fatal("deadline-expired selection not marked Partial")
	}
	if len(res.Seeds) >= 50 {
		t.Fatalf("deadline-expired selection still returned %d seeds", len(res.Seeds))
	}
}

// TestSelectSeedsProgressOption watches the per-seed callback fire for a
// full, uncancelled run and checks the reported stream is consistent.
func TestSelectSeedsProgressOption(t *testing.T) {
	g := testGraph()
	var idxs []int
	var seeds []NodeID
	var lastElapsed time.Duration
	res, err := SelectSeedsContext(context.Background(), g, 5, AlgDegreeDiscount, Options{
		Progress: func(seedIdx int, seed NodeID, elapsed time.Duration) {
			idxs = append(idxs, seedIdx)
			seeds = append(seeds, seed)
			if elapsed < lastElapsed {
				t.Errorf("elapsed went backwards: %v after %v", elapsed, lastElapsed)
			}
			lastElapsed = elapsed
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(idxs) != 5 {
		t.Fatalf("progress fired %d times, want 5", len(idxs))
	}
	for i, idx := range idxs {
		if idx != i {
			t.Fatalf("progress indexes %v, want 0..4 in order", idxs)
		}
		if seeds[i] != res.Seeds[i] {
			t.Fatalf("progress seeds %v != result seeds %v", seeds, res.Seeds)
		}
	}
	// SelectSeeds (the background wrapper) must behave identically.
	res2, err := SelectSeeds(g, 5, AlgDegreeDiscount, Options{})
	if err != nil || len(res2.Seeds) != 5 || res2.Partial {
		t.Fatalf("SelectSeeds wrapper: res=%+v err=%v", res2, err)
	}
}

// TestFingerprintIgnoresLifecycleKnobs: Progress and Deadline cannot
// change which seeds a completed selection returns, so they must not
// fragment the serving cache.
func TestFingerprintIgnoresLifecycleKnobs(t *testing.T) {
	base := Query{Algorithm: AlgEaSyIM, K: 10, Options: Options{Seed: 7}}.Fingerprint()
	withKnobs := Query{Algorithm: AlgEaSyIM, K: 10, Options: Options{
		Seed:     7,
		Deadline: time.Second,
		Progress: func(int, NodeID, time.Duration) {},
		Workers:  8,
	}}.Fingerprint()
	if base != withKnobs {
		t.Fatalf("fingerprints differ:\n%s\n%s", base, withKnobs)
	}
}

// TestEstimateContextVariants covers the error-returning estimators.
func TestEstimateContextVariants(t *testing.T) {
	g := testGraph()
	seeds := []NodeID{0, 1, 2}

	est, err := EstimateSpreadContext(context.Background(), g, seeds, Options{MCRuns: 200, Seed: 4})
	if err != nil || est.Runs != 200 || est.Spread <= 0 {
		t.Fatalf("est=%+v err=%v", est, err)
	}
	if _, err := EstimateSpreadContext(context.Background(), g, seeds, Options{Model: "warp"}); err == nil {
		t.Fatal("unknown model must error, not panic")
	}
	if _, err := EstimateOpinionSpreadContext(context.Background(), nil, seeds, Options{}); err == nil {
		t.Fatal("nil graph must error")
	}

	// Cancellation truncates the run budget and surfaces ctx.Err().
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	est, err = EstimateSpreadContext(ctx, g, seeds, Options{MCRuns: 100000, Seed: 4})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled estimate err = %v", err)
	}
	if est.Runs >= 100000 {
		t.Fatalf("cancelled estimate still ran %d simulations", est.Runs)
	}

}

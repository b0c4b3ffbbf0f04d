package holisticim

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"
)

func queryTestGraph(n int32) *Graph {
	g := GenerateBA(n, 3, 1)
	g.SetUniformProb(0.1)
	AssignOpinions(g, OpinionNormal, 2)
	AssignInteractions(g, 3)
	return g
}

// assertPrefixes checks the memoized-greedy batch invariant: every
// smaller-k member's seeds are exactly the first k seeds of every larger
// member.
func assertPrefixes(t *testing.T, members []Member) {
	t.Helper()
	largest := members[0]
	for _, m := range members {
		if m.Result == nil {
			t.Fatalf("member k=%d has no result", m.K)
		}
		if len(m.Result.Seeds) != m.K {
			t.Fatalf("member k=%d selected %d seeds", m.K, len(m.Result.Seeds))
		}
		if m.K > largest.K {
			largest = m
		}
	}
	for _, m := range members {
		for i, s := range m.Result.Seeds {
			if s != largest.Result.Seeds[i] {
				t.Fatalf("member k=%d seed %d = %d, want prefix of k=%d (%d)",
					m.K, i, s, largest.K, largest.Result.Seeds[i])
			}
		}
	}
}

// TestRunBatchPrefixInvariant: Run with Ks [5, 10, 25] returns seed
// lists where each smaller-k result is a prefix of the larger, for every
// backend family — the memoized-greedy invariant the batch execution
// depends on. Ks arrive unsorted to exercise member alignment.
func TestRunBatchPrefixInvariant(t *testing.T) {
	g := queryTestGraph(400)
	cases := []struct {
		alg  Algorithm
		opts Options
		want Backend
	}{
		{AlgDegreeDiscount, Options{}, BackendHeuristic},
		{AlgEaSyIM, Options{}, BackendScore},
		{AlgGreedy, Options{MCRuns: 60}, BackendMC},
		{AlgIMM, Options{Epsilon: 0.3}, BackendRIS},
	}
	for _, tc := range cases {
		t.Run(string(tc.alg), func(t *testing.T) {
			ans, err := Run(context.Background(), g, Query{
				Algorithm: tc.alg, Ks: []int{10, 5, 25}, Options: tc.opts,
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(ans.Members) != 3 {
				t.Fatalf("got %d members", len(ans.Members))
			}
			for i, want := range []int{10, 5, 25} {
				if ans.Members[i].K != want {
					t.Fatalf("member %d has k=%d, want %d (request order)", i, ans.Members[i].K, want)
				}
			}
			for _, st := range ans.Plan.Steps {
				if st.Backend != tc.want {
					t.Fatalf("planned backend %q, want %q", st.Backend, tc.want)
				}
			}
			assertPrefixes(t, ans.Members)
		})
	}
}

// TestRunBatchSharedSketch: a batch against a prebuilt sketch is served
// entirely from the index (plan is sketch-only, prefix invariant holds)
// and is measurably cheaper than the same three selections run cold.
func TestRunBatchSharedSketch(t *testing.T) {
	g := queryTestGraph(2000)
	sk, err := BuildSketch(context.Background(), g, SketchOptions{Epsilon: 0.3, Seed: 5, BuildK: 25})
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Epsilon: 0.3, Seed: 5, Sketch: sk}

	start := time.Now()
	ans, err := Run(context.Background(), g, Query{Algorithm: AlgIMM, Ks: []int{5, 10, 25}, Options: opts})
	batch := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if !ans.Plan.SketchOnly() {
		t.Fatalf("batch with matching sketch not sketch-only: %v", ans.Plan.Explain())
	}
	assertPrefixes(t, ans.Members)

	cold := Options{Epsilon: 0.3, Seed: 5}
	start = time.Now()
	for _, k := range []int{5, 10, 25} {
		if _, err := SelectSeeds(g, k, AlgIMM, cold); err != nil {
			t.Fatal(err)
		}
	}
	coldTotal := time.Since(start)
	t.Logf("sketch batch: %v, three cold IMM selects: %v", batch, coldTotal)
	if batch >= coldTotal {
		t.Fatalf("batch over a shared sketch (%v) not cheaper than three cold selects (%v)", batch, coldTotal)
	}
}

// TestRunBatchColdRIS: without a sketch, a RIS batch shares one selector
// run at max(Ks) (the plan says so) and keeps the prefix invariant.
func TestRunBatchColdRIS(t *testing.T) {
	g := queryTestGraph(400)
	ans, err := Run(context.Background(), g, Query{
		Algorithm: AlgTIMPlus, Ks: []int{4, 8}, Options: Options{Epsilon: 0.3},
	})
	if err != nil {
		t.Fatal(err)
	}
	st := ans.Plan.Steps[0]
	if st.Backend != BackendRIS || st.Shared == "" {
		t.Fatalf("cold RIS batch plan: %+v", st)
	}
	assertPrefixes(t, ans.Members)
}

// TestRunEstimateBatch: estimate members align with the requested seed
// sets, share one model, and match the single-set entrypoints exactly
// (the estimator is deterministic per seed).
func TestRunEstimateBatch(t *testing.T) {
	g := queryTestGraph(400)
	sets := [][]NodeID{{0, 1}, {2, 3, 4}, {5}}
	opts := Options{MCRuns: 100, Seed: 4}
	ans, err := Run(context.Background(), g, Query{Task: TaskEstimate, SeedSets: sets, Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Members) != 3 {
		t.Fatalf("got %d members", len(ans.Members))
	}
	if st := ans.Plan.Steps[0]; st.Backend != BackendMC || st.Shared == "" {
		t.Fatalf("estimate batch plan: %+v", st)
	}
	for i, set := range sets {
		m := ans.Members[i]
		if m.Estimate == nil || len(m.Seeds) != len(set) {
			t.Fatalf("member %d: %+v", i, m)
		}
		single, err := EstimateSpreadContext(context.Background(), g, set, opts)
		if err != nil {
			t.Fatal(err)
		}
		if m.Estimate.Spread != single.Spread || m.Estimate.Runs != single.Runs {
			t.Fatalf("member %d estimate %+v != single-set estimate %+v", i, m.Estimate, single)
		}
	}
}

// TestRunOnMember: per-member completion streams through OnMember in
// request order with the member's payload attached.
func TestRunOnMember(t *testing.T) {
	g := queryTestGraph(300)
	var got []int
	ans, err := Run(context.Background(), g, Query{
		Algorithm: AlgDegreeDiscount, Ks: []int{3, 6},
		OnMember: func(member int, m Member) {
			got = append(got, member)
			if m.Result == nil {
				t.Errorf("member %d callback without result", member)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Members) != 2 || len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("OnMember order %v", got)
	}
}

// TestQueryFingerprintHygiene: batch/Query fields that cannot affect a
// completed result — progress sinks, member callbacks, deadlines,
// workers and the attached sketch — are excluded from Fingerprint, while
// every result-bearing field separates keys.
func TestQueryFingerprintHygiene(t *testing.T) {
	base := Query{Algorithm: AlgIMM, Ks: []int{5, 10}, Options: Options{Epsilon: 0.3, Seed: 5}}
	noisy := base
	noisy.Options.Workers = 8
	noisy.Options.Deadline = time.Second
	noisy.Options.Progress = func(int, NodeID, time.Duration) {}
	noisy.Options.Sketch = &Sketch{}
	noisy.OnMember = func(int, Member) {}
	if base.Fingerprint() != noisy.Fingerprint() {
		t.Fatalf("lifecycle fields leaked into the fingerprint:\n%q\n%q",
			base.Fingerprint(), noisy.Fingerprint())
	}

	// K and a one-element Ks are the same query: the v1 translation
	// (K) and a v2 client spelling ks:[k] must share cache entries.
	single := Query{Algorithm: AlgEaSyIM, K: 10, Options: Options{Seed: 7}}
	batchOfOne := Query{Task: TaskSelect, Algorithm: AlgEaSyIM, Ks: []int{10}, Options: Options{Seed: 7}}
	if got, want := single.Fingerprint(), batchOfOne.Fingerprint(); got != want {
		t.Fatalf("single-k query fingerprint %q != one-element batch fingerprint %q", got, want)
	}

	variants := []Query{
		{Algorithm: AlgIMM, Ks: []int{5, 10}, Options: Options{Epsilon: 0.3, Seed: 6}},
		{Algorithm: AlgIMM, Ks: []int{5, 11}, Options: Options{Epsilon: 0.3, Seed: 5}},
		{Algorithm: AlgIMM, Ks: []int{5}, Options: Options{Epsilon: 0.3, Seed: 5}},
		{Algorithm: AlgTIMPlus, Ks: []int{5, 10}, Options: Options{Epsilon: 0.3, Seed: 5}},
		{Task: TaskEstimate, SeedSets: [][]NodeID{{1, 2}}, Options: Options{Seed: 5}},
		{Task: TaskEstimate, SeedSets: [][]NodeID{{1, 3}}, Options: Options{Seed: 5}},
		{Task: TaskEstimate, Objective: ObjectiveOpinion, SeedSets: [][]NodeID{{1, 2}}, Options: Options{Seed: 5}},
		{Task: TaskEstimate, SeedSets: [][]NodeID{{1, 2}}, Options: Options{Seed: 5, Lambda: 2}},
	}
	seen := map[string]int{base.Fingerprint(): -1}
	for i, v := range variants {
		fp := v.Fingerprint()
		if prev, dup := seen[fp]; dup {
			t.Fatalf("variant %d collides with %d: %q", i, prev, fp)
		}
		seen[fp] = i
	}
}

// TestPlanExplain: the planner names a backend and a reason for every
// member, and routes each algorithm family where it belongs.
func TestPlanExplain(t *testing.T) {
	g := queryTestGraph(300)
	sk, err := BuildSketch(context.Background(), g, SketchOptions{Epsilon: 0.3, Seed: 5, BuildK: 10})
	if err != nil {
		t.Fatal(err)
	}

	plan, err := PlanQuery(g, Query{Algorithm: AlgIMM, K: 5, Options: Options{Epsilon: 0.3, Seed: 5, Sketch: sk}})
	if err != nil {
		t.Fatal(err)
	}
	if !plan.SketchOnly() {
		t.Fatalf("matching sketch not planned: %v", plan.Explain())
	}
	// A θ cap opts out of the sketch.
	plan, err = PlanQuery(g, Query{Algorithm: AlgIMM, K: 5, Options: Options{Epsilon: 0.3, Seed: 5, Sketch: sk, TIMThetaCap: 100}})
	if err != nil {
		t.Fatal(err)
	}
	if plan.SketchOnly() || plan.Steps[0].Backend != BackendRIS {
		t.Fatalf("θ-capped plan: %v", plan.Explain())
	}

	for _, ex := range plan.Explain() {
		if ex == "" {
			t.Fatal("empty explain line")
		}
	}

	// A sketch left behind by a mutation is never silently served: the
	// planner re-routes to the cold backend and says why.
	lv := WrapLive(g, LiveOptions{})
	res, err := lv.Apply(context.Background(), []EdgeOp{{Op: OpRemoveEdge, From: 0, To: g.OutNeighbors(0)[0]}}, ApplyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	newG := lv.Graph()
	plan, err = PlanQuery(newG, Query{Algorithm: AlgIMM, K: 5, Options: Options{Epsilon: 0.3, Seed: 5, Sketch: sk}})
	if err != nil {
		t.Fatal(err)
	}
	if plan.SketchOnly() || plan.Steps[0].Backend != BackendRIS {
		t.Fatalf("stale sketch still planned: %v", plan.Explain())
	}
	stale := false
	for _, ex := range plan.Explain() {
		if strings.Contains(ex, "awaiting repair") {
			stale = true
		}
	}
	if !stale {
		t.Fatalf("stale-sketch plan does not say why: %v", plan.Explain())
	}
	// After repair the sketch matches the new snapshot and serves again.
	if _, err := sk.Repair(context.Background(), newG, res.Dirty, res.Version, SketchRepairOptions{}); err != nil {
		t.Fatal(err)
	}
	plan, err = PlanQuery(newG, Query{Algorithm: AlgIMM, K: 5, Options: Options{Epsilon: 0.3, Seed: 5, Sketch: sk}})
	if err != nil {
		t.Fatal(err)
	}
	if !plan.SketchOnly() {
		t.Fatalf("repaired sketch not planned: %v", plan.Explain())
	}

	// Validation errors surface from the planner.
	for _, alg := range []Algorithm{"quantum", "static-greedy", "pagerank", "degree"} {
		if _, err := PlanQuery(g, Query{Algorithm: alg, K: 5}); err == nil || !strings.Contains(err.Error(), "unknown algorithm") {
			t.Fatalf("algorithm %q: err %v, want unknown algorithm", alg, err)
		}
	}
	if _, err := PlanQuery(g, Query{Algorithm: AlgDegreeDiscount, K: 0}); err == nil {
		t.Fatal("zero k not rejected")
	}
	if _, err := PlanQuery(g, Query{Algorithm: AlgDegreeDiscount, Ks: []int{2, 9000}}); err == nil {
		t.Fatal("oversized batch member not rejected")
	}
	if _, err := PlanQuery(g, Query{Task: TaskEstimate}); err == nil {
		t.Fatal("estimate without seed sets not rejected")
	}
	if _, err := PlanQuery(g, Query{Task: "transmogrify", K: 1, Algorithm: AlgDegreeDiscount}); err == nil {
		t.Fatal("unknown task not rejected")
	}
	if _, err := PlanQuery(nil, Query{Algorithm: AlgDegreeDiscount, K: 1}); err == nil {
		t.Fatal("nil graph not rejected")
	}
	// ε outside (0,1] and a negative or NaN λ are refused for every task,
	// not defaulted or handed to a selector; zero still means the default.
	for _, o := range []Options{{Epsilon: -0.5}, {Epsilon: 5}, {Epsilon: math.NaN()}, {Lambda: -1}, {Lambda: math.NaN()}} {
		for _, q := range []Query{{Algorithm: AlgOSIM, K: 5, Options: o}, {SeedSets: [][]NodeID{{1}}, Options: o}} {
			if _, err := PlanQuery(g, q); err == nil {
				t.Errorf("%d seed sets: ε=%v λ=%v not rejected", len(q.SeedSets), o.Epsilon, o.Lambda)
			}
		}
	}
	if _, err := PlanQuery(g, Query{Algorithm: AlgIMM, K: 5, Options: Options{Epsilon: 1, Lambda: 0}}); err != nil {
		t.Fatalf("ε=1, λ=0: %v", err)
	}
}

// TestRunSelectMatchesEntrypoint: a batch member at max(Ks) is the single
// query for that k — same seeds, same algorithm — for every algorithm, and
// for TIM+/IMM under each RR semantics: a cold batch runs the algorithm it
// names once, at max(Ks).
func TestRunSelectMatchesEntrypoint(t *testing.T) {
	g := queryTestGraph(2000)
	g.SetUniformProb(0.05)
	type row struct {
		alg   Algorithm
		model ModelKind
	}
	var rows []row
	for _, alg := range []Algorithm{AlgTIMPlus, AlgIMM} {
		for _, model := range []ModelKind{ModelIC, ModelLT, ModelOC} {
			rows = append(rows, row{alg, model})
		}
	}
	for _, alg := range []Algorithm{AlgGreedy, AlgCELFPP, AlgModifiedGreedy, AlgEaSyIM, AlgOSIM, AlgIRIE, AlgSIMPATH, AlgDegreeDiscount} {
		rows = append(rows, row{alg, ""})
	}
	for _, tc := range rows {
		opts := Options{Model: tc.model, Epsilon: 0.3, Seed: 5, MCRuns: 10}
		direct, err := SelectSeeds(g, 10, tc.alg, opts)
		if err != nil {
			t.Fatal(err)
		}
		ans, err := Run(context.Background(), g, Query{Algorithm: tc.alg, Ks: []int{5, 10}, Options: opts})
		if err != nil {
			t.Fatal(err)
		}
		assertPrefixes(t, ans.Members)
		got := ans.Members[1].Result
		if fmt.Sprint(got.Seeds) != fmt.Sprint(direct.Seeds) || got.Algorithm != direct.Algorithm {
			t.Errorf("%s/%s: batch member k=10 is %s %v, the k=10 query %s %v",
				tc.alg, tc.model, got.Algorithm, got.Seeds, direct.Algorithm, direct.Seeds)
		}
	}
}

// TestSketchBackendIffSketchAnswered: the planner is the only place an
// attached sketch is matched, so what the returned Plan reports is what
// ran — a single-budget TIM+/IMM answer comes from the index ("RR-sketch")
// exactly when its plan step says BackendSketch, for one budget and for a
// batch alike.
func TestSketchBackendIffSketchAnswered(t *testing.T) {
	ctx := context.Background()
	g := queryTestGraph(400)
	sk, err := BuildSketch(ctx, g, SketchOptions{Epsilon: 0.3, Seed: 5, BuildK: 10})
	if err != nil {
		t.Fatal(err)
	}
	mutated := queryTestGraph(400)
	mutated.SetUniformProb(0.2)
	for _, tc := range []struct {
		name   string
		g      *Graph
		opts   Options
		sketch bool
	}{
		{"matching sketch", g, Options{Epsilon: 0.3, Seed: 5, Sketch: sk}, true},
		{"same content, other instance", queryTestGraph(400), Options{Epsilon: 0.3, Seed: 5, Sketch: sk}, true},
		{"no sketch", g, Options{Epsilon: 0.3, Seed: 5}, false},
		{"theta cap opts out", g, Options{Epsilon: 0.3, Seed: 5, Sketch: sk, TIMThetaCap: 400}, false},
		{"stale sketch: graph content moved on", mutated, Options{Epsilon: 0.3, Seed: 5, Sketch: sk}, false},
		{"other RR semantics", g, Options{Model: ModelLT, Epsilon: 0.3, Seed: 5, Sketch: sk}, false},
	} {
		for _, alg := range []Algorithm{AlgIMM, AlgTIMPlus} {
			for _, ks := range [][]int{{5}, {3, 5}} {
				ans, err := Run(ctx, tc.g, Query{Algorithm: alg, Ks: ks, Options: tc.opts})
				if err != nil {
					t.Fatalf("%s/%s/ks=%v: %v", tc.name, alg, ks, err)
				}
				for i, step := range ans.Plan.Steps {
					planned := step.Backend == BackendSketch
					answered := ans.Members[i].Result.Algorithm == "RR-sketch"
					if planned != tc.sketch || answered != planned {
						t.Fatalf("%s/%s/ks=%v member %d: plan backend %q, answered by %q, want sketch-served = %v",
							tc.name, alg, ks, i, step.Backend, ans.Members[i].Result.Algorithm, tc.sketch)
					}
				}
			}
		}
	}
}

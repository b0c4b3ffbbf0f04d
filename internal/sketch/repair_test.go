package sketch

import (
	"context"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/holisticim/holisticim/internal/graph"
	"github.com/holisticim/holisticim/internal/live"
	"github.com/holisticim/holisticim/internal/opinion"
	"github.com/holisticim/holisticim/internal/ris"
	"github.com/holisticim/holisticim/internal/rng"
)

// churnBatch builds a deterministic mutation batch against g: removes
// and reweights spread over existing arcs (at most one per source node,
// so the dirt is scattered), adds over absent arcs scanned from the top
// node down.
func churnBatch(g *graph.Graph, removes, adds, reweights int) []live.EdgeOp {
	var ops []live.EdgeOp
	n := g.NumNodes()
	taken := make(map[[2]int32]bool)
outer:
	for u := int32(0); u < n; u++ {
		for _, v := range g.OutNeighbors(u) {
			key := [2]int32{u, v}
			if taken[key] {
				continue
			}
			switch {
			case removes > 0:
				ops = append(ops, live.EdgeOp{Op: live.OpRemove, From: u, To: v})
				removes--
			case reweights > 0:
				p := 0.5
				ops = append(ops, live.EdgeOp{Op: live.OpReweight, From: u, To: v, P: &p})
				reweights--
			default:
				break outer
			}
			taken[key] = true
			break // one op per source, spreads the dirty set
		}
	}
	p, w := 0.2, 0.05
	for u := n - 1; u >= 0 && adds > 0; u-- {
		for v := int32(0); v < n; v++ {
			if u == v || g.HasEdge(u, v) || taken[[2]int32{u, v}] {
				continue
			}
			taken[[2]int32{u, v}] = true
			ops = append(ops, live.EdgeOp{Op: live.OpAdd, From: u, To: v, P: &p, Phi: &p, W: &w})
			adds--
			break
		}
	}
	return ops
}

// leafChurnBatch mutates arcs whose targets sit in the low-degree tail
// (high BA node ids) — realistic stream churn touches peripheral nodes,
// while churnBatch above lands on densely-embedded hubs (a harder
// stress, used by the correctness tests).
func leafChurnBatch(g *graph.Graph, removes, adds, reweights int) []live.EdgeOp {
	var ops []live.EdgeOp
	n := g.NumNodes()
	taken := make(map[[2]int32]bool)
	for u := n - 1; u >= n/2 && removes+reweights > 0; u-- {
		nbrs := g.OutNeighbors(u)
		if len(nbrs) == 0 {
			continue
		}
		// The BA generator expands undirected edges to both arcs, so
		// nbrs[i] -> u exists; its target u is a low-degree node.
		if removes > 0 && g.HasEdge(nbrs[0], u) && !taken[[2]int32{nbrs[0], u}] {
			ops = append(ops, live.EdgeOp{Op: live.OpRemove, From: nbrs[0], To: u})
			taken[[2]int32{nbrs[0], u}] = true
			removes--
			continue
		}
		if reweights > 0 && len(nbrs) > 1 && g.HasEdge(nbrs[1], u) && !taken[[2]int32{nbrs[1], u}] {
			p := 0.5
			ops = append(ops, live.EdgeOp{Op: live.OpReweight, From: nbrs[1], To: u, P: &p})
			taken[[2]int32{nbrs[1], u}] = true
			reweights--
		}
	}
	p, w := 0.2, 0.05
	for u := n - 1; u >= n/2 && adds > 0; u -= 2 {
		v := u - 1
		if g.HasEdge(u, v) || taken[[2]int32{u, v}] {
			continue
		}
		taken[[2]int32{u, v}] = true
		ops = append(ops, live.EdgeOp{Op: live.OpAdd, From: u, To: v, P: &p, Phi: &p, W: &w})
		adds--
	}
	return ops
}

// randomChurn draws a batch of ops adds (4 in 10), removes (3) and
// reweights (3) over uniformly random arcs of g, each arc touched once:
// the mix the repo benchmark's serve-churn sends.
func randomChurn(g *graph.Graph, r *rng.RNG, ops int) []live.EdgeOp {
	n := g.NumNodes()
	taken := map[[2]int32]bool{}
	batch := make([]live.EdgeOp, 0, ops)
	for len(batch) < ops {
		u, v := r.Int31n(n), r.Int31n(n)
		kind := r.Intn(10)
		if kind >= 4 { // an existing arc out of u
			nbrs := g.OutNeighbors(u)
			if len(nbrs) == 0 {
				continue
			}
			v = nbrs[r.Intn(len(nbrs))]
		}
		if u == v || taken[[2]int32{u, v}] || (kind < 4 && g.HasEdge(u, v)) {
			continue
		}
		taken[[2]int32{u, v}] = true
		p, phi, w := r.Range(0.01, 0.3), r.Float64(), r.Range(0, 0.2)
		switch {
		case kind < 4:
			batch = append(batch, live.EdgeOp{Op: live.OpAdd, From: u, To: v, P: &p, Phi: &phi, W: &w})
		case kind < 7:
			batch = append(batch, live.EdgeOp{Op: live.OpRemove, From: u, To: v})
		default:
			batch = append(batch, live.EdgeOp{Op: live.OpReweight, From: u, To: v, P: &p, W: &w})
		}
	}
	return batch
}

// requireSameCollections asserts a repaired collection is structurally
// identical to a from-scratch build: sets, inverted index rows, widths
// and (when weighted) per-set weights.
func requireSameCollections(t *testing.T, got, want *ris.Collection, n int32, weighted bool) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("repaired collection has %d sets, from-scratch %d", got.Len(), want.Len())
	}
	gs, ws := got.Sets(), want.Sets()
	for i := range gs {
		if len(gs[i]) != len(ws[i]) {
			t.Fatalf("set %d: repaired len %d, from-scratch %d", i, len(gs[i]), len(ws[i]))
		}
		for j := range gs[i] {
			if gs[i][j] != ws[i][j] {
				t.Fatalf("set %d differs at position %d: repaired %d, from-scratch %d", i, j, gs[i][j], ws[i][j])
			}
		}
	}
	for v := int32(0); v < n; v++ {
		gr, wr := got.SetsContaining(v), want.SetsContaining(v)
		if len(gr) != len(wr) {
			t.Fatalf("inverted row %d: repaired %d entries, from-scratch %d", v, len(gr), len(wr))
		}
		for i := range gr {
			if gr[i] != wr[i] {
				t.Fatalf("inverted row %d differs at %d: %d vs %d", v, i, gr[i], wr[i])
			}
		}
	}
	if got.Width() != want.Width() {
		t.Fatalf("repaired width %d, from-scratch %d", got.Width(), want.Width())
	}
	if weighted {
		gw, ww := got.Weights(), want.Weights()
		for i := range gw {
			if gw[i] != ww[i] {
				t.Fatalf("weight %d: repaired %v, from-scratch %v", i, gw[i], ww[i])
			}
		}
	}
}

// refIndex hand-builds an index over a from-scratch collection with the
// same frozen params, for answer-equality checks against a repaired one.
func refIndex(t *testing.T, g *graph.Graph, p Params, count int) *Index {
	t.Helper()
	col := ris.NewCollection(g, p.Kind)
	if err := col.GenerateParallelCtx(context.Background(), count, p.Seed, 4); err != nil {
		t.Fatal(err)
	}
	return &Index{g: g, params: p, col: col}
}

// Tentpole equivalence: after a mutation batch, incremental Repair must
// yield a collection byte-identical to generating the same number of
// sets from scratch — same seed, same split streams — against the new
// snapshot, for all three RR semantics. Selections from the repaired
// index must match the from-scratch index seed-for-seed.
func TestRepairMatchesFromScratch(t *testing.T) {
	ctx := context.Background()
	for _, kind := range []ris.ModelKind{ris.ModelIC, ris.ModelLT, ris.ModelOC} {
		t.Run(kind.String(), func(t *testing.T) {
			var g *graph.Graph
			if kind == ris.ModelOC {
				g = ocTestGraph(t, 1500, opinion.Normal)
			} else {
				g = testGraph(t, 1500)
			}
			p := Params{Kind: kind, Epsilon: 0.3, Seed: 11, BuildK: 10, Workers: 4}
			x := mustBuild(t, g, p)
			// Freeze the sample: Repair preserves the count, and the
			// reference below must generate exactly that many sets.
			x.params.MaxSets = x.col.Len()

			lv := live.Wrap(g, live.Options{})
			res, err := lv.Apply(ctx, churnBatch(g, 6, 6, 6), live.ApplyOptions{})
			if err != nil {
				t.Fatal(err)
			}
			newG := lv.Graph()

			st, err := x.Repair(ctx, newG, res.Dirty, res.Version, RepairOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if st.Version != res.Version || x.GraphVersion() != res.Version {
				t.Fatalf("repair stamped version %d/%d, want %d", st.Version, x.GraphVersion(), res.Version)
			}
			if st.Resampled == 0 {
				t.Fatal("repair resampled nothing: the batch's dirty nodes should sit in some set")
			}
			if !x.Matches(newG, kind) {
				t.Fatal("repaired index does not match the new snapshot")
			}

			y := refIndex(t, newG, x.params, x.col.Len())
			requireSameCollections(t, x.col, y.col, newG.NumNodes(), kind.Weighted())

			rx, err := x.Select(ctx, 10)
			if err != nil {
				t.Fatal(err)
			}
			ry, err := y.Select(ctx, 10)
			if err != nil {
				t.Fatal(err)
			}
			for i := range rx.Seeds {
				if rx.Seeds[i] != ry.Seeds[i] {
					t.Fatalf("seed %d differs: repaired %d, from-scratch %d", i, rx.Seeds[i], ry.Seeds[i])
				}
			}
		})
	}
}

// Coalescing: repairing once with the union of several batches' dirty
// sets against the latest snapshot must equal repairing batch by batch.
func TestRepairCoalescesBatches(t *testing.T) {
	ctx := context.Background()
	g := testGraph(t, 1200)
	p := Params{Epsilon: 0.3, Seed: 7, BuildK: 10, Workers: 2}

	xStep := mustBuild(t, g, p)
	xStep.params.MaxSets = xStep.col.Len()
	xOnce := mustBuild(t, g, p)
	xOnce.params.MaxSets = xOnce.col.Len()

	lv := live.Wrap(g, live.Options{})
	var union []graph.NodeID
	seen := make(map[graph.NodeID]struct{})
	var last *graph.Graph
	var lastVer uint64
	for i := 0; i < 3; i++ {
		res, err := lv.Apply(ctx, churnBatch(lv.Graph(), 3, 3, 3), live.ApplyOptions{})
		if err != nil {
			t.Fatal(err)
		}
		last, lastVer = lv.Graph(), res.Version
		if _, err := xStep.Repair(ctx, last, res.Dirty, res.Version, RepairOptions{}); err != nil {
			t.Fatal(err)
		}
		for _, d := range res.Dirty {
			if _, ok := seen[d]; !ok {
				seen[d] = struct{}{}
				union = append(union, d)
			}
		}
	}
	if _, err := xOnce.Repair(ctx, last, union, lastVer, RepairOptions{}); err != nil {
		t.Fatal(err)
	}
	requireSameCollections(t, xOnce.col, xStep.col, last.NumNodes(), false)
}

// A lineage, not one batch: over nine random batches — some with the LT
// rebalance, so whole in-rows change weight — an index repaired after
// every batch and one repaired once per two or three batches (their dirty
// sets united) must both end equal to Build on the final graph under the
// same MaxSets: the sample array for array, the seeds selected from it,
// and the graph fingerprint they advertise. The resample buffers, the
// skipped (node, set) pairs of ReplaceSets and the derived snapshots of
// Apply all sit on this path.
func TestRepairSequenceEqualsFreshBuild(t *testing.T) {
	ctx := context.Background()
	for _, kind := range []ris.ModelKind{ris.ModelIC, ris.ModelLT, ris.ModelOC} {
		t.Run(kind.String(), func(t *testing.T) {
			g := ocTestGraph(t, 1500, opinion.Normal)
			// The cap sits below the natural θ, so all three indexes hold
			// exactly the first 4000 sets of the stream. Two workers and
			// hundreds of candidates per repair: the parallel resample runs.
			p := Params{Kind: kind, Epsilon: 0.3, Seed: 13, BuildK: 10, Workers: 2, MaxSets: 4000}
			perBatch, coalesced := mustBuild(t, g, p), mustBuild(t, g, p)
			if perBatch.Len() != p.MaxSets {
				t.Fatalf("build stopped at %d sets, below the %d cap", perBatch.Len(), p.MaxSets)
			}

			r := rng.New(uint64(kind) + 41)
			lv := live.Wrap(g, live.Options{})
			var pending []graph.NodeID
			held := 0
			for batch := 0; batch < 9; batch++ {
				res, err := lv.Apply(ctx, randomChurn(lv.Graph(), r, 4+r.Intn(12)), live.ApplyOptions{RebalanceLT: batch%3 == 1})
				if err != nil {
					t.Fatal(err)
				}
				st, err := perBatch.Repair(ctx, lv.Graph(), res.Dirty, res.Version, RepairOptions{})
				if err != nil {
					t.Fatal(err)
				}
				if st.Resampled == 0 {
					t.Fatalf("batch %d: nothing resampled", batch)
				}
				pending = append(pending, res.Dirty...)
				if held++; held == 2+batch%2 || batch == 8 {
					if _, err := coalesced.Repair(ctx, lv.Graph(), pending, res.Version, RepairOptions{}); err != nil {
						t.Fatal(err)
					}
					pending, held = pending[:0], 0
				}
			}

			final := lv.Graph()
			fresh := mustBuild(t, final, p)
			want, err := fresh.Select(ctx, 10)
			if err != nil {
				t.Fatal(err)
			}
			for name, x := range map[string]*Index{"repaired per batch": perBatch, "coalesced": coalesced} {
				if x.GraphVersion() != 9 || !x.Matches(final, kind) {
					t.Fatalf("%s: at version %d, matches the final snapshot: %v", name, x.GraphVersion(), x.Matches(final, kind))
				}
				requireSameCollections(t, x.col, fresh.col, final.NumNodes(), kind.Weighted())
				got, err := x.Select(ctx, 10)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(got.Seeds, want.Seeds) {
					t.Fatalf("%s: seeds %v, a fresh build selects %v", name, got.Seeds, want.Seeds)
				}
				if x.GraphFingerprint() != fresh.GraphFingerprint() || x.GraphFingerprint() != final.Fingerprint() {
					t.Fatalf("%s: advertises graph %016x, the final snapshot is %016x", name, x.GraphFingerprint(), final.Fingerprint())
				}
			}
		})
	}
}

// Determinism: repairing with 8 workers must equal repairing with 1.
func TestRepairWorkerDeterminism(t *testing.T) {
	ctx := context.Background()
	g := testGraph(t, 1500)
	p := Params{Kind: ris.ModelLT, Epsilon: 0.3, Seed: 5, BuildK: 10}
	x1 := mustBuild(t, g, p)
	x1.params.MaxSets = x1.col.Len()
	x8 := mustBuild(t, g, p)
	x8.params.MaxSets = x8.col.Len()

	lv := live.Wrap(g, live.Options{})
	res, err := lv.Apply(ctx, churnBatch(g, 8, 8, 8), live.ApplyOptions{RebalanceLT: true})
	if err != nil {
		t.Fatal(err)
	}
	newG := lv.Graph()
	if _, err := x1.Repair(ctx, newG, res.Dirty, res.Version, RepairOptions{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := x8.Repair(ctx, newG, res.Dirty, res.Version, RepairOptions{Workers: 8}); err != nil {
		t.Fatal(err)
	}
	requireSameCollections(t, x8.col, x1.col, newG.NumNodes(), false)
}

// A phi-only reweight cannot change any RR set (ϕ is not read by the
// samplers), so Repair must keep the memoized greedy order intact.
func TestRepairPhiOnlyKeepsOrder(t *testing.T) {
	ctx := context.Background()
	g := testGraph(t, 800)
	x := mustBuild(t, g, Params{Epsilon: 0.3, Seed: 3, BuildK: 10})
	x.params.MaxSets = x.col.Len()
	before, err := x.Select(ctx, 10)
	if err != nil {
		t.Fatal(err)
	}
	if x.col.GreedyLen() != 10 {
		t.Fatalf("Select(10) left %d seeds memoized", x.col.GreedyLen())
	}

	var u, v graph.NodeID = -1, -1
	for uu := graph.NodeID(0); uu < g.NumNodes() && u < 0; uu++ {
		if nbrs := g.OutNeighbors(uu); len(nbrs) > 0 {
			u, v = uu, nbrs[0]
		}
	}
	phi := 0.9
	lv := live.Wrap(g, live.Options{})
	res, err := lv.Apply(ctx, []live.EdgeOp{{Op: live.OpReweight, From: u, To: v, Phi: &phi}}, live.ApplyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	st, err := x.Repair(ctx, lv.Graph(), res.Dirty, res.Version, RepairOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Changed != 0 {
		t.Fatalf("phi-only reweight changed %d sets", st.Changed)
	}
	if x.col.GreedyLen() != 10 {
		t.Fatalf("memoized order shrank from 10 to %d", x.col.GreedyLen())
	}
	after, err := x.Select(ctx, 10)
	if err != nil {
		t.Fatal(err)
	}
	for i := range before.Seeds {
		if before.Seeds[i] != after.Seeds[i] {
			t.Fatalf("selection changed at seed %d after a no-op repair", i)
		}
	}
	if !x.Matches(lv.Graph(), ris.ModelIC) {
		t.Fatal("index does not match the new snapshot")
	}
}

// Repair must refuse a snapshot with a different node count — the root
// draw depends on n, so the sample cannot be preserved.
func TestRepairNodeCountChange(t *testing.T) {
	g := testGraph(t, 500)
	x := mustBuild(t, g, Params{Epsilon: 0.4, Seed: 2, BuildK: 5})
	g2 := testGraph(t, 501)
	if _, err := x.Repair(context.Background(), g2, nil, 1, RepairOptions{}); err == nil {
		t.Fatal("repair accepted a snapshot with a different node count")
	}
	if _, err := x.Repair(context.Background(), nil, nil, 1, RepairOptions{}); err == nil {
		t.Fatal("repair accepted a nil snapshot")
	}
}

// Race suite: concurrent Select/SelectPrefixes against a stream of
// Apply+Repair batches. Run under -race in CI; asserts nothing beyond
// "no crash, no data race, selections keep answering".
func TestRepairConcurrentSelect(t *testing.T) {
	ctx := context.Background()
	g := testGraph(t, 1000)
	x := mustBuild(t, g, Params{Epsilon: 0.4, Seed: 17, BuildK: 10})
	x.params.MaxSets = x.col.Len()

	lv := live.Wrap(g, live.Options{})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if w == 0 {
					if _, err := x.SelectPrefixes(ctx, []int{2, 5, 8}); err != nil {
						t.Error(err)
						return
					}
				} else {
					if _, err := x.Select(ctx, 5+w); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	for i := 0; i < 8; i++ {
		res, err := lv.Apply(ctx, churnBatch(lv.Graph(), 2, 2, 2), live.ApplyOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := x.Repair(ctx, lv.Graph(), res.Dirty, res.Version, RepairOptions{Workers: 2}); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if got, want := x.GraphVersion(), lv.Version(); got != want {
		t.Fatalf("index at version %d, log at %d", got, want)
	}
}

// Acceptance: on the 50k-node BA benchmark graph, after a small edge
// batch (well under 1% of arcs dirty), incremental Repair must be ≥ 5×
// faster than regenerating the same number of sets from scratch — and
// byte-identical to it. Modeled on TestSketchSpeedupVsColdIMM.
//
// The model is LT: its RR sets are reverse live-edge walks, so a dirty
// node pulls in only the few walks that stepped through it and the
// candidate mass stays proportional to the batch. Under IC at p = 0.1
// this graph percolates: ~8% of the sets are giant reverse-reachable
// clusters that contain ANY realistic dirty set with probability ≈ 1,
// so repair must resample them all — still byte-correct, and still
// cheaper than a rebuild, but bounded by the size-biased candidate mass
// rather than the batch.
func TestRepairSpeedupVsRebuild(t *testing.T) {
	if testing.Short() {
		t.Skip("50k-node speedup acceptance test")
	}
	ctx := context.Background()
	g := graph.BarabasiAlbert(50000, 3, rng.New(1))
	g.SetUniformProb(0.1)
	g.SetDefaultLTWeights()
	p := Params{Kind: ris.ModelLT, Epsilon: 0.25, Seed: 9, BuildK: 50}
	x := mustBuild(t, g, p)
	x.params.MaxSets = x.col.Len()

	lv := live.Wrap(g, live.Options{})
	batch := leafChurnBatch(g, 40, 40, 40)
	if len(batch) < 100 {
		t.Fatalf("leaf batch built only %d ops", len(batch))
	}
	res, err := lv.Apply(ctx, batch, live.ApplyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	newG := lv.Graph()
	if frac := float64(len(batch)) / float64(g.NumEdges()); frac > 0.01 {
		t.Fatalf("batch mutated %.2f%% of arcs; the acceptance bound assumes <=1%%", 100*frac)
	}

	// Both sides start from a collected heap: a cycle landing inside the
	// 7 ms repair (90 ms under -race) otherwise decides the ratio.
	runtime.GC()
	start := time.Now()
	st, err := x.Repair(ctx, newG, res.Dirty, res.Version, RepairOptions{})
	if err != nil {
		t.Fatal(err)
	}
	repair := time.Since(start)

	runtime.GC()
	start = time.Now()
	ref := ris.NewCollection(newG, p.Kind)
	if err := ref.GenerateParallelCtx(ctx, x.col.Len(), x.params.Seed, x.params.Workers); err != nil {
		t.Fatal(err)
	}
	rebuild := time.Since(start)

	requireSameCollections(t, x.col, ref, newG.NumNodes(), false)
	t.Logf("repair: %v (%d/%d sets resampled), rebuild: %v (%d sets)",
		repair, st.Resampled, x.col.Len(), rebuild, ref.Len())
	if repair*5 > rebuild {
		t.Fatalf("repair %v not >=5x faster than rebuild %v", repair, rebuild)
	}
}

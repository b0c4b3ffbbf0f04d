package live_test

import (
	"context"
	"math"
	"strings"
	"testing"

	"github.com/holisticim/holisticim/internal/graph"
	"github.com/holisticim/holisticim/internal/live"
	"github.com/holisticim/holisticim/internal/ris"
	"github.com/holisticim/holisticim/internal/rng"
	"github.com/holisticim/holisticim/internal/sketch"
)

func fp(v float64) *float64 { return &v }

// smallGraph builds 0→1→2→3 plus 0→2, all p=0.3 phi=0.4 w=0.5.
func smallGraph(t *testing.T) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(4)
	b.AddEdgeFull(0, 1, 0.3, 0.4, 0.5)
	b.AddEdgeFull(1, 2, 0.3, 0.4, 0.5)
	b.AddEdgeFull(2, 3, 0.3, 0.4, 0.5)
	b.AddEdgeFull(0, 2, 0.3, 0.4, 0.5)
	return b.Build()
}

// arcParams returns (p, phi, w) of arc u→v, failing if absent.
func arcParams(t *testing.T, g *graph.Graph, u, v graph.NodeID) (float64, float64, float64) {
	t.Helper()
	for i, nb := range g.OutNeighbors(u) {
		if nb == v {
			e := g.OutEdgeBase(u) + int64(i)
			return g.ProbAt(e), g.PhiAt(e), g.WeightAt(e)
		}
	}
	t.Fatalf("arc (%d,%d) absent", u, v)
	return 0, 0, 0
}

func TestApplySemantics(t *testing.T) {
	ctx := context.Background()
	g0 := smallGraph(t)
	g0.SetOpinions([]float64{0.1, -0.2, 0.3, -0.4})
	lv := live.Wrap(g0, live.Options{})

	res, err := lv.Apply(ctx, []live.EdgeOp{
		{Op: live.OpAdd, From: 3, To: 0, P: fp(0.9), Phi: fp(0.8), W: fp(0.7)},
		{Op: live.OpRemove, From: 0, To: 2},
		{Op: live.OpReweight, From: 0, To: 1, P: fp(0.6)},
	}, live.ApplyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Version != 1 || lv.Version() != 1 {
		t.Fatalf("version = %d/%d, want 1", res.Version, lv.Version())
	}
	if res.Applied != 3 || res.Nodes != 4 || res.Arcs != 4 {
		t.Fatalf("applied=%d nodes=%d arcs=%d, want 3/4/4", res.Applied, res.Nodes, res.Arcs)
	}
	// Dirty = sorted distinct targets.
	want := []graph.NodeID{0, 1, 2}
	if len(res.Dirty) != len(want) {
		t.Fatalf("dirty = %v, want %v", res.Dirty, want)
	}
	for i := range want {
		if res.Dirty[i] != want[i] {
			t.Fatalf("dirty = %v, want %v", res.Dirty, want)
		}
	}

	g1 := lv.Graph()
	if !g1.HasEdge(3, 0) || g1.HasEdge(0, 2) {
		t.Fatal("batch edits not reflected in the new snapshot")
	}
	if p, phi, w := arcParams(t, g1, 3, 0); p != 0.9 || phi != 0.8 || w != 0.7 {
		t.Fatalf("added arc carries (%v,%v,%v)", p, phi, w)
	}
	// Reweight set only P; phi and w kept.
	if p, phi, w := arcParams(t, g1, 0, 1); p != 0.6 || phi != 0.4 || w != 0.5 {
		t.Fatalf("reweighted arc carries (%v,%v,%v)", p, phi, w)
	}
	// Untouched arc fully preserved, opinions carried over.
	if p, phi, w := arcParams(t, g1, 1, 2); p != 0.3 || phi != 0.4 || w != 0.5 {
		t.Fatalf("untouched arc carries (%v,%v,%v)", p, phi, w)
	}
	if g1.Opinion(3) != -0.4 {
		t.Fatalf("opinion not carried: %v", g1.Opinion(3))
	}
	// The old snapshot is immutable.
	if g0.HasEdge(3, 0) || !g0.HasEdge(0, 2) {
		t.Fatal("old snapshot mutated")
	}

	snap, ver := lv.Snapshot()
	if snap != g1 || ver != 1 {
		t.Fatal("Snapshot out of sync")
	}
}

func TestApplyAtomicity(t *testing.T) {
	ctx := context.Background()
	g0 := smallGraph(t)
	lv := live.Wrap(g0, live.Options{})
	// Op 0 is valid on its own; op 1 is not. Nothing may change.
	_, err := lv.Apply(ctx, []live.EdgeOp{
		{Op: live.OpRemove, From: 0, To: 1},
		{Op: live.OpRemove, From: 0, To: 3}, // absent
	}, live.ApplyOptions{})
	if err == nil {
		t.Fatal("batch with invalid op accepted")
	}
	if lv.Version() != 0 || lv.Graph() != g0 {
		t.Fatal("failed batch left a trace")
	}
	if !g0.HasEdge(0, 1) {
		t.Fatal("failed batch removed an edge")
	}
}

func TestApplyValidation(t *testing.T) {
	ctx := context.Background()
	cases := []struct {
		name string
		ops  []live.EdgeOp
		frag string
	}{
		{"empty", nil, "empty batch"},
		{"range", []live.EdgeOp{{Op: live.OpAdd, From: 0, To: 9}}, "out of range"},
		{"self-loop", []live.EdgeOp{{Op: live.OpAdd, From: 1, To: 1}}, "self-loop"},
		{"bad-p", []live.EdgeOp{{Op: live.OpAdd, From: 1, To: 0, P: fp(1.5)}}, "out of [0,1]"},
		{"bad-phi", []live.EdgeOp{{Op: live.OpAdd, From: 1, To: 0, Phi: fp(-0.1)}}, "out of [0,1]"},
		{"bad-w", []live.EdgeOp{{Op: live.OpAdd, From: 1, To: 0, W: fp(-1)}}, "negative"},
		{"add-existing", []live.EdgeOp{{Op: live.OpAdd, From: 0, To: 1}}, "existing"},
		{"remove-absent", []live.EdgeOp{{Op: live.OpRemove, From: 1, To: 0}}, "absent"},
		{"reweight-absent", []live.EdgeOp{{Op: live.OpReweight, From: 1, To: 0, P: fp(0.5)}}, "absent"},
		{"reweight-noop", []live.EdgeOp{{Op: live.OpReweight, From: 0, To: 1}}, "no parameter"},
		{"unknown-op", []live.EdgeOp{{Op: "upsert", From: 1, To: 0}}, "unknown op"},
		{"dup-arc", []live.EdgeOp{
			{Op: live.OpReweight, From: 0, To: 1, P: fp(0.5)},
			{Op: live.OpRemove, From: 0, To: 1},
		}, "both touch"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			lv := live.Wrap(smallGraph(t), live.Options{})
			_, err := lv.Apply(ctx, tc.ops, live.ApplyOptions{})
			if err == nil {
				t.Fatalf("accepted %s batch", tc.name)
			}
			if !strings.Contains(err.Error(), tc.frag) {
				t.Fatalf("error %q does not mention %q", err, tc.frag)
			}
			if lv.Version() != 0 {
				t.Fatal("rejected batch bumped the version")
			}
		})
	}
}

func TestApplyRebalanceLT(t *testing.T) {
	ctx := context.Background()
	// Node 2 has in-arcs from 1 and 0; add a third from 3 with rebalance.
	lv := live.Wrap(smallGraph(t), live.Options{})
	if _, err := lv.Apply(ctx, []live.EdgeOp{
		{Op: live.OpAdd, From: 3, To: 2, P: fp(0.5)},
	}, live.ApplyOptions{RebalanceLT: true}); err != nil {
		t.Fatal(err)
	}
	g := lv.Graph()
	if g.InDegree(2) != 3 {
		t.Fatalf("in-degree of 2 = %d, want 3", g.InDegree(2))
	}
	third := 1.0 / 3
	for _, u := range []graph.NodeID{0, 1, 3} {
		if _, _, w := arcParams(t, g, u, 2); w != third {
			t.Fatalf("w(%d,2) = %v, want 1/3", u, w)
		}
	}
	// Arcs into untouched targets keep their weights.
	if _, _, w := arcParams(t, g, 0, 1); w != 0.5 {
		t.Fatalf("w(0,1) = %v, want 0.5 (untouched target)", w)
	}

	// Removing the last in-arc of a target leaves nothing to rebalance.
	lv2 := live.Wrap(smallGraph(t), live.Options{})
	if _, err := lv2.Apply(ctx, []live.EdgeOp{
		{Op: live.OpRemove, From: 2, To: 3},
	}, live.ApplyOptions{RebalanceLT: true}); err != nil {
		t.Fatal(err)
	}
	if lv2.Graph().InDegree(3) != 0 {
		t.Fatal("in-degree of 3 not zero after removing its only in-arc")
	}
}

// TestLiveChurnSmoke is the CI live-churn smoke: against the 50k-node BA
// benchmark graph, a sketch kept fresh by incremental repair across a
// stream of edge batches must answer every selection exactly like a
// sketch built from scratch on the current snapshot.
func TestLiveChurnSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("50k-node churn smoke")
	}
	ctx := context.Background()
	g := graph.BarabasiAlbert(50000, 3, rng.New(1))
	g.SetUniformProb(0.1)
	g.SetDefaultLTWeights()
	// MaxSets pins both indexes to one sample size: repaired-vs-rebuilt
	// equality is then exact (same stream prefix) rather than depending
	// on each build's θ trajectory over slightly different content.
	p := sketch.Params{Kind: ris.ModelLT, Epsilon: 0.3, Seed: 9, BuildK: 20, MaxSets: 20000}
	x, err := sketch.Build(ctx, g, p)
	if err != nil {
		t.Fatal(err)
	}
	if x.Len() != p.MaxSets {
		t.Fatalf("build stopped at %d sets below the %d cap; lower the cap so both indexes pin to one size", x.Len(), p.MaxSets)
	}

	lv := live.Wrap(g, live.Options{})
	// Each round mutates a disjoint slab of peripheral arcs.
	slab := func(round int) []live.EdgeOp {
		var ops []live.EdgeOp
		n := g.NumNodes()
		base := n - 1 - int32(round*400)
		pr := 0.2
		for u := base; u > base-200; u-- {
			cur := lv.Graph()
			if nbrs := cur.OutNeighbors(u); len(nbrs) > 0 && cur.HasEdge(nbrs[0], u) {
				ops = append(ops, live.EdgeOp{Op: live.OpRemove, From: nbrs[0], To: u})
			} else if !cur.HasEdge(u, u-1) {
				ops = append(ops, live.EdgeOp{Op: live.OpAdd, From: u, To: u - 1, P: &pr})
			}
		}
		return ops
	}
	for round := 0; round < 3; round++ {
		res, err := lv.Apply(ctx, slab(round), live.ApplyOptions{RebalanceLT: true})
		if err != nil {
			t.Fatal(err)
		}
		cur := lv.Graph()
		if _, err := x.Repair(ctx, cur, res.Dirty, res.Version, sketch.RepairOptions{}); err != nil {
			t.Fatal(err)
		}
		if !x.Matches(cur, p.Kind) {
			t.Fatalf("round %d: repaired sketch does not match the snapshot", round)
		}

		fresh, err := sketch.Build(ctx, cur, p)
		if err != nil {
			t.Fatal(err)
		}
		a, err := x.Select(ctx, 20)
		if err != nil {
			t.Fatal(err)
		}
		b, err := fresh.Select(ctx, 20)
		if err != nil {
			t.Fatal(err)
		}
		if len(a.Seeds) != len(b.Seeds) {
			t.Fatalf("round %d: %d vs %d seeds", round, len(a.Seeds), len(b.Seeds))
		}
		for i := range a.Seeds {
			if a.Seeds[i] != b.Seeds[i] {
				t.Fatalf("round %d: repaired and rebuilt sketches disagree at seed %d: %d vs %d",
					round, i, a.Seeds[i], b.Seeds[i])
			}
		}
	}
}

// A reweight batch and the Builder accept and reject the same edge
// parameters: both check with graph.ValidProb and graph.ValidWeight.
func TestApplyAndBuilderAgreeOnValidity(t *testing.T) {
	values := []float64{math.NaN(), math.Copysign(0, -1), 0, 1, math.Nextafter(1, 2), -1e-300, math.Inf(1), math.MaxFloat64}
	builds := func(p, phi, w float64) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		graph.NewBuilder(2).AddEdgeFull(0, 1, p, phi, w)
		return true
	}
	g := smallGraph(t)
	for _, v := range values {
		for _, c := range []struct {
			param string
			op    live.EdgeOp
			built bool
		}{
			{"p", live.EdgeOp{P: fp(v)}, builds(v, 0, 0)},
			{"phi", live.EdgeOp{Phi: fp(v)}, builds(0, v, 0)},
			{"w", live.EdgeOp{W: fp(v)}, builds(0, 0, v)},
		} {
			c.op.Op, c.op.From, c.op.To = live.OpReweight, 0, 1
			_, _, err := live.Apply(context.Background(), g, 0, []live.EdgeOp{c.op}, live.ApplyOptions{})
			if applied := err == nil; applied != c.built {
				t.Errorf("%s=%v: Apply accepts %v, Builder accepts %v (%v)", c.param, v, applied, c.built, err)
			}
		}
	}
}

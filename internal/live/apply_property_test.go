package live_test

import (
	"context"
	"fmt"
	"math"
	"slices"
	"testing"

	"github.com/holisticim/holisticim/internal/graph"
	"github.com/holisticim/holisticim/internal/live"
	"github.com/holisticim/holisticim/internal/rng"
)

// rebuildOracle is the construction Apply used until it learned to derive
// the next CSR from the previous one: every surviving arc of g re-added
// through a graph.Builder with the batch's edits applied, then the added
// arcs, then a full Build. It stays here as the reference the derived
// snapshot must equal array for array.
func rebuildOracle(g *graph.Graph, ops []live.EdgeOp, opts live.ApplyOptions) *graph.Graph {
	edits := make(map[[2]graph.NodeID]live.EdgeOp, len(ops))
	inDelta := make(map[graph.NodeID]int32, len(ops))
	for _, op := range ops {
		edits[[2]graph.NodeID{op.From, op.To}] = op
		d := inDelta[op.To]
		switch op.Op {
		case live.OpAdd:
			d++
		case live.OpRemove:
			d--
		}
		inDelta[op.To] = d
	}
	ltWeight := func(v graph.NodeID, old float64) float64 {
		delta, dirty := inDelta[v]
		if !opts.RebalanceLT || !dirty {
			return old
		}
		if d := g.InDegree(v) + delta; d > 0 {
			return 1 / float64(d)
		}
		return 0
	}
	b := graph.NewBuilder(g.NumNodes())
	for u := graph.NodeID(0); u < g.NumNodes(); u++ {
		base := g.OutEdgeBase(u)
		for i, v := range g.OutNeighbors(u) {
			e := base + int64(i)
			p, phi, w := g.ProbAt(e), g.PhiAt(e), g.WeightAt(e)
			if op, ok := edits[[2]graph.NodeID{u, v}]; ok {
				if op.Op == live.OpRemove {
					continue
				}
				if op.P != nil {
					p = *op.P
				}
				if op.Phi != nil {
					phi = *op.Phi
				}
				if op.W != nil {
					w = *op.W
				}
			}
			b.AddEdgeFull(u, v, p, phi, ltWeight(v, w))
		}
	}
	for _, op := range ops {
		if op.Op != live.OpAdd {
			continue
		}
		var p, phi, w float64
		if op.P != nil {
			p = *op.P
		}
		if op.Phi != nil {
			phi = *op.Phi
		}
		if op.W != nil {
			w = *op.W
		}
		b.AddEdgeFull(op.From, op.To, p, phi, ltWeight(op.To, w))
	}
	ng := b.Build()
	ng.SetOpinions(g.Opinions())
	return ng
}

// arcValues is the column at reads per arc, in out-array order.
func arcValues(g *graph.Graph, at func(int64) float64) []float64 {
	out := make([]float64, g.NumEdges())
	for i := range out {
		out[i] = at(int64(i))
	}
	return out
}

// sameColumn compares two parameter columns, form and bits.
func sameColumn(got, want []float64, gotHead, wantHead bool) bool {
	return gotHead == wantHead && slices.EqualFunc(got, want, func(x, y float64) bool {
		return math.Float64bits(x) == math.Float64bits(y)
	})
}

// sameArrays compares two graphs array for array through the read-only
// views: the out-arrays, the parameter columns in the form each is held
// in and opinions whole, the in-CSR row by row (equal in-degrees for every
// node are equal inStart arrays).
func sameArrays(got, want *graph.Graph) error {
	if got.NumNodes() != want.NumNodes() || got.NumEdges() != want.NumEdges() {
		return fmt.Errorf("%d nodes/%d arcs, want %d/%d", got.NumNodes(), got.NumEdges(), want.NumNodes(), want.NumEdges())
	}
	gs, gt := got.OutCSR()
	ws, wt := want.OutCSR()
	switch {
	case !slices.Equal(gs, ws):
		return fmt.Errorf("outStart differs")
	case !slices.Equal(gt, wt):
		return fmt.Errorf("outTo differs")
	case !slices.Equal(arcValues(got, got.ProbAt), arcValues(want, want.ProbAt)):
		return fmt.Errorf("p differs")
	case !slices.Equal(got.Phis(), want.Phis()):
		return fmt.Errorf("outPhi differs")
	case !slices.Equal(arcValues(got, got.WeightAt), arcValues(want, want.WeightAt)):
		return fmt.Errorf("LT weight differs")
	case !slices.Equal(got.Opinions(), want.Opinions()):
		return fmt.Errorf("opinion differs")
	}
	for v := graph.NodeID(0); v < want.NumNodes(); v++ {
		if !slices.Equal(got.InNeighbors(v), want.InNeighbors(v)) {
			return fmt.Errorf("inFrom/inStart differ at node %d", v)
		}
		if !slices.Equal(got.InEdgeIndices(v), want.InEdgeIndices(v)) {
			return fmt.Errorf("inEdge differs at node %d", v)
		}
	}
	gp, gpHead := got.ProbColumn()
	wp, wpHead := want.ProbColumn()
	if !sameColumn(gp, wp, gpHead, wpHead) {
		return fmt.Errorf("p column (per head %v) differs from the Builder's (per head %v)", gpHead, wpHead)
	}
	gw, gwHead := got.WeightColumn()
	ww, wwHead := want.WeightColumn()
	if !sameColumn(gw, ww, gwHead, wwHead) {
		return fmt.Errorf("LT weight column (per head %v) differs from the Builder's (per head %v)", gwHead, wwHead)
	}
	if got.Fingerprint() != want.Fingerprint() {
		return fmt.Errorf("fingerprint %016x, want %016x", got.Fingerprint(), want.Fingerprint())
	}
	return nil
}

// batchGen draws one batch over g, never two ops on one arc, and counts
// the structural corner cases it produced so the test can prove its
// generator reaches them.
type batchGen struct {
	g    *graph.Graph
	r    *rng.RNG
	used map[[2]graph.NodeID]bool
	ops  []live.EdgeOp
	hit  map[string]int
}

// withParams sets the subset of P/Phi/W that mask names (bits 1, 2, 4).
func (b *batchGen) withParams(op live.EdgeOp, mask int) live.EdgeOp {
	param := func() *float64 { return fp(float64(b.r.Intn(1001)) / 1000) }
	if mask&1 != 0 {
		op.P = param()
	}
	if mask&2 != 0 {
		op.Phi = param()
	}
	if mask&4 != 0 {
		op.W = param()
	}
	return op
}

func (b *batchGen) claim(u, v graph.NodeID) bool {
	k := [2]graph.NodeID{u, v}
	if u == v || b.used[k] {
		return false
	}
	b.used[k] = true
	return true
}

func (b *batchGen) add(u, v graph.NodeID) bool {
	if b.g.HasEdge(u, v) || !b.claim(u, v) {
		return false
	}
	// Omitted parameters of an add default to zero: draw each subset too.
	b.ops = append(b.ops, b.withParams(live.EdgeOp{Op: live.OpAdd, From: u, To: v}, b.r.Intn(8)))
	b.noteRow(u, v)
	if b.g.OutDegree(u) == 0 {
		b.hit["row created"]++
	}
	return true
}

func (b *batchGen) remove(u, v graph.NodeID) bool {
	if !b.claim(u, v) {
		return false
	}
	b.ops = append(b.ops, live.EdgeOp{Op: live.OpRemove, From: u, To: v})
	b.noteRow(u, v)
	return true
}

func (b *batchGen) reweight(u, v graph.NodeID, mask int) bool {
	if !b.claim(u, v) {
		return false
	}
	b.ops = append(b.ops, b.withParams(live.EdgeOp{Op: live.OpReweight, From: u, To: v}, mask))
	b.hit[fmt.Sprintf("reweight mask %d", mask)]++
	b.noteRow(u, v)
	return true
}

// noteRow records where in the CSR an op on (u,v) lands.
func (b *batchGen) noteRow(u, v graph.NodeID) {
	switch u {
	case 0:
		b.hit["first row"]++
	case b.g.NumNodes() - 1:
		b.hit["last row"]++
	}
	if nbrs := b.g.OutNeighbors(u); len(nbrs) > 0 {
		if v <= nbrs[0] {
			b.hit["first arc of a row"]++
		}
		if v >= nbrs[len(nbrs)-1] {
			b.hit["last arc of a row"]++
		}
	}
}

func (b *batchGen) randomArc() (graph.NodeID, graph.NodeID, bool) {
	for try := 0; try < 32; try++ {
		u := graph.NodeID(b.r.Int31n(b.g.NumNodes()))
		if nbrs := b.g.OutNeighbors(u); len(nbrs) > 0 {
			return u, nbrs[b.r.Intn(len(nbrs))], true
		}
	}
	return 0, 0, false
}

func (b *batchGen) draw() {
	g, r, n := b.g, b.r, b.g.NumNodes()
	for k := 1 + r.Intn(24); k > 0; k-- {
		u := graph.NodeID(r.Int31n(n))
		// Pull a share of the ops onto the first and the last row.
		switch r.Intn(8) {
		case 0:
			u = 0
		case 1:
			u = n - 1
		}
		nbrs := g.OutNeighbors(u)
		switch r.Intn(7) {
		case 0: // add anywhere in the row
			b.add(u, graph.NodeID(r.Int31n(n)))
		case 1: // add ahead of or behind every arc of the row
			if len(nbrs) > 0 && nbrs[0] > 0 && r.Bool(0.5) {
				b.add(u, graph.NodeID(r.Int31n(nbrs[0])))
			} else if len(nbrs) > 0 && nbrs[len(nbrs)-1] < n-1 {
				last := nbrs[len(nbrs)-1]
				b.add(u, last+1+graph.NodeID(r.Int31n(n-1-last)))
			}
		case 2: // remove or reweight the first or the last arc of the row
			if len(nbrs) > 0 {
				v := nbrs[0]
				if r.Bool(0.5) {
					v = nbrs[len(nbrs)-1]
				}
				if r.Bool(0.5) {
					b.remove(u, v)
				} else {
					b.reweight(u, v, 1+r.Intn(7))
				}
			}
		case 3: // empty a row
			if len(nbrs) > 0 && len(nbrs) <= 6 {
				all := true
				for _, v := range nbrs {
					all = b.remove(u, v) && all
				}
				if all {
					b.hit["row emptied"]++
				}
			}
		case 4: // take a node's in-degree to zero
			if froms := g.InNeighbors(u); len(froms) > 0 && len(froms) <= 6 {
				all := true
				for _, f := range froms {
					all = b.remove(f, u) && all
				}
				if all {
					b.hit["in-degree to 0"]++
				}
			}
		case 5:
			if x, v, ok := b.randomArc(); ok {
				b.remove(x, v)
			}
		default:
			if x, v, ok := b.randomArc(); ok {
				b.reweight(x, v, 1+r.Intn(7))
			}
		}
	}
	if len(b.ops) == 0 { // every draw collided: one op is always possible
		if x, v, ok := b.randomArc(); ok {
			b.reweight(x, v, 7)
		}
	}
}

// TestApplyEqualsBuilderRebuild is the property the derived-CSR
// construction rests on: over seeded random (graph, batch) cases the
// snapshot Apply installs equals, array for array, column form for column
// form and by fingerprint, the one the builder rebuild produces — and so
// do Version, Dirty and the counts it reports. The graphs hold p per arc
// (a mix), or per head (weighted cascade, a uniform p), beside per-head LT
// weights, so batches keep per-head rows per head (removals, reweights of
// ϕ alone), break them (an add, a reweight of p or w) and, with
// RebalanceLT, mend the weight rows they break.
func TestApplyEqualsBuilderRebuild(t *testing.T) {
	const cases = 240
	ctx := context.Background()
	hit := map[string]int{}
	for c := 0; c < cases; c++ {
		r := rng.New(uint64(1000 + c))
		n := int32(20 + r.Intn(1981))
		if c%3 == 0 {
			n = int32(20 + r.Intn(80)) // small graphs make emptied rows and lone in-arcs common
		}
		var g *graph.Graph
		if c%2 == 0 {
			g = graph.BarabasiAlbert(n, 1+r.Intn(3), r)
		} else {
			// Directed R-MAT leaves rows with no out-arcs and nodes with no in-arcs.
			g = graph.RMAT(n, int64(n)*int64(1+r.Intn(4)), graph.DefaultRMAT, false, r)
		}
		g.SetEdgeParamsFunc(func(u, v graph.NodeID) (float64, float64) {
			return float64((u*31+v*17)%1000) / 1000, float64((u*13+v*7)%1000) / 1000
		})
		switch c / 4 % 3 {
		case 1:
			g.SetWeightedCascadeProb()
		case 2:
			g.SetUniformProb(0.3)
		}
		g.SetDefaultLTWeights()
		ops := make([]float64, n)
		for i := range ops {
			ops[i] = r.Range(-1, 1)
		}
		g.SetOpinions(ops)

		opts := live.ApplyOptions{RebalanceLT: c%4 >= 2}
		lv := live.Wrap(g, live.Options{})
		// Two batches per lineage: the second runs on a derived snapshot.
		for round := 0; round < 2; round++ {
			cur := lv.Graph()
			bg := &batchGen{g: cur, r: r, used: map[[2]graph.NodeID]bool{}, hit: hit}
			bg.draw()
			if len(bg.ops) == 0 {
				t.Fatalf("case %d: no op drawn", c)
			}
			want := rebuildOracle(cur, bg.ops, opts)
			before := cur.Fingerprint()
			res, err := lv.Apply(ctx, bg.ops, opts)
			if err != nil {
				t.Fatalf("case %d round %d: %v", c, round, err)
			}
			got := lv.Graph()
			if err := sameArrays(got, want); err != nil {
				t.Fatalf("case %d round %d (n=%d, %d ops, rebalance=%v): %v", c, round, n, len(bg.ops), opts.RebalanceLT, err)
			}
			if cur.Fingerprint() != before {
				t.Fatalf("case %d round %d: Apply changed the snapshot it started from", c, round)
			}
			for _, col := range []struct {
				name     string
				from, to bool
			}{
				{"p", perHead(cur.ProbColumn()), perHead(got.ProbColumn())},
				{"w", perHead(cur.WeightColumn()), perHead(got.WeightColumn())},
			} {
				switch {
				case col.from && col.to:
					hit[col.name+" kept per head"]++
				case col.from:
					hit[col.name+" broken to per arc"]++
				}
			}
			writesW := false // an op that leaves its row's w mixed unless rebalanced
			for _, op := range bg.ops {
				writesW = writesW || op.Op == live.OpAdd || op.W != nil
			}
			if opts.RebalanceLT && writesW && perHead(cur.WeightColumn()) && perHead(got.WeightColumn()) {
				hit["w rows written and rebalanced"]++
			}
			var dirty []graph.NodeID
			for _, op := range bg.ops {
				dirty = append(dirty, op.To)
			}
			slices.Sort(dirty)
			dirty = slices.Compact(dirty)
			if !slices.Equal(res.Dirty, dirty) || res.Version != uint64(round+1) || res.Applied != len(bg.ops) ||
				res.Nodes != want.NumNodes() || res.Arcs != want.NumEdges() {
				t.Fatalf("case %d round %d: result %+v, want dirty %v version %d applied %d", c, round, res, dirty, round+1, len(bg.ops))
			}
			if opts.RebalanceLT {
				hit["rebalance on"]++
			} else {
				hit["rebalance off"]++
			}
		}
	}
	want := []string{"first row", "last row", "first arc of a row", "last arc of a row",
		"row emptied", "row created", "in-degree to 0", "rebalance on", "rebalance off",
		"p kept per head", "p broken to per arc", "w kept per head", "w broken to per arc", "w rows written and rebalanced"}
	for mask := 1; mask <= 7; mask++ {
		want = append(want, fmt.Sprintf("reweight mask %d", mask))
	}
	for _, name := range want {
		if hit[name] == 0 {
			t.Errorf("the generator never produced a %q case", name)
		}
	}
	t.Logf("corner cases over %d lineages: %v", cases, hit)
}

// perHead is the form a ProbColumn or WeightColumn call reports.
func perHead(_ []float64, perHead bool) bool { return perHead }

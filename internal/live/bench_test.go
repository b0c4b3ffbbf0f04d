package live_test

import (
	"context"
	"testing"

	"github.com/holisticim/holisticim/internal/graph"
	"github.com/holisticim/holisticim/internal/live"
	"github.com/holisticim/holisticim/internal/rng"
)

// randomBatch draws ops mixed adds, removes and reweights, each on an arc
// of its own, valid against g.
func randomBatch(g *graph.Graph, r *rng.RNG, ops int) []live.EdgeOp {
	n := g.NumNodes()
	taken := map[[2]graph.NodeID]bool{}
	batch := make([]live.EdgeOp, 0, ops)
	for len(batch) < ops {
		u, v := graph.NodeID(r.Int31n(n)), graph.NodeID(r.Int31n(n))
		kind := r.Intn(10)
		if kind >= 4 { // an existing arc out of u
			nbrs := g.OutNeighbors(u)
			if len(nbrs) == 0 {
				continue
			}
			v = nbrs[r.Intn(len(nbrs))]
		}
		if u == v || taken[[2]graph.NodeID{u, v}] || (kind < 4 && g.HasEdge(u, v)) {
			continue
		}
		taken[[2]graph.NodeID{u, v}] = true
		switch {
		case kind < 4:
			batch = append(batch, live.EdgeOp{Op: live.OpAdd, From: u, To: v, P: fp(r.Range(0.01, 0.3)), Phi: fp(r.Float64())})
		case kind < 7:
			batch = append(batch, live.EdgeOp{Op: live.OpRemove, From: u, To: v})
		default:
			batch = append(batch, live.EdgeOp{Op: live.OpReweight, From: u, To: v, P: fp(r.Range(0.01, 0.3))})
		}
	}
	return batch
}

// BenchmarkApply10Ops is one 10-op batch on a graph shaped like the repo
// benchmark's ba-wc (10k nodes, 60k arcs, weighted cascade): what a
// mutation costs before any sketch hears of it.
func BenchmarkApply10Ops(b *testing.B) {
	r := rng.New(7)
	g := graph.BarabasiAlbert(10000, 3, r)
	g.SetWeightedCascadeProb()
	g.SetDefaultLTWeights()
	lv := live.Wrap(g, live.Options{})
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		batch := randomBatch(lv.Graph(), r, 10)
		b.StartTimer()
		if _, err := lv.Apply(ctx, batch, live.ApplyOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

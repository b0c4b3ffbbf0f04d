package core

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"github.com/holisticim/holisticim/internal/diffusion"
	"github.com/holisticim/holisticim/internal/graph"
	"github.com/holisticim/holisticim/internal/im"
	"github.com/holisticim/holisticim/internal/opinion"
	"github.com/holisticim/holisticim/internal/rng"
)

func benchGraph(b *testing.B, n int32) *graph.Graph {
	b.Helper()
	g := graph.BarabasiAlbert(n, 3, rng.New(1))
	g.SetUniformProb(0.1)
	r := rng.New(2)
	for v := graph.NodeID(0); v < g.NumNodes(); v++ {
		g.SetOpinion(v, r.Range(-1, 1))
	}
	g.SetEdgeParamsFunc(func(u, v graph.NodeID) (float64, float64) { return 0.1, r.Float64() })
	g.SetDefaultLTWeights()
	return g
}

func BenchmarkEaSyIMAssignL1(b *testing.B) { benchAssign(b, 1) }
func BenchmarkEaSyIMAssignL3(b *testing.B) { benchAssign(b, 3) }
func BenchmarkEaSyIMAssignL5(b *testing.B) { benchAssign(b, 5) }

func benchAssign(b *testing.B, l int) {
	g := benchGraph(b, 50000)
	s := NewEaSyIM(g, l, WeightProb)
	out := make([]float64, g.NumNodes())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Assign(nil, out)
	}
}

func BenchmarkOSIMAssignL3(b *testing.B) {
	g := benchGraph(b, 50000)
	s := NewOSIM(g, 3, WeightProb, 1)
	out := make([]float64, g.NumNodes())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Assign(nil, out)
	}
}

func BenchmarkPathUnionSmall(b *testing.B) {
	g := benchGraph(b, 300)
	s := NewPathUnion(g, 3, WeightProb)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ScoreOf(s)
	}
}

func BenchmarkScoreGreedySelect10(b *testing.B) {
	g := benchGraph(b, 20000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sg := NewScoreGreedy(NewEaSyIM(g, 3, WeightProb), ScoreGreedyOptions{
			Policy:     PolicyMCMajority,
			ProbeModel: diffusion.NewIC(g),
			ProbeRuns:  10,
			Seed:       uint64(i),
		})
		_ = runSelect(sg, 10)
	}
}

// rmatGraph is the shape of the repo benchmark's largest input: a directed
// R-MAT under weighted cascade with opinions and ϕ.
func rmatGraph(n int32, m int64) *graph.Graph {
	g := graph.RMAT(n, m, graph.DefaultRMAT, false, rng.New(1))
	g.SetWeightedCascadeProb()
	opinion.AssignInteractions(g, 2)
	opinion.AssignOpinions(g, opinion.Normal, 3)
	return g
}

func BenchmarkScoreGreedySelectEaSyIM(b *testing.B) {
	g := rmatGraph(50000, 400000)
	benchSelect(b, func() LevelScorer { return NewEaSyIM(g, 3, WeightProb) }, diffusion.NewIC(g))
}

func BenchmarkScoreGreedySelectOSIM(b *testing.B) {
	g := rmatGraph(50000, 400000)
	benchSelect(b, func() LevelScorer { return NewOSIM(g, 3, WeightProb, 1) }, diffusion.NewOI(g, diffusion.LayerIC))
}

// benchSelect times a k=50 selection as holisticim.SelectSeeds runs it and
// reports, per seed, the rows re-summed and arcs read — a full pass per
// seed would be l·n and l·m — and the scoring state held per node, the
// figure behind the paper's memory claim (Fig. 6j, Table 3). It also
// reports the seeds' FNV-1a hash folded to 52 bits, exact in a float64, so
// a comparison of the counts at two -cpu widths compares the seeds — and
// with them the probe's marks, whose runs split at GOMAXPROCS — too.
func benchSelect(b *testing.B, scorer func() LevelScorer, probe diffusion.Model) {
	const k = 50
	var res im.Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res = runSelect(NewScoreGreedy(scorer(), ScoreGreedyOptions{
			Policy: PolicyMCMajority, ProbeModel: probe, Seed: uint64(i),
		}), k)
	}
	b.ReportMetric(res.Metrics["rows_rescored"]/k, "rows/seed")
	b.ReportMetric(res.Metrics["arcs_rescored"]/k, "arcs/seed")
	b.ReportMetric(res.Metrics["state_bytes_per_node"], "state_B/node")
	h := fnv.New64a()
	for _, v := range res.Seeds {
		h.Write(binary.LittleEndian.AppendUint32(nil, uint32(v)))
	}
	sum := h.Sum64()
	b.ReportMetric(float64(sum>>52^sum&(1<<52-1)), "seeds_hash")
}

func BenchmarkLiveEdgeEnsemble(b *testing.B) {
	g := benchGraph(b, 5000)
	s := NewLiveEdgeEnsemble(g, 3, 8, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ScoreOf(s)
	}
}

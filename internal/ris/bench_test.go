package ris

import (
	"context"
	"testing"

	"github.com/holisticim/holisticim/internal/graph"
	"github.com/holisticim/holisticim/internal/opinion"
	"github.com/holisticim/holisticim/internal/rng"
)

func benchGraph(b *testing.B) *graph.Graph {
	b.Helper()
	g := graph.BarabasiAlbert(20000, 3, rng.New(1))
	g.SetUniformProb(0.1)
	g.SetDefaultLTWeights()
	return g
}

// benchmarkRRGeneration samples 1000 sets per iteration over the benchmark
// graph as prepare (if any) left it. members/op is the work: the sets
// depend on the graph and the stream alone, so it must read the same at
// every -cpu.
func benchmarkRRGeneration(b *testing.B, kind ModelKind, prepare func(*graph.Graph)) {
	g := benchGraph(b)
	if prepare != nil {
		prepare(g)
	}
	members := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		col := NewCollection(g, kind)
		col.Generate(1000, uint64(i))
		members += len(col.Members())
	}
	b.ReportMetric(float64(members)/float64(b.N), "members/op")
}

// The IC sampler's two row kinds: every in-row uniform (one p throughout,
// and weighted cascade's 1/|In(v)|), and trivalency's mixed rows, whose p
// is gathered per arc.
func BenchmarkRRGenerationIC(b *testing.B) {
	b.Run("uniform", func(b *testing.B) { benchmarkRRGeneration(b, ModelIC, nil) })
	b.Run("wc", func(b *testing.B) { benchmarkRRGeneration(b, ModelIC, (*graph.Graph).SetWeightedCascadeProb) })
	b.Run("trivalency", func(b *testing.B) {
		benchmarkRRGeneration(b, ModelIC, func(g *graph.Graph) { g.SetTrivalencyProb(nil, 1) })
	})
}

func BenchmarkRRGenerationLT(b *testing.B) { benchmarkRRGeneration(b, ModelLT, nil) }

// BenchmarkMaxCoverage derives a 20-seed greedy order from scratch: plain
// over IC sets (MaxCoverage), and weighted by root opinion over OC walks
// (the order Greedy memoizes on an OC sketch).
func BenchmarkMaxCoverage(b *testing.B) {
	g := benchGraph(b)
	b.Run("ic", func(b *testing.B) {
		col := NewCollection(g, ModelIC)
		col.Generate(20000, 7)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_, _ = col.MaxCoverage(20)
		}
	})
	b.Run("oc", func(b *testing.B) {
		opinion.AssignOpinions(g, opinion.Normal, 8)
		col := NewCollection(g, ModelOC)
		col.Generate(200000, 7)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			col.startGreedy(true)
			col.extendGreedy(20)
		}
	})
}

// BenchmarkOpinionCoverage is one sketch-served opinion estimate in the
// repo benchmark's serve-read shape: 300k OC walks on a 10k-node BA graph
// under weighted cascade, one of 64 random ten-node seed sets per op.
// covered/op is the work: the sets the seeds hit, each walked to its
// shallowest seed.
func BenchmarkOpinionCoverage(b *testing.B) {
	g := graph.BarabasiAlbert(10000, 3, rng.New(1))
	g.SetWeightedCascadeProb()
	g.SetDefaultLTWeights()
	opinion.AssignOpinions(g, opinion.Normal, 2)
	col := NewCollection(g, ModelOC)
	if err := col.GenerateParallelCtx(context.Background(), 300000, 3, 0); err != nil {
		b.Fatal(err)
	}
	r := rng.New(4)
	sets := make([][]graph.NodeID, 64)
	for i := range sets {
		sets[i] = make([]graph.NodeID, 10)
		for j := range sets[i] {
			sets[i][j] = graph.NodeID(r.Int31n(g.NumNodes()))
		}
	}
	covered := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cov, _, _ := col.OpinionCoverage(sets[i%len(sets)])
		covered += cov
	}
	b.ReportMetric(float64(covered)/float64(b.N), "covered/op")
}

func BenchmarkTIMPlusSelect(b *testing.B) {
	g := benchGraph(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tp := NewTIMPlus(g, ModelIC, TIMOptions{Epsilon: 0.3, Seed: uint64(i), ThetaCap: 50000})
		_ = runSelect(tp, 10)
	}
}

func BenchmarkIMMSelect(b *testing.B) {
	g := benchGraph(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sel := NewIMM(g, ModelIC, TIMOptions{Epsilon: 0.3, Seed: uint64(i), ThetaCap: 50000})
		_ = runSelect(sel, 10)
	}
}

// BenchmarkColdIMMSelect is the repo benchmark's cold IMM step: k=50, ε=0.1
// on a 10k-node BA under weighted cascade, sampling on GOMAXPROCS workers.
// θ and the sample's bytes are the work done; -cpu must not move them.
func BenchmarkColdIMMSelect(b *testing.B) {
	g := graph.BarabasiAlbert(10000, 3, rng.New(1))
	g.SetWeightedCascadeProb()
	var theta, bytes float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := runSelect(NewIMM(g, ModelIC, TIMOptions{Epsilon: 0.1, Seed: 1}), 50)
		theta, bytes = res.Metrics["theta"], res.Metrics["rrset_bytes"]
	}
	b.ReportMetric(theta, "sets/select")
	b.ReportMetric(bytes, "rrset_B/select")
}

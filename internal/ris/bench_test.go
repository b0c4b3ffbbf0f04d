package ris

import (
	"testing"

	"github.com/holisticim/holisticim/internal/graph"
	"github.com/holisticim/holisticim/internal/rng"
)

func benchGraph(b *testing.B) *graph.Graph {
	b.Helper()
	g := graph.BarabasiAlbert(20000, 3, rng.New(1))
	g.SetUniformProb(0.1)
	g.SetDefaultLTWeights()
	return g
}

func BenchmarkRRGenerationIC(b *testing.B) {
	g := benchGraph(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		col := NewCollection(g, ModelIC)
		col.Generate(1000, uint64(i))
	}
}

func BenchmarkRRGenerationLT(b *testing.B) {
	g := benchGraph(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		col := NewCollection(g, ModelLT)
		col.Generate(1000, uint64(i))
	}
}

func BenchmarkMaxCoverage(b *testing.B) {
	g := benchGraph(b)
	col := NewCollection(g, ModelIC)
	col.Generate(20000, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = col.MaxCoverage(20)
	}
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

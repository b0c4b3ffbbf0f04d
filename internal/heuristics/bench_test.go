package heuristics

import (
	"testing"

	"github.com/holisticim/holisticim/internal/graph"
	"github.com/holisticim/holisticim/internal/rng"
)

func benchGraph(b *testing.B) *graph.Graph {
	b.Helper()
	g := graph.BarabasiAlbert(20000, 3, rng.New(1))
	g.SetWeightedCascadeProb()
	g.SetDefaultLTWeights()
	return g
}

func BenchmarkIRIESelect10(b *testing.B) {
	g := benchGraph(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = runSelect(NewIRIE(g, 0, 0, 0), 10)
	}
}

func BenchmarkSimpathSpreadSingle(b *testing.B) {
	g := benchGraph(b)
	sp := NewSIMPATH(g, 1e-3, 4)
	hub := graph.TopKByOutDegree(g, 1)[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = sp.spread(hub, nil, nil)
	}
}

func BenchmarkSimpathSelect5(b *testing.B) {
	g := graph.BarabasiAlbert(5000, 3, rng.New(3))
	g.SetDefaultLTWeights()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = runSelect(NewSIMPATH(g, 1e-3, 4), 5)
	}
}

func BenchmarkDegreeDiscountSelect50(b *testing.B) {
	g := benchGraph(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = runSelect(NewDegreeDiscount(g, 0.1), 50)
	}
}

package diffusion

import (
	"testing"

	"github.com/holisticim/holisticim/internal/graph"
	"github.com/holisticim/holisticim/internal/opinion"
	"github.com/holisticim/holisticim/internal/rng"
)

func benchSetup(b *testing.B) (*graph.Graph, []graph.NodeID) {
	b.Helper()
	g := graph.BarabasiAlbert(20000, 3, rng.New(1))
	g.SetUniformProb(0.1)
	r := rng.New(2)
	for v := graph.NodeID(0); v < g.NumNodes(); v++ {
		g.SetOpinion(v, r.Range(-1, 1))
	}
	g.SetEdgeParamsFunc(func(u, v graph.NodeID) (float64, float64) { return 0.1, r.Float64() })
	g.SetDefaultLTWeights()
	seeds := graph.TopKByOutDegree(g, 10)
	return g, seeds
}

func benchSimulate(b *testing.B, m Model, seeds []graph.NodeID) {
	b.Helper()
	s := NewScratch(m.Graph().NumNodes())
	r := rng.New(3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Reseed(rng.SplitSeed(7, uint64(i)))
		_ = m.Simulate(seeds, r, s)
	}
}

func BenchmarkSimulateIC(b *testing.B) {
	g, seeds := benchSetup(b)
	benchSimulate(b, NewIC(g), seeds)
}

func BenchmarkSimulateLT(b *testing.B) {
	g, seeds := benchSetup(b)
	benchSimulate(b, NewLT(g), seeds)
}

func BenchmarkSimulateOIIC(b *testing.B) {
	g, seeds := benchSetup(b)
	benchSimulate(b, NewOI(g, LayerIC), seeds)
}

func BenchmarkSimulateOILT(b *testing.B) {
	g, seeds := benchSetup(b)
	benchSimulate(b, NewOI(g, LayerLT), seeds)
}

func BenchmarkMonteCarloSerial(b *testing.B) {
	g, seeds := benchSetup(b)
	m := NewIC(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = MonteCarlo(m, seeds, MCOptions{Runs: 200, Seed: 1, Workers: 1})
	}
}

// BenchmarkMonteCarloParallel splits its runs over GOMAXPROCS workers; the
// spread it reports is the estimate, which must read the same at every -cpu.
func BenchmarkMonteCarloParallel(b *testing.B) {
	g, seeds := benchSetup(b)
	m := NewIC(g)
	var est Estimate
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		est = MonteCarlo(m, seeds, MCOptions{Runs: 200, Seed: 1})
	}
	b.ReportMetric(est.Spread, "spread")
}

func BenchmarkSampleLiveEdge(b *testing.B) {
	g, _ := benchSetup(b)
	r := rng.New(5)
	out := make([]int64, g.NumNodes())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SampleLiveEdge(g, r, out)
	}
}

// probeSetup is the shape core.ScoreGreedy's activation probe runs on
// offline-select: the benchmark's R-MAT input (50k nodes, 400k arcs,
// weighted cascade, opinions and ϕ), one top-degree seed, a blocked mask
// installed.
func probeSetup(b *testing.B) (*graph.Graph, []graph.NodeID, []bool) {
	b.Helper()
	g := graph.RMAT(50000, 400000, graph.DefaultRMAT, false, rng.New(1))
	g.SetWeightedCascadeProb()
	g.SetDefaultLTWeights()
	opinion.AssignInteractions(g, 2)
	opinion.AssignOpinions(g, opinion.Normal, 3)
	mask := make([]bool, g.NumNodes())
	for v := range mask {
		mask[v] = v%8 == 3
	}
	seeds := graph.TopKByOutDegree(g, 1)
	mask[seeds[0]] = false
	return g, seeds, mask
}

// benchProbe times one probe: 20 runs from one seed on one RNG stream.
func benchProbe(b *testing.B, newModel func(*graph.Graph) Model) {
	g, seeds, mask := probeSetup(b)
	m := newModel(g)
	s := NewScratch(g.NumNodes())
	s.SetBlocked(mask)
	r := rng.New(3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for run := 0; run < 20; run++ {
			_ = m.Simulate(seeds, r, s)
		}
	}
}

func BenchmarkProbeIC(b *testing.B) { benchProbe(b, NewIC) }

func BenchmarkProbeOIIC(b *testing.B) {
	benchProbe(b, func(g *graph.Graph) Model { return NewOI(g, LayerIC) })
}

func BenchmarkProbeLT(b *testing.B) { benchProbe(b, NewLT) }

func BenchmarkProbeOILT(b *testing.B) {
	benchProbe(b, func(g *graph.Graph) Model { return NewOI(g, LayerLT) })
}

func BenchmarkProbeOC(b *testing.B) { benchProbe(b, NewOC) }

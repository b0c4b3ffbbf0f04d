package core

import (
	"math"
	"testing"

	"github.com/holisticim/holisticim/internal/diffusion"
	"github.com/holisticim/holisticim/internal/graph"
	"github.com/holisticim/holisticim/internal/rng"
)

// referenceProbe is PolicyMCMajority's probe as it ran before its runs
// could split, and still runs on a graph under sweepGrain: every run of
// every pick draws from the one stream r, counted in run order into counts
// (all zero between calls). It returns the nodes activated in at least half
// of the runs.
func referenceProbe(m diffusion.Model, seed graph.NodeID, blocked []bool, runs int, r *rng.RNG, s *diffusion.Scratch, counts []int32) []graph.NodeID {
	s.SetBlocked(blocked)
	seeds, touched := []graph.NodeID{seed}, []graph.NodeID(nil)
	for run := 0; run < runs; run++ {
		m.Simulate(seeds, r, s)
		for _, v := range s.Activated() {
			if counts[v] == 0 {
				touched = append(touched, v)
			}
			counts[v]++
		}
	}
	s.SetBlocked(nil)
	half := int32((runs + 1) / 2)
	var marked []graph.NodeID
	for _, v := range touched {
		if counts[v] >= half {
			marked = append(marked, v)
		}
		counts[v] = 0
	}
	return marked
}

// TestProbeMatchesReferenceDistribution holds the split probe, the one a
// graph of sweepGrain arcs or more runs, to the single-stream one: the
// streams differ, so the marks of one probe do, but not what they
// estimate. From a fixed graph, blocked mask and seed, 500 probes of each
// implementation mark every node with frequencies within 4.5σ of their
// difference under a binomial model. A zero probe has no stream of its
// own, so markActivated takes the split path here on a graph under the
// grain, at one worker.
func TestProbeMatchesReferenceDistribution(t *testing.T) {
	const probes, runs = 500, 20
	g := rmatGraph(4000, 32000)
	g.SetDefaultLTWeights()
	n := g.NumNodes()
	mask := make([]bool, n)
	for v := range mask {
		mask[v] = v%8 == 3
	}
	seed := graph.TopKByOutDegree(g, 1)[0]
	mask[seed] = false
	for _, m := range []diffusion.Model{diffusion.NewIC(g), diffusion.NewOI(g, diffusion.LayerIC), diffusion.NewLT(g)} {
		ref, got := make([]int, n), make([]int, n)
		r, s, counts := rng.New(5), diffusion.NewScratch(n), make([]int32, n)
		for i := 0; i < probes; i++ {
			for _, v := range referenceProbe(m, seed, mask, runs, r, s, counts) {
				ref[v]++
			}
		}
		sg := NewScoreGreedy(NewEaSyIM(g, 3, WeightProb), ScoreGreedyOptions{ProbeModel: m, ProbeRuns: runs, Seed: 5})
		var p probe
		excluded := make([]bool, n)
		for i := 0; i < probes; i++ {
			copy(excluded, mask)
			for _, v := range sg.markActivated(i, seed, excluded, &p, nil) {
				got[v]++
			}
		}
		uncertain := 0
		for v := range ref {
			pooled := float64(ref[v]+got[v]) / (2 * probes)
			sigma := math.Sqrt(2 * pooled * (1 - pooled) / probes)
			if diff := math.Abs(float64(ref[v]-got[v])) / probes; diff > 4.5*sigma {
				t.Errorf("%s: node %d marked in %d of %d reference probes, %d of %d split ones (σ of the difference %.4f)",
					m.Name(), v, ref[v], probes, got[v], probes, sigma)
			}
			if pooled > 0.05 && pooled < 0.95 {
				uncertain++
			}
		}
		if uncertain < 10 {
			t.Errorf("%s: %d nodes marked with a frequency in (0.05, 0.95): the comparison has too little to test", m.Name(), uncertain)
		}
		t.Logf("%s: %d nodes marked with a frequency in (0.05, 0.95)", m.Name(), uncertain)
	}
}

// Package opinion provides the opinion/interaction parameter layers of
// the OI model: synthetic generators matching the paper's benchmark
// annotations (Sec. 4.1.3: o ~ rand(−1,1) or o ~ N(0,1), ϕ ~ rand(0,1))
// and the history-weighted opinion estimation procedure of Sec. 4.1.1
// used by the Twitter pipeline.
package opinion

import (
	"fmt"
	"math"

	"github.com/holisticim/holisticim/internal/graph"
	"github.com/holisticim/holisticim/internal/rng"
)

// Distribution names an opinion-generation scheme.
type Distribution int

const (
	// Uniform draws o ~ rand(−1, 1).
	Uniform Distribution = iota
	// Normal draws o ~ N(0,1) clamped into [−1,1] (the paper annotates
	// opinions "following the standard normal distribution"; values are
	// clipped to the model's domain).
	Normal
	// Polarized draws from a two-mode mixture ±(0.3..1.0) — an extension
	// useful for studying strongly divided populations.
	Polarized
)

func (d Distribution) String() string {
	switch d {
	case Uniform:
		return "uniform"
	case Normal:
		return "normal"
	case Polarized:
		return "polarized"
	default:
		return "unknown"
	}
}

// ParseDistribution is String's inverse: the one place the wire and flag
// spellings of a distribution are read.
func ParseDistribution(s string) (Distribution, error) {
	for d := Uniform; d <= Polarized; d++ {
		if s == d.String() {
			return d, nil
		}
	}
	return 0, fmt.Errorf("unknown opinion distribution %q", s)
}

// AssignOpinions samples an opinion for every node of g from the given
// distribution. Deterministic given the seed.
func AssignOpinions(g *graph.Graph, d Distribution, seed uint64) {
	r := rng.New(seed)
	n := g.NumNodes()
	for v := graph.NodeID(0); v < n; v++ {
		g.SetOpinion(v, Sample(d, r))
	}
}

// Sample draws a single opinion from the distribution.
func Sample(d Distribution, r *rng.RNG) float64 {
	switch d {
	case Uniform:
		return r.Range(-1, 1)
	case Normal:
		return clamp(r.NormFloat64(), -1, 1)
	case Polarized:
		mag := 0.3 + 0.7*r.Float64()
		if r.Bool(0.5) {
			return mag
		}
		return -mag
	default:
		panic("opinion: unknown distribution")
	}
}

// AssignInteractions samples ϕ(u,v) ~ rand(0,1) for every edge, leaving
// influence probabilities untouched. Deterministic given the seed.
func AssignInteractions(g *graph.Graph, seed uint64) {
	r := rng.New(seed)
	// SetEdgeParamsFunc visits edges in deterministic CSR order.
	g.SetEdgeParamsFunc(func(u, v graph.NodeID) (float64, float64) {
		p, _ := g.EdgeProb(u, v)
		return p, r.Float64()
	})
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// HistoryEstimator implements the Sec.-4.1.1 estimation of a node's
// opinion on a new topic from its opinions on related past topics,
// weighted by topic similarity and recency.
type HistoryEstimator struct {
	// HalfLife controls the recency decay in "topic ages": a record a
	// topics old is weighted 2^(−age/HalfLife). Default 4.
	HalfLife float64
}

// Record is one historical (topic, opinion) observation.
type Record struct {
	Similarity float64 // similarity of the past topic to the target, in [0,1]
	Age        float64 // how many topics ago the observation was made, ≥ 0
	Opinion    float64 // the opinion expressed then, in [−1,1]
}

// Estimate combines history into an opinion prediction. With no usable
// history it returns 0 (neutral), mirroring the hierarchical classifier's
// neutral default.
func (h HistoryEstimator) Estimate(history []Record) float64 {
	halfLife := h.HalfLife
	if halfLife <= 0 {
		halfLife = 4
	}
	var num, den float64
	for _, rec := range history {
		if rec.Similarity <= 0 {
			continue
		}
		w := rec.Similarity * math.Exp2(-rec.Age/halfLife)
		num += w * rec.Opinion
		den += w
	}
	if den == 0 {
		return 0
	}
	return clamp(num/den, -1, 1)
}

// AgreementInteraction computes ϕ from past agreement counts: the
// fraction of co-occurrences where the two users took the same
// orientation (Def. 5's "fraction of the times an information content
// shared by u gets accepted by v with the same orientation"). Returns
// fallback when the pair never co-occurred.
func AgreementInteraction(agree, total int, fallback float64) float64 {
	if total <= 0 {
		return fallback
	}
	return float64(agree) / float64(total)
}

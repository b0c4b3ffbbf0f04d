package main

import (
	"math"
	"sort"
	"time"
)

// tailCandidates are the percentiles a tail may be reported at, lowest
// first. The steps are a decade apart and capped at p99 so that the
// percentile a workload reports does not flip with the machine: a box
// completing twice the requests must not move serve-read from p99 to
// p99.9, or the metric stops being comparable.
var tailCandidates = []float64{50, 90, 99}

// minBeyond is how many samples must lie beyond a percentile for it to
// be reported (choosing-metrics guide, section 1).
const minBeyond = 10

// tailPercentile returns the highest candidate percentile that still has
// at least minBeyond of the n samples beyond it; the median when none
// above it qualifies.
func tailPercentile(n int) float64 {
	best := tailCandidates[0]
	for _, p := range tailCandidates {
		if float64(n)*(100-p)/100 >= minBeyond {
			best = p
		}
	}
	return best
}

// percentile returns the p-th percentile (0..100) of sorted by linear
// interpolation between closest ranks, matching numpy's default.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if len(sorted) == 1 {
		return sorted[0]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	frac := rank - float64(lo)
	return sorted[lo] + (sorted[hi]-sorted[lo])*frac
}

// timing summarizes one set of duration samples the way every timing in
// this benchmark is reported: a median, the highest percentile the
// sample supports, and the sample count.
type timing struct {
	N       int
	P50     float64
	Tail    float64
	TailPct float64
}

// samples collects float64 observations (milliseconds unless the caller
// says otherwise).
type samples []float64

func (s *samples) add(v float64)             { *s = append(*s, v) }
func (s *samples) addDur(d time.Duration)    { s.add(ms(d)) }
func (s samples) sorted() []float64          { c := append([]float64(nil), s...); sort.Float64s(c); return c }
func (s samples) median() float64            { return percentile(s.sorted(), 50) }
func (s samples) quantile(p float64) float64 { return percentile(s.sorted(), p) }

func (s samples) summarize() timing {
	c := s.sorted()
	pct := tailPercentile(len(c))
	return timing{N: len(c), P50: percentile(c, 50), Tail: percentile(c, pct), TailPct: pct}
}

func (s samples) sum() float64 {
	var t float64
	for _, v := range s {
		t += v
	}
	return t
}

// spread is the interquartile range as a share of the median — the
// run-to-run spread the regression bounds are calibrated against. It
// uses the same exclusive quartile method as Python's
// statistics.quantiles(values, n=4), so the numbers here match the ones
// the driver computes.
func spread(values []float64) float64 {
	if len(values) < 2 {
		return 0
	}
	c := append([]float64(nil), values...)
	sort.Float64s(c)
	q := func(k float64) float64 {
		pos := k * float64(len(c)+1) / 4
		lo := int(math.Floor(pos))
		if lo < 1 {
			return c[0]
		}
		if lo >= len(c) {
			return c[len(c)-1]
		}
		return c[lo-1] + (c[lo]-c[lo-1])*(pos-float64(lo))
	}
	med := percentile(c, 50)
	if med == 0 {
		return 0
	}
	return math.Abs((q(3) - q(1)) / med)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

package main

import (
	"math"
	"testing"
)

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{1, 50}, {6, 50}, {99, 50}, // p90 of 99 samples leaves 9.9 beyond
		{100, 90}, {600, 90}, {999, 90}, // p99 of 999 leaves 9.99 beyond
		{1000, 99}, {8800, 99},
		{1000000, 99}, // capped: never p99.9, whatever the machine completes
	}
	for _, c := range cases {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = p%g, want p%g", c.n, got, c.want)
		}
	}
}

func TestSummarizeReportsMedianTailAndCount(t *testing.T) {
	var s samples
	for i := 1; i <= 1000; i++ {
		s.add(float64(i))
	}
	got := s.summarize()
	if got.N != 1000 || got.TailPct != 99 {
		t.Fatalf("summarize: n=%d tail=p%g, want n=1000 tail=p99", got.N, got.TailPct)
	}
	if math.Abs(got.P50-500.5) > 1e-9 || math.Abs(got.Tail-990.01) > 1e-9 {
		t.Errorf("summarize: p50=%v tail=%v, want 500.5 and 990.01", got.P50, got.Tail)
	}
	few := samples{3, 1, 2}.summarize()
	if few.TailPct != 50 || few.Tail != 2 || few.P50 != 2 {
		t.Errorf("three samples: %+v, want the median as the tail", few)
	}
}

// The driver computes spreads with Python's statistics.quantiles(n=4);
// for 1..10 that gives quartiles 2.75 and 8.25 around a median of 5.5.
func TestSpreadMatchesPythonQuartiles(t *testing.T) {
	v := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got, want := spread(v), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
	if spread([]float64{4}) != 0 {
		t.Error("a single value has no spread")
	}
}

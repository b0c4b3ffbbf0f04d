package obs

import (
	"math"
	"sort"
	"sync/atomic"
)

// DefBuckets are the default latency buckets in seconds. They extend
// below Prometheus' classic defaults because the sketch fast path
// serves in fractions of a millisecond — the paper's whole tail-latency
// claim lives down there.
var DefBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// normalizeBuckets sorts and deduplicates upper bounds, dropping a
// trailing +Inf (the implicit overflow bucket always exists).
func normalizeBuckets(buckets []float64) []float64 {
	if len(buckets) == 0 {
		buckets = DefBuckets
	}
	out := append([]float64(nil), buckets...)
	sort.Float64s(out)
	dedup := out[:0]
	for _, b := range out {
		if math.IsInf(b, +1) {
			continue
		}
		if len(dedup) > 0 && dedup[len(dedup)-1] == b {
			continue
		}
		dedup = append(dedup, b)
	}
	return dedup
}

// Histogram is a fixed-bucket histogram safe for concurrent Observe:
// per-bucket atomic counts plus a CAS-maintained float64 sum. Buckets
// are upper bounds; observations beyond the last bound land in the
// implicit +Inf bucket.
type Histogram struct {
	upper   []float64      // sorted finite upper bounds
	counts  []atomic.Int64 // len(upper)+1; last is the +Inf bucket
	sumBits atomic.Uint64  // float64 bits of the running sum
}

func newHistogram(upper []float64) *Histogram {
	return &Histogram{upper: upper, counts: make([]atomic.Int64, len(upper)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.upper, v) // first bound >= v
	h.counts[i].Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// HistogramSnapshot is a point-in-time copy of a histogram: per-bucket
// (non-cumulative) counts aligned with Upper, the +Inf overflow count
// in Counts[len(Upper)], the running sum and the total count.
type HistogramSnapshot struct {
	Upper  []float64
	Counts []int64
	Sum    float64
	Count  int64
}

// Snapshot copies the histogram's current state. Concurrent Observes
// may land between bucket reads; each observation is still counted
// exactly once in some later snapshot.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{Upper: h.upper, Counts: make([]int64, len(h.counts))}
	for i := range h.counts {
		c := h.counts[i].Load()
		s.Counts[i] = c
		s.Count += c
	}
	s.Sum = math.Float64frombits(h.sumBits.Load())
	return s
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 {
	var n int64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) from the bucket counts
// by linear interpolation within the bucket holding the target rank —
// the same estimate PromQL's histogram_quantile computes. Observations
// in the +Inf bucket clamp to the largest finite bound. Returns 0 when
// the histogram is empty.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || len(s.Upper) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	cum := int64(0)
	for i, upper := range s.Upper {
		prev := cum
		cum += s.Counts[i]
		if float64(cum) >= rank {
			lower := 0.0
			if i > 0 {
				lower = s.Upper[i-1]
			}
			if s.Counts[i] == 0 {
				return upper
			}
			frac := (rank - float64(prev)) / float64(s.Counts[i])
			return lower + (upper-lower)*frac
		}
	}
	return s.Upper[len(s.Upper)-1]
}

// Quantile snapshots the histogram and estimates the q-quantile.
func (h *Histogram) Quantile(q float64) float64 { return h.Snapshot().Quantile(q) }

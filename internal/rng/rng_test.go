package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("seeds 1 and 2 collided %d/100 times", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	a := Split(7, 0)
	b := Split(7, 1)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("split streams collided %d/100 times", same)
	}
}

func TestSplitDeterminism(t *testing.T) {
	f := func(seed, idx uint64) bool {
		a := Split(seed, idx)
		b := Split(seed, idx)
		for i := 0; i < 16; i++ {
			if a.Uint64() != b.Uint64() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 100000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(11)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("uniform mean %v too far from 0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(5)
	seen := make(map[int]bool)
	for i := 0; i < 10000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn out of range: %d", v)
		}
		seen[v] = true
	}
	for i := 0; i < 7; i++ {
		if !seen[i] {
			t.Fatalf("Intn(7) never produced %d", i)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(9)
	const n = 200000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean %v too far from 0", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Fatalf("normal variance %v too far from 1", variance)
	}
}

func TestExpMean(t *testing.T) {
	r := New(13)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Exp(2.0)
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.02 {
		t.Fatalf("exp(rate=2) mean %v too far from 0.5", mean)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(21)
	out := make([]int32, 50)
	r.Perm(out)
	seen := make(map[int32]bool)
	for _, v := range out {
		if v < 0 || int(v) >= len(out) {
			t.Fatalf("perm value out of range: %d", v)
		}
		if seen[v] {
			t.Fatalf("perm repeated value %d", v)
		}
		seen[v] = true
	}
}

func TestShufflePreservesMultiset(t *testing.T) {
	r := New(23)
	s := []int{1, 2, 3, 4, 5, 6, 7, 8}
	Shuffle(r, s)
	sum := 0
	for _, v := range s {
		sum += v
	}
	if sum != 36 {
		t.Fatalf("shuffle changed elements, sum=%d", sum)
	}
}

func TestBoolProbability(t *testing.T) {
	r := New(31)
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	frac := float64(hits) / n
	if math.Abs(frac-0.3) > 0.01 {
		t.Fatalf("Bool(0.3) frequency %v", frac)
	}
}

func TestReseedResets(t *testing.T) {
	r := New(77)
	first := make([]uint64, 8)
	for i := range first {
		first[i] = r.Uint64()
	}
	r.Reseed(77)
	for i := range first {
		if got := r.Uint64(); got != first[i] {
			t.Fatalf("reseed did not reset stream at %d", i)
		}
	}
}

// The generator itself, pinned: from the state {1, 2, 3, 4} xoshiro256**
// yields the reference implementation's published first outputs. Every
// downstream table (RR sets, cascades, seeds) rests on this stream.
func TestXoshiro256StarStarVector(t *testing.T) {
	want := []uint64{11520, 0, 1509978240, 1215971899390074240, 1216172134540287360, 607988272756665600}
	r := &RNG{1, 2, 3, 4}
	for i, w := range want {
		if got := r.Uint64(); got != w {
			t.Fatalf("output %d = %d, want %d", i, got, w)
		}
	}
	st := RNG{1, 2, 3, 4}
	for i, w := range want {
		var got uint64
		if got, st = st.Next(); got != w {
			t.Fatalf("Next output %d = %d, want %d", i, got, w)
		}
	}
}

// Next on a copied state and Uint64 through the pointer are one stream:
// the same 10^4 values from several split seeds, the same state after,
// and Next leaves its receiver as it was.
func TestNextIsUint64(t *testing.T) {
	for _, seed := range []uint64{0, 1, 42, 1 << 63} {
		for _, index := range []uint64{0, 7, 1 << 40} {
			r := Split(seed, index)
			st := *r
			for i := 0; i < 10000; i++ {
				if a, _ := st.Next(); a != func() uint64 { b, _ := st.Next(); return b }() {
					t.Fatalf("Split(%d,%d) draw %d: Next moved its receiver", seed, index, i)
				}
				var v uint64
				v, st = st.Next()
				if want := r.Uint64(); v != want {
					t.Fatalf("Split(%d,%d) draw %d: Next %d, Uint64 %d", seed, index, i, v, want)
				}
			}
			if st != *r {
				t.Fatalf("Split(%d,%d): states differ after 10^4 draws", seed, index)
			}
		}
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkFloat64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Float64()
	}
}

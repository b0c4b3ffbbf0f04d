// Package rng provides a small, fast, splittable pseudo-random number
// generator used throughout the library.
//
// Reproducibility is a first-class requirement for the experiment harness:
// a Monte-Carlo estimate must be identical regardless of how many worker
// goroutines computed it. To that end every simulation run derives its own
// independent stream from (masterSeed, runIndex) via SplitMix64, and the
// per-stream generator is xoshiro256**, which is fast, allocation-free and
// passes BigCrush.
package rng

import (
	"math"
	"math/bits"
)

// RNG is a single xoshiro256** stream. It is not safe for concurrent use;
// derive one per goroutine (or per simulation run) with New or Split.
type RNG struct {
	s0, s1, s2, s3 uint64
}

// splitmix64 advances the state and returns the next SplitMix64 output.
// It is used only for seeding, as recommended by the xoshiro authors.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a generator seeded from the given seed. Two calls with the
// same seed yield identical streams.
func New(seed uint64) *RNG {
	r := &RNG{}
	r.Reseed(seed)
	return r
}

// SplitSeed derives the seed of the index-th sub-stream of the given
// master seed. Reseed(SplitSeed(s,i)) and Split(s,i) yield identical
// streams; exposing the derivation lets hot loops reuse one generator.
func SplitSeed(seed, index uint64) uint64 {
	mix := seed
	_ = splitmix64(&mix)
	return mix ^ index*0xd1342543de82ef95
}

// Split derives an independent stream for the given index. It is the
// canonical way to obtain per-run generators: Split(i) and Split(j) are
// decorrelated for i != j because the (seed,index) pair is first diffused
// through SplitMix64.
func Split(seed uint64, index uint64) *RNG {
	r := &RNG{}
	r.Reseed(SplitSeed(seed, index))
	return r
}

// Reseed reinitializes the stream in place, avoiding an allocation when a
// scratch RNG is reused across simulation runs.
func (r *RNG) Reseed(seed uint64) {
	state := seed
	r.s0 = splitmix64(&state)
	r.s1 = splitmix64(&state)
	r.s2 = splitmix64(&state)
	r.s3 = splitmix64(&state)
	// xoshiro256** must not start from the all-zero state; SplitMix64 of any
	// seed cannot produce four zero words, but guard anyway.
	if r.s0|r.s1|r.s2|r.s3 == 0 {
		r.s0 = 0x9e3779b97f4a7c15
	}
}

// Next is the one xoshiro256** step: it returns the next 64 random bits
// and the state after them, leaving r as it was. A hot loop that copies
// its stream into a local (st := *r; v, st = st.Next(); …; *r = st) keeps
// the four state words in registers across draws instead of loading and
// storing them through a pointer at every one; the values are Uint64's.
func (r RNG) Next() (uint64, RNG) {
	result := bits.RotateLeft64(r.s1*5, 7) * 9
	t := r.s1 << 17
	r.s2 ^= r.s0
	r.s3 ^= r.s1
	r.s1 ^= r.s2
	r.s0 ^= r.s3
	r.s2 ^= t
	r.s3 = bits.RotateLeft64(r.s3, 45)
	return result, r
}

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	var v uint64
	v, *r = r.Next()
	return v
}

// Float64 returns a uniform value in [0,1) with 53 bits of precision.
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0,n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Int31n returns a uniform int32 in [0,n). It panics if n <= 0.
func (r *RNG) Int31n(n int32) int32 {
	if n <= 0 {
		panic("rng: Int31n called with non-positive n")
	}
	return int32(r.Uint64() % uint64(n))
}

// Range returns a uniform value in [lo,hi).
func (r *RNG) Range(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool {
	return r.Float64() < p
}

// NormFloat64 returns a standard normal variate using the polar
// (Marsaglia) method. Good enough statistically for opinion generation and
// dependency-free.
func (r *RNG) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// Exp returns an exponential variate with the given rate (mean 1/rate).
func (r *RNG) Exp(rate float64) float64 {
	if rate <= 0 {
		panic("rng: Exp called with non-positive rate")
	}
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -math.Log(u) / rate
}

// Perm fills out with a uniform random permutation of 0..len(out)-1.
func (r *RNG) Perm(out []int32) {
	for i := range out {
		out[i] = int32(i)
	}
	for i := len(out) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		out[i], out[j] = out[j], out[i]
	}
}

// Shuffle performs an in-place Fisher–Yates shuffle of out.
func Shuffle[T any](r *RNG, out []T) {
	for i := len(out) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		out[i], out[j] = out[j], out[i]
	}
}

package graph

import "math"

// Fingerprint returns a 64-bit content hash of the graph: topology (CSR
// offsets and targets) plus every model parameter (p, ϕ, LT weight,
// opinions). Two graphs with identical fingerprints are, for hashing
// purposes, the same diffusion instance, which is what lets a sketch
// snapshot refuse to load against a different graph than it was built on.
// FNV-1a over the raw arrays: stable across processes and releases of the
// binary format, not cryptographic.
//
// The hash walks every array, so the value is kept in the graph once
// computed: a registered snapshot is hashed by the registry, by every
// sketch bound to it and by each Matches against another instance, and
// all but the first are a load. Every Set* mutator clears it. Zero stands
// for "not hashed yet" — a graph that really hashes to zero is merely
// hashed again.
func (g *Graph) Fingerprint() uint64 {
	if fp := g.fp.Load(); fp != 0 {
		return fp
	}
	fp := g.hash()
	g.fp.Store(fp)
	return fp
}

// hash computes the fingerprint from the arrays as they are now.
func (g *Graph) hash() uint64 {
	const (
		offset = 0xcbf29ce484222325
		prime  = 0x00000100000001b3
	)
	h := uint64(offset)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime
			v >>= 8
		}
	}
	mix(uint64(g.n))
	mix(uint64(len(g.outTo)))
	for _, v := range g.outStart {
		mix(uint64(v))
	}
	for _, v := range g.outTo {
		mix(uint64(uint32(v)))
	}
	// A per-head column is hashed arc by arc, so the value does not
	// depend on the form.
	for _, c := range []column{g.prob, {v: g.outPhi}, g.wt} {
		_ = c.eachChunk(g.outTo, func(vals []float64) error { // mixing cannot fail
			for _, f := range vals {
				mix(math.Float64bits(f))
			}
			return nil
		})
	}
	for _, f := range g.opinion {
		mix(math.Float64bits(f))
	}
	return h
}

package ris

import "fmt"

// Canonical defaults for the two parameters that key every RIS-family
// sample: the IMM/TIM+ approximation slack ε and the master sampling
// seed. They are spelled in exactly one place because at least four
// layers resolve them independently — TIMOptions, sketch.Params, the
// facade's Options and the service's sketch-build/lookup handlers — and
// a drifted default silently splits what should be one deterministic
// sample (a `{}` request must hit the sketch built from a spelled-out
// default spec, and vice versa).

// CanonicalEpsilon resolves the IMM/TIM+ approximation slack: non-positive
// (the zero value) means the paper's default 0.1.
func CanonicalEpsilon(eps float64) float64 {
	if eps <= 0 {
		return 0.1
	}
	return eps
}

// CheckEpsilon refuses an approximation slack outside (0,1] — negative,
// NaN or above 1 — before CanonicalEpsilon would quietly default it or
// IMM's θ bound collapse to a handful of sets. Zero, the default, passes.
func CheckEpsilon(eps float64) error {
	if eps >= 0 && eps <= 1 {
		return nil
	}
	return fmt.Errorf("epsilon %v out of (0,1]", eps)
}

// CanonicalSeed resolves the master sampling seed: zero means the
// default seed 1.
func CanonicalSeed(seed uint64) uint64 {
	if seed == 0 {
		return 1
	}
	return seed
}

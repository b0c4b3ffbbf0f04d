package ris

import "math"

// IMM's martingale bounds (Tang, Shi, Xiao — SIGMOD'15, Sec. 4), exported
// so the selector and the reusable sketch index compute θ from one source
// of truth.

// immEll inflates the failure exponent ℓ so the union bound over IMM's
// two phases still yields success probability 1−1/n^ℓ (IMM Sec. 4.3).
func immEll(n, ell float64) float64 { return ell * (1 + math.Ln2/math.Log(n)) }

// IMMEpsPrime returns ε' = √2·ε, the slack IMM's OPT lower-bounding phase
// runs at.
func IMMEpsPrime(eps float64) float64 { return math.Sqrt2 * eps }

// IMMLowerBound returns n·F/(1+ε'), the lower bound on OPT_k that IMM
// reads off a k-seed set covering the fraction frac of the sampled sets.
func IMMLowerBound(n, frac, eps float64) float64 { return n * frac / (1 + IMMEpsPrime(eps)) }

// IMMLambdaPrime returns λ' for the OPT-guessing phase: a guess x of OPT
// is tested on θ_i = λ'/x RR sets.
func IMMLambdaPrime(n float64, k int, eps, ell float64) float64 {
	ell = immEll(n, ell)
	epsPrime := IMMEpsPrime(eps)
	return (2 + 2*epsPrime/3) * (logNChooseK(n, float64(k)) + ell*math.Log(n) + math.Log(math.Log2(n))) * n / (epsPrime * epsPrime)
}

// IMMLambdaStar returns λ* for the node-selection phase: θ = λ*/LB RR
// sets suffice for a (1−1/e−ε)-approximation with probability 1−1/n^ℓ.
func IMMLambdaStar(n float64, k int, eps, ell float64) float64 {
	ell = immEll(n, ell)
	logn := math.Log(n)
	alpha := math.Sqrt(ell*logn + math.Ln2)
	beta := math.Sqrt((1 - 1/math.E) * (logNChooseK(n, float64(k)) + ell*logn + math.Ln2))
	return 2 * n * (((1-1/math.E)*alpha + beta) * ((1-1/math.E)*alpha + beta)) / (eps * eps)
}

// IMMTheta returns θ = ⌈λ*(n,k,ε,ℓ)/lb⌉ clamped to at least 1 — the
// number of RR sets the martingale bound demands given a lower bound lb
// on the optimal spread.
func IMMTheta(n float64, k int, eps, ell, lb float64) int {
	if lb < 1 {
		lb = 1
	}
	theta := int(math.Ceil(IMMLambdaStar(n, k, eps, ell) / lb))
	if theta < 1 {
		theta = 1
	}
	return theta
}

// Package dist implements the probability distributions used to model
// service times, object sizes and latencies: Gamma, Exponential, Degenerate,
// Normal, Lognormal, Uniform, finite Mixtures and Empirical
// distributions, together with fitting routines (method of moments, MLE) and
// Kolmogorov–Smirnov goodness of fit. Every distribution exposes its
// Laplace–Stieltjes transform so the analytic model can operate in the
// transform domain.
package dist

import (
	"math"
	"math/rand"
)

// Distribution is a probability distribution on the real line. The model
// uses nonnegative distributions; Normal is included because the paper's
// calibration step compares it as a candidate fit.
type Distribution interface {
	// Mean returns the expected value.
	Mean() float64
	// Variance returns the variance.
	Variance() float64
	// CDF returns P(X <= x).
	CDF(x float64) float64
	// Quantile returns inf{x : CDF(x) >= p} for p in (0,1).
	Quantile(p float64) float64
	// Sample draws a random variate using rng.
	Sample(rng *rand.Rand) float64
	// LST returns the Laplace–Stieltjes transform E[e^{-sX}] at s.
	// For distributions with support on negatives this is the bilateral
	// transform and may diverge for some s; callers in this module only
	// use LSTs of nonnegative distributions.
	LST(s complex128) complex128
	// String describes the distribution and its parameters.
	String() string
}

// StdDev returns the standard deviation of d.
func StdDev(d Distribution) float64 { return math.Sqrt(d.Variance()) }

// SCV returns the squared coefficient of variation Var/Mean².
func SCV(d Distribution) float64 {
	m := d.Mean()
	if m == 0 {
		return math.Inf(1)
	}
	return d.Variance() / (m * m)
}

// SecondMoment returns E[X²] = Var + Mean².
func SecondMoment(d Distribution) float64 {
	m := d.Mean()
	return d.Variance() + m*m
}

// SampleN draws n variates from d.
func SampleN(d Distribution, rng *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = d.Sample(rng)
	}
	return out
}

// quantileGrowthCap bounds the geometric bracket growth of
// quantileByBisection: 600 doublings from any positive seed exceed every
// finite float64, so hitting the cap means the CDF never reaches p.
const quantileGrowthCap = 600

// quantileByBisection inverts a CDF numerically on a bracket grown
// geometrically from the mean. It is the shared fallback for distributions
// without a closed-form quantile.
//
// Sentinel: +Inf means no finite bracket captures p — the CDF saturates
// below p (a heavy tail with p → 1, or one numerically clamped short of 1),
// the bracket cannot expand (degenerate moments, e.g. a fitted point mass
// with mean = sd = 0 driven negative by noise), or the CDF returns NaN
// during bracket growth. This matches Quantile(1) for every distribution in
// the package, so callers need no extra case.
func quantileByBisection(cdf func(float64) float64, mean, sd, p float64) float64 {
	if p <= 0 {
		return 0
	}
	if p >= 1 {
		return math.Inf(1)
	}
	hi := mean + 2*sd + 1e-12
	if !(hi > 0) {
		// Garbage moments (negative or NaN) would freeze the doubling loop
		// at hi <= 0; restart the bracket from the smallest sensible seed.
		hi = 1e-12
	}
	for i := 0; ; i++ {
		v := cdf(hi)
		if math.IsNaN(v) {
			return math.Inf(1)
		}
		if v >= p {
			break
		}
		hi *= 2
		if i >= quantileGrowthCap || math.IsInf(hi, 1) {
			return math.Inf(1)
		}
	}
	lo := 0.0
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if cdf(mid) < p {
			lo = mid
		} else {
			hi = mid
		}
		if hi-lo < 1e-12*(1+hi) {
			break
		}
	}
	return (lo + hi) / 2
}

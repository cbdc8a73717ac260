// Package lst provides the Laplace–Stieltjes transform algebra the analytic
// model is built on. A Transform carries both the transform function
// E[e^{-sX}] and the analytic mean of the underlying nonnegative random
// variable, so that convolution and mixing propagate means without
// numerical differentiation. CDFs are recovered by numerical
// inversion (package numeric).
package lst

import (
	"math"

	"cosmodel/internal/dist"
	"cosmodel/internal/numeric"
)

// Transform is the Laplace–Stieltjes transform of a nonnegative random
// variable together with its mean.
type Transform struct {
	// F evaluates E[e^{-sX}] at complex frequency s.
	F numeric.TransformFunc
	// Mean is E[X].
	Mean float64
}

// One is the transform of the constant 0 (the convolution identity).
func One() Transform {
	return Transform{F: func(complex128) complex128 { return 1 }, Mean: 0}
}

// FromDist wraps a distribution's LST and mean.
func FromDist(d dist.Distribution) Transform {
	return Transform{F: d.LST, Mean: d.Mean()}
}

// Convolve returns the transform of the independent sum X₁+…+Xₙ: the product
// of the transforms.
func Convolve(ts ...Transform) Transform {
	switch len(ts) {
	case 0:
		return One()
	case 1:
		return ts[0]
	}
	mean := 0.0
	fs := make([]numeric.TransformFunc, len(ts))
	for i, t := range ts {
		mean += t.Mean
		fs[i] = t.F
	}
	return Transform{
		F: func(s complex128) complex128 {
			p := complex(1, 0)
			for _, f := range fs {
				p *= f(s)
			}
			return p
		},
		Mean: mean,
	}
}

// Mix returns the probabilistic mixture Σ wᵢ·Tᵢ with the given weights
// (which must be nonnegative; they are normalized).
func Mix(ts []Transform, weights []float64) Transform {
	if len(ts) == 0 || len(ts) != len(weights) {
		return One()
	}
	total := 0.0
	for _, w := range weights {
		total += w
	}
	if total <= 0 {
		return One()
	}
	mean := 0.0
	norm := make([]float64, len(weights))
	for i, w := range weights {
		norm[i] = w / total
		mean += norm[i] * ts[i].Mean
	}
	local := append([]Transform(nil), ts...)
	return Transform{
		F: func(s complex128) complex128 {
			var sum complex128
			for i, t := range local {
				sum += complex(norm[i], 0) * t.F(s)
			}
			return sum
		},
		Mean: mean,
	}
}

// CDF evaluates the CDF of the random variable behind t at time x using the
// given inverter, clamped to [0,1].
func CDF(inv numeric.Inverter, t Transform, x float64) float64 {
	return numeric.InvertCDF(inv, t.F, x)
}

// CDFBatch inverts the CDF behind t at every threshold in ts: entry i is
// CDF(inv, t, ts[i]).
func CDFBatch(inv numeric.Inverter, t Transform, ts []float64) []float64 {
	out := make([]float64, len(ts))
	for i, x := range ts {
		out[i] = CDF(inv, t, x)
	}
	return out
}

// SecondMomentNumeric estimates E[X²] from the transform by second
// differences at a step scaled to the mean. The Pollaczek–Khinchin mean
// waiting (queueing.MG1.WaitingLST) reads it, so every modeled E[Wbe], and
// through it each device's mean response, comes from this estimate.
func SecondMomentNumeric(t Transform) float64 {
	scale := math.Max(t.Mean, 1e-12)
	h := 1e-4 / scale
	f0 := 1.0
	f1 := real(t.F(complex(h, 0)))
	f2 := real(t.F(complex(2*h, 0)))
	return (f2 - 2*f1 + f0) / (h * h)
}

package dist

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
)

// ErrBadHyperExp reports invalid hyperexponential parameters.
var ErrBadHyperExp = errors.New("dist: invalid hyperexponential mean or SCV")

// HyperExp is a two-branch hyperexponential (mixture-of-exponentials)
// distribution: with probability weights[i] the value is
// Exponential(rates[i]). Its SCV is
// always >= 1, which makes it the standard two-moment match for
// high-variability service times in queueing models.
type HyperExp struct {
	rates   []float64
	weights []float64 // normalized
	cum     []float64
}

// NewHyperExpMeanSCV builds a balanced two-branch H2 distribution matching
// the given mean and squared coefficient of variation (scv >= 1). It uses
// the standard balanced-means parameterization:
//
//	p1 = (1 + sqrt((scv-1)/(scv+1)))/2,  p2 = 1-p1
//	r1 = 2·p1/mean,                      r2 = 2·p2/mean
func NewHyperExpMeanSCV(mean, scv float64) (*HyperExp, error) {
	if !(mean > 0) || math.IsInf(mean, 1) || !(scv >= 1) || math.IsInf(scv, 1) {
		return nil, fmt.Errorf("%w: mean=%v scv=%v (need a finite mean > 0 and scv >= 1)", ErrBadHyperExp, mean, scv)
	}
	p1 := (1 + math.Sqrt((scv-1)/(scv+1))) / 2
	p2 := 1 - p1
	return &HyperExp{
		rates:   []float64{2 * p1 / mean, 2 * p2 / mean},
		weights: []float64{p1, p2},
		cum:     []float64{p1, 1},
	}, nil
}

// Mean implements Distribution.
func (h *HyperExp) Mean() float64 {
	total := 0.0
	for i := range h.rates {
		total += h.weights[i] / h.rates[i]
	}
	return total
}

// Variance implements Distribution.
func (h *HyperExp) Variance() float64 {
	m := h.Mean()
	m2 := 0.0
	for i := range h.rates {
		m2 += h.weights[i] * 2 / (h.rates[i] * h.rates[i])
	}
	return m2 - m*m
}

// CDF implements Distribution.
func (h *HyperExp) CDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	total := 0.0
	for i := range h.rates {
		total += h.weights[i] * -math.Expm1(-h.rates[i]*x)
	}
	return total
}

// Quantile implements Distribution (numeric inversion).
func (h *HyperExp) Quantile(p float64) float64 {
	switch {
	case p < 0 || p > 1 || math.IsNaN(p):
		return math.NaN()
	case p == 0:
		return 0
	case p == 1:
		return math.Inf(1)
	}
	return quantileByBisection(h.CDF, h.Mean(), StdDev(h), p)
}

// Sample implements Distribution.
func (h *HyperExp) Sample(rng *rand.Rand) float64 {
	u := rng.Float64()
	for i, c := range h.cum {
		if u <= c {
			return rng.ExpFloat64() / h.rates[i]
		}
	}
	return rng.ExpFloat64() / h.rates[len(h.rates)-1]
}

// LST implements Distribution: Σ wᵢ·rᵢ/(s+rᵢ).
func (h *HyperExp) LST(s complex128) complex128 {
	var total complex128
	for i := range h.rates {
		r := complex(h.rates[i], 0)
		total += complex(h.weights[i], 0) * r / (s + r)
	}
	return total
}

// String implements Distribution.
func (h *HyperExp) String() string {
	var b strings.Builder
	b.WriteString("HyperExp(")
	for i := range h.rates {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%.4g@%.4g", h.weights[i], h.rates[i])
	}
	b.WriteString(")")
	return b.String()
}

var _ Distribution = (*HyperExp)(nil)

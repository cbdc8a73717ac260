package dist

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"cosmodel/internal/numeric"
)

// ErrFit reports that a fitting routine was given unusable data.
var ErrFit = errors.New("dist: cannot fit distribution to the given samples")

// Typed refinements of ErrFit (errors.Is(err, ErrFit) holds for both): the
// streaming calibration path feeds fitters small, possibly constant windows
// and needs to distinguish "wait for more data" from "fall back to a point
// mass".
var (
	// ErrTooFewSamples reports that the sample is too small for the family.
	ErrTooFewSamples = fmt.Errorf("%w: too few samples", ErrFit)
	// ErrZeroVariance reports a (numerically) constant sample: families
	// with a scale parameter have no maximum-likelihood fit.
	ErrZeroVariance = fmt.Errorf("%w: sample variance is zero", ErrFit)
	// ErrBadSamples reports NaN/Inf/nonpositive contamination that makes
	// the sample unusable for the requested family.
	ErrBadSamples = fmt.Errorf("%w: samples contain NaN, Inf or nonpositive values", ErrFit)
)

// FitDegenerate fits a point mass (the sample mean).
func FitDegenerate(samples []float64) (Degenerate, error) {
	if len(samples) == 0 {
		return Degenerate{}, ErrTooFewSamples
	}
	m, _ := meanVar(samples)
	if math.IsNaN(m) || math.IsInf(m, 0) {
		return Degenerate{}, ErrBadSamples
	}
	return Degenerate{Value: m}, nil
}

// FitExponential fits an exponential by maximum likelihood (rate = 1/mean).
func FitExponential(samples []float64) (Exponential, error) {
	if len(samples) == 0 {
		return Exponential{}, ErrTooFewSamples
	}
	m, _ := meanVar(samples)
	if math.IsNaN(m) || math.IsInf(m, 0) {
		return Exponential{}, ErrBadSamples
	}
	if m <= 0 {
		return Exponential{}, ErrBadSamples
	}
	return Exponential{Rate: 1 / m}, nil
}

// FitNormal fits a normal by maximum likelihood.
func FitNormal(samples []float64) (Normal, error) {
	if len(samples) < 2 {
		return Normal{}, ErrTooFewSamples
	}
	m, v := meanVar(samples)
	if math.IsNaN(m) || math.IsInf(m, 0) || math.IsNaN(v) || math.IsInf(v, 0) {
		return Normal{}, ErrBadSamples
	}
	if v <= 0 {
		return Normal{}, ErrZeroVariance
	}
	return Normal{Mu: m, Sigma: math.Sqrt(v)}, nil
}

// FitGamma fits a Gamma distribution by maximum likelihood: a method-of-
// moments start refined by Newton iterations on the MLE equation
// ln(k) - ψ(k) = ln(mean) - mean(log x). This is the calibration step behind
// the paper's Fig. 5.
func FitGamma(samples []float64) (Gamma, error) {
	if len(samples) < 2 {
		return Gamma{}, ErrTooFewSamples
	}
	m, v := meanVar(samples)
	if math.IsNaN(m) || math.IsInf(m, 0) || math.IsNaN(v) || math.IsInf(v, 0) {
		return Gamma{}, ErrBadSamples
	}
	if m <= 0 {
		return Gamma{}, ErrBadSamples
	}
	if v <= 0 {
		return Gamma{}, ErrZeroVariance
	}
	var logSum float64
	n := 0
	for _, x := range samples {
		if x <= 0 {
			continue // Gamma support is positive; skip zeros from cache hits
		}
		logSum += math.Log(x)
		n++
	}
	if n < 2 {
		return Gamma{}, ErrTooFewSamples
	}
	s := math.Log(m) - logSum/float64(n)
	k := m * m / v // method-of-moments start
	if s > 0 {
		// Standard closed-form start for the MLE equation.
		k = (3 - s + math.Sqrt((s-3)*(s-3)+24*s)) / (12 * s)
	}
	if k <= 0 || math.IsNaN(k) || math.IsInf(k, 0) {
		k = 1
	}
	for i := 0; i < 50; i++ {
		f := math.Log(k) - numeric.Digamma(k) - s
		df := 1/k - numeric.Trigamma(k)
		next := k - f/df
		if next <= 0 || math.IsNaN(next) {
			break
		}
		if math.Abs(next-k) < 1e-12*k {
			k = next
			break
		}
		k = next
	}
	g := Gamma{Shape: k, Rate: k / m}
	// A near-constant sample can push the MLE iteration to astronomically
	// large shapes whose LST evaluation over- or underflows; cap well inside
	// the safe range (SCV 1e-8 is indistinguishable from a point mass).
	const maxShape = 1e8
	if g.Shape > maxShape {
		return Gamma{}, ErrZeroVariance
	}
	if !isFinitePositive(g.Shape) || !isFinitePositive(g.Rate) {
		return Gamma{}, fmt.Errorf("%w: fitted parameters not finite (shape=%v rate=%v)", ErrFit, g.Shape, g.Rate)
	}
	return g, nil
}

// FitGammaOrDegenerate is FitGamma with the fallback the streaming
// calibrators need: a sample the Gamma family cannot represent — constant
// (zero variance) or a single positive observation — degrades to a point
// mass at the sample mean instead of an error, so a tiny or quiet window
// still yields a servable distribution. Errors are only returned for samples
// that carry no usable information at all (empty, nonpositive, NaN/Inf).
func FitGammaOrDegenerate(samples []float64) (Distribution, error) {
	g, err := FitGamma(samples)
	if err == nil {
		return g, nil
	}
	if !errors.Is(err, ErrZeroVariance) && !errors.Is(err, ErrTooFewSamples) {
		return nil, err
	}
	m, n := 0.0, 0
	for _, x := range samples {
		if x > 0 && !math.IsInf(x, 0) && !math.IsNaN(x) {
			m += x
			n++
		}
	}
	if n == 0 {
		return nil, ErrBadSamples
	}
	return Degenerate{Value: m / float64(n)}, nil
}

func isFinitePositive(x float64) bool {
	return x > 0 && !math.IsInf(x, 0) && !math.IsNaN(x)
}

// KolmogorovSmirnov returns the K-S statistic sup_x |F_n(x) - F(x)| between
// the samples' empirical CDF and the candidate distribution.
func KolmogorovSmirnov(samples []float64, d Distribution) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return KolmogorovSmirnovSorted(s, d)
}

// KolmogorovSmirnovSorted is KolmogorovSmirnov over samples already sorted
// ascending (by sort.Float64s, for the same statistic to the last bit); it
// neither copies nor reorders them.
func KolmogorovSmirnovSorted(s []float64, d Distribution) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	n := float64(len(s))
	maxDev := 0.0
	for i, x := range s {
		f := d.CDF(x)
		lo := float64(i) / n
		hi := float64(i+1) / n
		if dev := math.Abs(f - lo); dev > maxDev {
			maxDev = dev
		}
		if dev := math.Abs(f - hi); dev > maxDev {
			maxDev = dev
		}
	}
	return maxDev
}

// FitResult is one candidate from FitBest.
type FitResult struct {
	Name string
	Dist Distribution
	KS   float64
}

// FitBest fits the paper's four candidate families (Exponential, Degenerate,
// Normal, Gamma) and ranks them by K-S statistic, best first. Families that
// fail to fit are skipped.
func FitBest(samples []float64) ([]FitResult, error) {
	if len(samples) == 0 {
		return nil, ErrFit
	}
	var results []FitResult
	if d, err := FitExponential(samples); err == nil {
		results = append(results, FitResult{"exponential", d, KolmogorovSmirnov(samples, d)})
	}
	if d, err := FitDegenerate(samples); err == nil {
		results = append(results, FitResult{"degenerate", d, KolmogorovSmirnov(samples, d)})
	}
	if d, err := FitNormal(samples); err == nil {
		results = append(results, FitResult{"normal", d, KolmogorovSmirnov(samples, d)})
	}
	if d, err := FitGamma(samples); err == nil {
		results = append(results, FitResult{"gamma", d, KolmogorovSmirnov(samples, d)})
	}
	if len(results) == 0 {
		return nil, ErrFit
	}
	sort.Slice(results, func(i, j int) bool { return results[i].KS < results[j].KS })
	return results, nil
}

func meanVar(samples []float64) (mean, variance float64) {
	n := float64(len(samples))
	for _, v := range samples {
		mean += v
	}
	mean /= n
	for _, v := range samples {
		d := v - mean
		variance += d * d
	}
	variance /= n
	return mean, variance
}

package dist

import (
	"errors"
	"math"
	"testing"
)

// The streaming calibrators feed the fitters tiny and degenerate windows;
// these tests pin the contract they rely on: typed errors (never NaN/Inf
// parameters) and the Degenerate fallback.

func TestFitGammaDegenerateInputs(t *testing.T) {
	cases := []struct {
		name    string
		samples []float64
		want    error
	}{
		{"empty", nil, ErrTooFewSamples},
		{"single", []float64{1e-3}, ErrTooFewSamples},
		{"constant", []float64{2e-3, 2e-3, 2e-3, 2e-3}, ErrZeroVariance},
		{"all zero", []float64{0, 0, 0}, ErrFit},
		{"all negative", []float64{-1, -2, -3}, ErrBadSamples},
		{"nan poisoned", []float64{1e-3, math.NaN(), 2e-3}, ErrBadSamples},
		{"inf poisoned", []float64{1e-3, math.Inf(1), 2e-3}, ErrBadSamples},
		{"one positive among zeros", []float64{0, 0, 5e-3}, ErrTooFewSamples},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g, err := FitGamma(tc.samples)
			if err == nil {
				t.Fatalf("FitGamma(%v) = %v, want error", tc.samples, g)
			}
			if !errors.Is(err, tc.want) {
				t.Errorf("FitGamma(%v) error = %v, want %v", tc.samples, err, tc.want)
			}
			if !errors.Is(err, ErrFit) {
				t.Errorf("FitGamma(%v) error %v does not wrap ErrFit", tc.samples, err)
			}
		})
	}
}

func TestFitGammaNearConstantNeverInvalid(t *testing.T) {
	// Variance tiny but nonzero: either a valid finite fit or a typed error,
	// never NaN/Inf parameters.
	samples := []float64{1e-3, 1e-3, 1e-3, 1e-3 + 1e-18}
	g, err := FitGamma(samples)
	if err != nil {
		if !errors.Is(err, ErrFit) {
			t.Fatalf("error %v does not wrap ErrFit", err)
		}
		return
	}
	for _, v := range []float64{g.Shape, g.Rate, g.Mean(), g.Variance()} {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			t.Fatalf("fit produced invalid parameter: %+v", g)
		}
	}
}

func TestFitGammaOrDegenerate(t *testing.T) {
	// Constant window degrades to a point mass at the mean.
	d, err := FitGammaOrDegenerate([]float64{3e-3, 3e-3, 3e-3})
	if err != nil {
		t.Fatal(err)
	}
	if dg, ok := d.(Degenerate); !ok || math.Abs(dg.Value-3e-3) > 1e-15 {
		t.Errorf("constant sample fit = %v, want Degenerate{3e-3}", d)
	}
	// Single positive observation: point mass too.
	d, err = FitGammaOrDegenerate([]float64{7e-3})
	if err != nil {
		t.Fatal(err)
	}
	if dg, ok := d.(Degenerate); !ok || math.Abs(dg.Value-7e-3) > 1e-15 {
		t.Errorf("single sample fit = %v, want Degenerate{7e-3}", d)
	}
	// Healthy sample still fits a Gamma.
	d, err = FitGammaOrDegenerate([]float64{1e-3, 2e-3, 3e-3, 4e-3, 5e-3})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := d.(Gamma); !ok {
		t.Errorf("varied sample fit = %T, want Gamma", d)
	}
	// Nothing usable at all.
	if _, err := FitGammaOrDegenerate([]float64{0, 0}); !errors.Is(err, ErrFit) {
		t.Errorf("all-zero fallback error = %v, want ErrFit", err)
	}
	if _, err := FitGammaOrDegenerate(nil); !errors.Is(err, ErrFit) {
		t.Errorf("empty fallback error = %v, want ErrFit", err)
	}
	// NaN contamination is not silently repaired.
	if _, err := FitGammaOrDegenerate([]float64{1e-3, math.NaN(), 2e-3}); !errors.Is(err, ErrBadSamples) {
		t.Errorf("NaN fallback error = %v, want ErrBadSamples", err)
	}
}

func TestFitFamiliesTypedErrors(t *testing.T) {
	constant := []float64{1.5, 1.5, 1.5}
	if _, err := FitNormal(constant); !errors.Is(err, ErrZeroVariance) {
		t.Errorf("FitNormal(constant) = %v, want ErrZeroVariance", err)
	}
	if _, err := FitNormal([]float64{1}); !errors.Is(err, ErrTooFewSamples) {
		t.Errorf("FitNormal(single) = %v, want ErrTooFewSamples", err)
	}
	if _, err := FitExponential(nil); !errors.Is(err, ErrTooFewSamples) {
		t.Errorf("FitExponential(empty) = %v, want ErrTooFewSamples", err)
	}
	if _, err := FitExponential([]float64{math.NaN(), 1}); !errors.Is(err, ErrBadSamples) {
		t.Errorf("FitExponential(NaN) = %v, want ErrBadSamples", err)
	}
	if _, err := FitDegenerate([]float64{math.Inf(1)}); !errors.Is(err, ErrBadSamples) {
		t.Errorf("FitDegenerate(Inf) = %v, want ErrBadSamples", err)
	}
}

package numeric

import (
	"math"
	"testing"
)

func TestIntegrateAdaptivePolynomial(t *testing.T) {
	got := IntegrateAdaptive(func(x float64) float64 { return 3*x*x + 2*x + 1 }, 0, 2, 1e-12)
	want := 8.0 + 4 + 2
	if math.Abs(got-want) > 1e-10 {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestIntegrateAdaptiveSine(t *testing.T) {
	got := IntegrateAdaptive(math.Sin, 0, math.Pi, 1e-12)
	if math.Abs(got-2) > 1e-9 {
		t.Errorf("∫sin over [0,π] = %v, want 2", got)
	}
}

func TestIntegrateAdaptiveEmptyInterval(t *testing.T) {
	if got := IntegrateAdaptive(math.Exp, 1, 1, 1e-9); got != 0 {
		t.Errorf("got %v, want 0", got)
	}
}

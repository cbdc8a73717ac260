package numeric

import (
	"math"
	"testing"
)

func TestCheckCDF(t *testing.T) {
	cases := []struct {
		v    float64
		want bool // valid
	}{
		{0, true}, {1, true}, {0.5, true},
		{-0.04, true}, {1.04, true}, // inside the slack: clamped, not broken
		{-0.2, false}, {1.2, false},
		{math.NaN(), false},
		{math.Inf(1), false}, {math.Inf(-1), false},
	}
	for _, c := range cases {
		reason := CheckCDF(c.v)
		if (reason == "") != c.want {
			t.Errorf("CheckCDF(%v) = %q, want valid=%v", c.v, reason, c.want)
		}
	}
}

// expPDF100 is the transform of an Exp(λ=100) density; its CDF at t is
// 1-exp(-100t).
func expPDF100(s complex128) complex128 { return 100 / (s + 100) }

// TestDefaultFallbacksDiffer sanity-checks the chain offers genuinely
// distinct algorithms (distinct names drive the dedup).
func TestDefaultFallbacksDiffer(t *testing.T) {
	fbs := DefaultFallbacks()
	if len(fbs) < 2 {
		t.Fatalf("fallback chain %v too short", fbs)
	}
	seen := map[string]bool{}
	for _, fb := range fbs {
		if seen[fb.Name()] {
			t.Errorf("duplicate fallback %q", fb.Name())
		}
		seen[fb.Name()] = true
	}
	// Both must actually invert a well-behaved transform.
	for _, fb := range fbs {
		v := Invert(fb, func(s complex128) complex128 { return expPDF100(s) / s }, 0.02)
		if math.Abs(v-(1-math.Exp(-2))) > 1e-3 {
			t.Errorf("%s inverted to %v", fb.Name(), v)
		}
	}
}

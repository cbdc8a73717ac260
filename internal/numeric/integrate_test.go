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

// TestGaussLegendre01 checks the rule's defining property: every monomial
// u^p of degree p ≤ 2n−1 integrates to 1/(p+1) on [0,1], so the weights sum
// to 1, and the nodes lie strictly inside (0,1) in increasing order.
func TestGaussLegendre01(t *testing.T) {
	for _, n := range []int{1, 2, 3, 8, 16, 31, 32, 64} {
		u, w := GaussLegendre01(n)
		for j := range u {
			if u[j] <= 0 || u[j] >= 1 || (j > 0 && u[j] <= u[j-1]) || w[j] <= 0 {
				t.Fatalf("n=%d: node %d = %v (weight %v) out of order or range", n, j, u[j], w[j])
			}
		}
		for p := 0; p <= 2*n-1; p++ {
			got := 0.0
			for j := range u {
				got += w[j] * math.Pow(u[j], float64(p))
			}
			if want := 1 / float64(p+1); math.Abs(got-want) > 1e-14 {
				t.Errorf("n=%d: ∫u^%d = %.17g, want %.17g (diff %g)", n, p, got, want, got-want)
			}
		}
	}
}

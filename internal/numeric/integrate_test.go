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

func TestTrapezoid(t *testing.T) {
	xs := []float64{0, 1, 2, 3}
	ys := []float64{0, 1, 2, 3}
	if got := Trapezoid(xs, ys); math.Abs(got-4.5) > 1e-12 {
		t.Errorf("got %v, want 4.5", got)
	}
	if got := Trapezoid([]float64{0}, []float64{1}); !math.IsNaN(got) {
		t.Errorf("short input should give NaN, got %v", got)
	}
	if got := Trapezoid(xs, ys[:3]); !math.IsNaN(got) {
		t.Errorf("mismatched input should give NaN, got %v", got)
	}
}

func TestBisect(t *testing.T) {
	root, err := Bisect(func(x float64) float64 { return x*x - 2 }, 0, 2, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(root-math.Sqrt2) > 1e-10 {
		t.Errorf("root = %v, want sqrt(2)", root)
	}
	if _, err := Bisect(func(x float64) float64 { return x*x + 1 }, -1, 1, 1e-12); err != ErrNoBracket {
		t.Errorf("want ErrNoBracket, got %v", err)
	}
}

func TestBisectExactEndpoints(t *testing.T) {
	f := func(x float64) float64 { return x - 1 }
	if root, err := Bisect(f, 1, 2, 1e-12); err != nil || root != 1 {
		t.Errorf("root at left endpoint: got %v, %v", root, err)
	}
	if root, err := Bisect(f, 0, 1, 1e-12); err != nil || root != 1 {
		t.Errorf("root at right endpoint: got %v, %v", root, err)
	}
}

func TestBrent(t *testing.T) {
	root, err := Brent(func(x float64) float64 { return math.Cos(x) - x }, 0, 1, 1e-14)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(math.Cos(root)-root) > 1e-12 {
		t.Errorf("f(root) = %v", math.Cos(root)-root)
	}
	if _, err := Brent(func(x float64) float64 { return 1.0 }, 0, 1, 1e-12); err != ErrNoBracket {
		t.Errorf("want ErrNoBracket, got %v", err)
	}
}

func TestNewtonWithFallback(t *testing.T) {
	f := func(x float64) float64 { return x*x*x - 8 }
	df := func(x float64) float64 { return 3 * x * x }
	root, err := NewtonWithFallback(f, df, 1, 0, 10, 1e-13)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(root-2) > 1e-10 {
		t.Errorf("root = %v, want 2", root)
	}
	// Degenerate derivative must fall back to bisection.
	root, err = NewtonWithFallback(f, func(float64) float64 { return 0 }, 1, 0, 10, 1e-13)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(root-2) > 1e-9 {
		t.Errorf("fallback root = %v, want 2", root)
	}
}

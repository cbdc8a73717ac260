package lst

import (
	"math"
	"testing"
	"testing/quick"

	"cosmodel/internal/dist"
	"cosmodel/internal/numeric"
)

var inv = numeric.NewEuler()

func TestOneIsIdentity(t *testing.T) {
	one := One()
	if one.Mean != 0 {
		t.Errorf("mean = %v", one.Mean)
	}
	g := FromDist(dist.Gamma{Shape: 2, Rate: 5})
	c := Convolve(one, g, one)
	s := complex(1.2, 0.7)
	if got, want := c.F(s), g.F(s); got != want {
		t.Errorf("convolving with One changed transform: %v vs %v", got, want)
	}
	if c.Mean != g.Mean {
		t.Errorf("mean = %v, want %v", c.Mean, g.Mean)
	}
}

// delay is the transform of a deterministic delay c: e^{-s c}.
func delay(c float64) Transform { return FromDist(dist.Degenerate{Value: c}) }

func TestConvolveMeansAdd(t *testing.T) {
	a := FromDist(dist.Exponential{Rate: 2})     // mean .5
	b := FromDist(dist.Gamma{Shape: 3, Rate: 6}) // mean .5
	d := delay(0.25)
	c := Convolve(a, b, d)
	if math.Abs(c.Mean-1.25) > 1e-12 {
		t.Errorf("mean = %v, want 1.25", c.Mean)
	}
}

func TestConvolveExponentialsIsGamma(t *testing.T) {
	// Sum of two Exp(λ) is Gamma(2, λ).
	e := FromDist(dist.Exponential{Rate: 4})
	sum := Convolve(e, e)
	g := dist.Gamma{Shape: 2, Rate: 4}
	for _, x := range []float64{0.1, 0.3, 0.7, 1.5} {
		got := CDF(inv, sum, x)
		want := g.CDF(x)
		if math.Abs(got-want) > 1e-6 {
			t.Errorf("CDF(%v) = %v, want %v", x, got, want)
		}
	}
}

func TestDelayShiftsCDF(t *testing.T) {
	e := FromDist(dist.Exponential{Rate: 3})
	shifted := Convolve(e, delay(0.5))
	for _, x := range []float64{0.6, 1.0, 2.0} {
		got := CDF(inv, shifted, x)
		want := 1 - math.Exp(-3*(x-0.5))
		// The delay factor e^{-s/2} makes the inversion integrand
		// oscillatory; a few 1e-3 is the expected Euler accuracy here.
		if math.Abs(got-want) > 5e-3 {
			t.Errorf("CDF(%v) = %v, want %v", x, got, want)
		}
	}
	if got := CDF(inv, shifted, 0.3); got > 0.01 {
		t.Errorf("CDF before delay = %v, want ~0", got)
	}
}

func TestMix(t *testing.T) {
	a := delay(1)
	b := delay(3)
	m := Mix([]Transform{a, b}, []float64{1, 3})
	if math.Abs(m.Mean-2.5) > 1e-12 {
		t.Errorf("mean = %v, want 2.5", m.Mean)
	}
	if got := CDF(inv, m, 2); math.Abs(got-0.25) > 1e-3 {
		t.Errorf("CDF(2) = %v, want 0.25", got)
	}
	// Degenerate inputs fall back to One.
	if got := Mix(nil, nil); got.Mean != 0 {
		t.Errorf("empty mix mean = %v", got.Mean)
	}
	if got := Mix([]Transform{a}, []float64{0}); got.Mean != 0 {
		t.Errorf("zero-weight mix mean = %v", got.Mean)
	}
}

func TestSecondMomentNumeric(t *testing.T) {
	e := FromDist(dist.Exponential{Rate: 2}) // E[X²] = 2/λ² = 0.5
	got := SecondMomentNumeric(e)
	if math.Abs(got-0.5) > 1e-3 {
		t.Errorf("E[X²] = %v, want 0.5", got)
	}
}

// cacheFixture is a union-operation-like transform with atoms: a cache
// hit-or-miss disk read (zero with probability 0.6), a fixed delay, and a
// chunk read that is absent with probability 0.55.
func cacheFixture() Transform {
	return Convolve(
		Mix([]Transform{FromDist(dist.Gamma{Shape: 2, Rate: 100}), One()}, []float64{0.4, 0.6}),
		delay(0.001),
		Mix([]Transform{FromDist(dist.Gamma{Shape: 1.5, Rate: 80}), One()}, []float64{0.45, 0.55}),
	)
}

func TestCDFMonotoneProperty(t *testing.T) {
	u := cacheFixture()
	f := func(rawA, rawB float64) bool {
		a := math.Mod(math.Abs(rawA), 0.3)
		b := math.Mod(math.Abs(rawB), 0.3)
		if a > b {
			a, b = b, a
		}
		ca, cb := CDF(inv, u, a), CDF(inv, u, b)
		return cb >= ca-1e-6 && ca >= -1e-9 && cb <= 1+1e-9
	}
	cfg := &quick.Config{MaxCount: 40}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestCDFBatchMatchesCDF(t *testing.T) {
	u := cacheFixture()
	ts := []float64{0.005, 0.02, 0.1, 0.3, 0, -1}
	got := CDFBatch(inv, u, ts)
	for i, x := range ts {
		if want := CDF(inv, u, x); math.Float64bits(got[i]) != math.Float64bits(want) {
			t.Errorf("CDFBatch[%d] (t=%v) = %v, CDF = %v", i, x, got[i], want)
		}
	}
	if got[4] != 0 || got[5] != 0 {
		t.Errorf("CDFBatch at t <= 0 = %v, %v, want 0", got[4], got[5])
	}
}

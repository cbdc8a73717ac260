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

func TestHitOrMissMatchesDistMixture(t *testing.T) {
	disk := dist.Gamma{Shape: 2, Rate: 100}
	mix, err := dist.HitOrMiss(disk, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	tr := HitOrMiss(FromDist(disk), 0.3)
	if math.Abs(tr.Mean-mix.Mean()) > 1e-15 {
		t.Errorf("mean = %v, want %v", tr.Mean, mix.Mean())
	}
	s := complex(5, 3)
	if got, want := tr.F(s), mix.LST(s); math.Abs(real(got-want)) > 1e-14 {
		t.Errorf("LST mismatch: %v vs %v", got, want)
	}
	// Clamping.
	if got := HitOrMiss(FromDist(disk), 1.7); math.Abs(got.Mean-disk.Mean()) > 1e-15 {
		t.Errorf("clamped miss mean = %v", got.Mean)
	}
	if got := HitOrMiss(FromDist(disk), -0.5); got.Mean != 0 {
		t.Errorf("clamped miss mean = %v", got.Mean)
	}
}

func TestPoissonCompoundMean(t *testing.T) {
	x := FromDist(dist.Gamma{Shape: 2, Rate: 10}) // mean .2
	c := PoissonCompound(x, 2.5)
	if math.Abs(c.Mean-0.5) > 1e-12 {
		t.Errorf("mean = %v, want 0.5", c.Mean)
	}
	if got := PoissonCompound(x, 0); got.Mean != 0 {
		t.Errorf("p=0 should be One, mean = %v", got.Mean)
	}
	// LST value at 0 must be 1.
	if got := c.F(0); math.Abs(real(got)-1) > 1e-12 {
		t.Errorf("F(0) = %v", got)
	}
}

// TestPoissonCompoundMatchesSeries validates e^{p(t(s)-1)} against the
// truncated series Σ p^j e^{-p}/j! t(s)^j the paper writes out.
func TestPoissonCompoundMatchesSeries(t *testing.T) {
	x := FromDist(dist.Exponential{Rate: 8})
	p := 1.7
	c := PoissonCompound(x, p)
	s := complex(2, 1)
	var series complex128
	term := math.Exp(-p) // p^0 e^-p / 0!
	pow := complex(1, 0)
	for j := 0; j < 60; j++ {
		series += complex(term, 0) * pow
		term *= p / float64(j+1)
		pow *= x.F(s)
	}
	got := c.F(s)
	if math.Abs(real(got-series)) > 1e-12 || math.Abs(imag(got-series)) > 1e-12 {
		t.Errorf("compound = %v, series = %v", got, series)
	}
}

func TestGeometricCompound(t *testing.T) {
	x := FromDist(dist.Exponential{Rate: 4}) // mean .25
	c := GeometricCompound(x, 3)
	if math.Abs(c.Mean-0.75) > 1e-12 {
		t.Errorf("mean = %v, want 0.75", c.Mean)
	}
	if got := c.F(0); math.Abs(real(got)-1) > 1e-12 {
		t.Errorf("F(0) = %v", got)
	}
	if got := GeometricCompound(x, 0); got.Mean != 0 {
		t.Errorf("p=0 mean = %v", got.Mean)
	}
}

func TestFixedCompound(t *testing.T) {
	x := FromDist(dist.Exponential{Rate: 4})
	c := FixedCompound(x, 3)
	if math.Abs(c.Mean-0.75) > 1e-12 {
		t.Errorf("mean = %v, want 0.75", c.Mean)
	}
	// Exp^3 = Gamma(3, 4).
	g := dist.Gamma{Shape: 3, Rate: 4}
	for _, xx := range []float64{0.2, 0.8, 1.5} {
		if got, want := CDF(inv, c, xx), g.CDF(xx); math.Abs(got-want) > 1e-6 {
			t.Errorf("CDF(%v) = %v, want %v", xx, got, want)
		}
	}
	if got := FixedCompound(x, 0); got.Mean != 0 {
		t.Errorf("n=0 mean = %v", got.Mean)
	}
}

func TestSecondMomentNumeric(t *testing.T) {
	e := FromDist(dist.Exponential{Rate: 2}) // E[X²] = 2/λ² = 0.5
	got := SecondMomentNumeric(e)
	if math.Abs(got-0.5) > 1e-3 {
		t.Errorf("E[X²] = %v, want 0.5", got)
	}
}

func TestCDFMonotoneProperty(t *testing.T) {
	u := Convolve(
		HitOrMiss(FromDist(dist.Gamma{Shape: 2, Rate: 100}), 0.4),
		delay(0.001),
		PoissonCompound(FromDist(dist.Gamma{Shape: 1.5, Rate: 80}), 0.6),
	)
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

func TestCDFAtNodesMatchesCDF(t *testing.T) {
	u := Convolve(
		HitOrMiss(FromDist(dist.Gamma{Shape: 2, Rate: 100}), 0.4),
		delay(0.001),
		PoissonCompound(FromDist(dist.Gamma{Shape: 1.5, Rate: 80}), 0.6),
	)
	for _, x := range []float64{0.005, 0.02, 0.1, 0.3} {
		s, w := inv.AppendNodes(nil, nil, x)
		got := CDFAtNodes(s, w, u.F)
		want := CDF(inv, u, x)
		if math.Abs(got-want) > 1e-12 {
			t.Errorf("CDFAtNodes(%v) = %v, CDF = %v", x, got, want)
		}
	}
	if got := CDFAtNodes(nil, nil, u.F); got != 0 {
		t.Errorf("CDFAtNodes with no nodes = %v, want 0", got)
	}
}

package dist

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"cosmodel/internal/numeric"
)

// allTestDists returns a representative set of nonnegative distributions.
func allTestDists() []Distribution {
	mix, _ := HitOrMiss(Gamma{Shape: 2, Rate: 100}, 0.3)
	return []Distribution{
		Degenerate{Value: 0.004},
		Exponential{Rate: 120},
		Gamma{Shape: 2.2, Rate: 180},
		Lognormal{Mu: -5, Sigma: 0.6},
		Uniform{Lo: 0.001, Hi: 0.02},
		mix,
		Scaled{Base: Gamma{Shape: 3, Rate: 300}, Scale: 2},
	}
}

func TestMomentsAgainstSampling(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const n = 200000
	for _, d := range allTestDists() {
		var sum, sum2 float64
		for i := 0; i < n; i++ {
			v := d.Sample(rng)
			sum += v
			sum2 += v * v
		}
		mean := sum / n
		variance := sum2/n - mean*mean
		if rel := math.Abs(mean-d.Mean()) / (d.Mean() + 1e-12); rel > 0.02 {
			t.Errorf("%s: sample mean %v vs %v", d, mean, d.Mean())
		}
		if d.Variance() > 0 {
			if rel := math.Abs(variance-d.Variance()) / d.Variance(); rel > 0.06 {
				t.Errorf("%s: sample var %v vs %v", d, variance, d.Variance())
			}
		}
	}
}

func TestCDFProperties(t *testing.T) {
	for _, d := range allTestDists() {
		hi := d.Mean() + 10*StdDev(d) + 0.1
		prev := -1.0
		for x := 0.0; x <= hi; x += hi / 200 {
			c := d.CDF(x)
			if c < -1e-12 || c > 1+1e-12 {
				t.Fatalf("%s: CDF(%v) = %v outside [0,1]", d, x, c)
			}
			if c < prev-1e-12 {
				t.Fatalf("%s: CDF not monotone at %v", d, x)
			}
			prev = c
		}
		if c := d.CDF(hi * 50); c < 0.999 {
			t.Errorf("%s: CDF(%v) = %v, want ~1", d, hi*50, c)
		}
	}
}

func TestQuantileCDFConsistency(t *testing.T) {
	for _, d := range allTestDists() {
		for _, p := range []float64{0.05, 0.25, 0.5, 0.75, 0.95, 0.99} {
			q := d.Quantile(p)
			c := d.CDF(q)
			// CDF(Quantile(p)) >= p, with equality for continuous dists.
			if c < p-1e-6 {
				t.Errorf("%s: CDF(Quantile(%v)) = %v < p", d, p, c)
			}
		}
	}
}

func TestLSTAtZeroIsOne(t *testing.T) {
	for _, d := range allTestDists() {
		if got := d.LST(0); math.Abs(real(got)-1) > 1e-6 || math.Abs(imag(got)) > 1e-6 {
			t.Errorf("%s: LST(0) = %v, want 1", d, got)
		}
	}
}

func TestLSTMatchesMean(t *testing.T) {
	for _, d := range allTestDists() {
		if _, ok := d.(Lognormal); ok {
			continue // numeric LST derivative too noisy for the tolerance
		}
		got := numeric.MeanFromLST(d.LST, 1/math.Max(d.Mean(), 1e-9))
		if math.Abs(got-d.Mean()) > 1e-4*(d.Mean()+1e-12) {
			t.Errorf("%s: mean from LST %v, want %v", d, got, d.Mean())
		}
	}
}

func TestLSTInversionMatchesCDF(t *testing.T) {
	inv := numeric.NewEuler()
	for _, d := range allTestDists() {
		switch d.(type) {
		case Degenerate, Lognormal:
			continue // step discontinuity / slow numeric LST
		}
		for _, p := range []float64{0.2, 0.5, 0.8} {
			x := d.Quantile(p)
			if x <= 0 {
				continue
			}
			got := numeric.InvertCDF(inv, d.LST, x)
			want := d.CDF(x)
			if math.Abs(got-want) > 5e-3 {
				t.Errorf("%s: inverted CDF(%v) = %v, want %v", d, x, got, want)
			}
		}
	}
}

func TestExponentialQuantileRoundTrip(t *testing.T) {
	e := Exponential{Rate: 7}
	f := func(raw float64) bool {
		p := math.Mod(math.Abs(raw), 1)
		q := e.Quantile(p)
		return math.Abs(e.CDF(q)-p) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGammaSpecialCases(t *testing.T) {
	// Gamma(1, λ) is Exponential(λ).
	g := Gamma{Shape: 1, Rate: 5}
	e := Exponential{Rate: 5}
	for _, x := range []float64{0.01, 0.1, 0.5, 1} {
		if math.Abs(g.CDF(x)-e.CDF(x)) > 1e-12 {
			t.Errorf("Gamma(1,5).CDF(%v) = %v, want %v", x, g.CDF(x), e.CDF(x))
		}
	}
}

func TestNewGammaMeanSCV(t *testing.T) {
	g := NewGammaMeanSCV(0.01, 0.5)
	if math.Abs(g.Mean()-0.01) > 1e-15 {
		t.Errorf("mean = %v", g.Mean())
	}
	if math.Abs(SCV(g)-0.5) > 1e-12 {
		t.Errorf("scv = %v", SCV(g))
	}
}

func TestNewLognormalMeanMedian(t *testing.T) {
	l := NewLognormalMeanMedian(32768, 12000)
	if math.Abs(l.Mean()-32768)/32768 > 1e-12 {
		t.Errorf("mean = %v", l.Mean())
	}
	if math.Abs(l.Quantile(0.5)-12000)/12000 > 1e-9 {
		t.Errorf("median = %v", l.Quantile(0.5))
	}
}

func TestScaleBy(t *testing.T) {
	g := Gamma{Shape: 2, Rate: 10}
	s := ScaleBy(g, 3)
	if sg, ok := s.(Gamma); !ok || math.Abs(sg.Mean()-0.6) > 1e-12 {
		t.Errorf("scaled gamma = %v", s)
	}
	d := ScaleBy(Degenerate{Value: 2}, 0.5)
	if d.Mean() != 1 {
		t.Errorf("scaled degenerate mean = %v", d.Mean())
	}
	if same := ScaleBy(g, 1); same != Distribution(g) {
		t.Error("ScaleBy(d, 1) should return d unchanged")
	}
	// Nested scaling collapses.
	w := ScaleBy(Lognormal{Mu: 0, Sigma: 1}, 2)
	ww := ScaleBy(w, 3)
	if sc, ok := ww.(Scaled); !ok || sc.Scale != 6 {
		t.Errorf("nested scale = %v", ww)
	}
}

func TestScaleToMean(t *testing.T) {
	g := Gamma{Shape: 2, Rate: 10} // mean 0.2
	s := ScaleToMean(g, 0.05)
	if math.Abs(s.Mean()-0.05) > 1e-12 {
		t.Errorf("mean = %v", s.Mean())
	}
	// Shape preserved.
	if math.Abs(SCV(s)-SCV(g)) > 1e-12 {
		t.Errorf("scv changed: %v vs %v", SCV(s), SCV(g))
	}
}

func TestSecondMomentAndSCV(t *testing.T) {
	e := Exponential{Rate: 2} // mean .5, var .25, E[X²] = .5
	if got := SecondMoment(e); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("second moment = %v", got)
	}
	if got := SCV(e); math.Abs(got-1) > 1e-12 {
		t.Errorf("scv = %v", got)
	}
	if got := SCV(Degenerate{Value: 0}); !math.IsInf(got, 1) {
		t.Errorf("SCV of zero-mass = %v, want +Inf", got)
	}
}

func TestSampleN(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s := SampleN(Exponential{Rate: 1}, rng, 100)
	if len(s) != 100 {
		t.Fatalf("len = %d", len(s))
	}
}

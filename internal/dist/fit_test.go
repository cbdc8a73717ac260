package dist

import (
	"math"
	"math/rand"
	"testing"
)

func TestFitGammaRecoversParameters(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	truth := Gamma{Shape: 2.3, Rate: 150}
	samples := SampleN(truth, rng, 50000)
	got, err := FitGamma(samples)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.Shape-truth.Shape)/truth.Shape > 0.05 {
		t.Errorf("shape = %v, want %v", got.Shape, truth.Shape)
	}
	if math.Abs(got.Mean()-truth.Mean())/truth.Mean() > 0.02 {
		t.Errorf("mean = %v, want %v", got.Mean(), truth.Mean())
	}
}

func TestFitGammaSkipsNonPositive(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	truth := Gamma{Shape: 3, Rate: 10}
	samples := SampleN(truth, rng, 20000)
	samples = append(samples, 0, 0, 0) // zeros from cache hits must not break MLE
	if _, err := FitGamma(samples); err != nil {
		t.Fatal(err)
	}
}

func TestFitExponentialRecoversRate(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	truth := Exponential{Rate: 80}
	got, err := FitExponential(SampleN(truth, rng, 50000))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.Rate-truth.Rate)/truth.Rate > 0.02 {
		t.Errorf("rate = %v, want %v", got.Rate, truth.Rate)
	}
}

func TestFitNormalRecoversParameters(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	truth := Normal{Mu: 5, Sigma: 2}
	got, err := FitNormal(SampleN(truth, rng, 50000))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.Mu-5) > 0.05 || math.Abs(got.Sigma-2) > 0.05 {
		t.Errorf("got %v", got)
	}
}

func TestFitErrorsOnEmptyOrDegenerateData(t *testing.T) {
	if _, err := FitGamma(nil); err == nil {
		t.Error("FitGamma(nil) should fail")
	}
	if _, err := FitExponential(nil); err == nil {
		t.Error("FitExponential(nil) should fail")
	}
	if _, err := FitNormal([]float64{1}); err == nil {
		t.Error("FitNormal with one sample should fail")
	}
	if _, err := FitGamma([]float64{0, 0, 0}); err == nil {
		t.Error("FitGamma on zeros should fail")
	}
	if _, err := FitDegenerate(nil); err == nil {
		t.Error("FitDegenerate(nil) should fail")
	}
	if _, err := FitBest(nil); err == nil {
		t.Error("FitBest(nil) should fail")
	}
}

func TestKolmogorovSmirnovPerfectFit(t *testing.T) {
	// K-S of a sample against its own empirical CDF family should be small
	// for a good parametric fit and large for a bad one.
	rng := rand.New(rand.NewSource(17))
	truth := Gamma{Shape: 2.5, Rate: 100}
	samples := SampleN(truth, rng, 20000)
	good := KolmogorovSmirnov(samples, truth)
	bad := KolmogorovSmirnov(samples, Exponential{Rate: 1 / truth.Mean()})
	if good > 0.02 {
		t.Errorf("K-S against truth = %v, want small", good)
	}
	if bad < 5*good {
		t.Errorf("K-S against wrong family = %v, not clearly worse than %v", bad, good)
	}
	if !math.IsNaN(KolmogorovSmirnov(nil, truth)) {
		t.Error("K-S of empty sample should be NaN")
	}
}

// TestFitBestPrefersGammaForGammaData mirrors the paper's Fig. 5 finding:
// among Exponential, Degenerate, Normal and Gamma, the Gamma family fits
// disk-like (gamma-generated) service times best.
func TestFitBestPrefersGammaForGammaData(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	truth := Gamma{Shape: 2.0, Rate: 120}
	samples := SampleN(truth, rng, 30000)
	results, err := FitBest(samples)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Name != "gamma" {
		for _, r := range results {
			t.Logf("%s: KS=%v", r.Name, r.KS)
		}
		t.Errorf("best fit = %s, want gamma", results[0].Name)
	}
}

func TestEmpiricalDistribution(t *testing.T) {
	e, err := NewEmpirical([]float64{3, 1, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	if e.Len() != 4 {
		t.Fatalf("len = %d", e.Len())
	}
	if got := e.Mean(); math.Abs(got-2) > 1e-15 {
		t.Errorf("mean = %v", got)
	}
	if got := e.CDF(2); math.Abs(got-0.75) > 1e-15 {
		t.Errorf("CDF(2) = %v, want 0.75", got)
	}
	if got := e.CDF(0.5); got != 0 {
		t.Errorf("CDF(0.5) = %v, want 0", got)
	}
	if got := e.CDF(3); got != 1 {
		t.Errorf("CDF(3) = %v, want 1", got)
	}
	if got := e.Quantile(0.5); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
	if got := e.Quantile(0); got != 1 {
		t.Errorf("q0 = %v, want 1", got)
	}
	if got := e.Quantile(1); got != 3 {
		t.Errorf("q1 = %v, want 3", got)
	}
	if _, err := NewEmpirical(nil); err == nil {
		t.Error("empty empirical should fail")
	}
}

func TestEmpiricalLSTMatchesMean(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	e, err := NewEmpirical(SampleN(Exponential{Rate: 50}, rng, 500))
	if err != nil {
		t.Fatal(err)
	}
	// LST(0) = 1.
	if got := e.LST(0); math.Abs(real(got)-1) > 1e-12 {
		t.Errorf("LST(0) = %v", got)
	}
}

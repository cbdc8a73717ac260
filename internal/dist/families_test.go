package dist

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"cosmodel/internal/numeric"
)

func TestParetoMoments(t *testing.T) {
	p := Pareto{Xm: 2, Alpha: 3}
	if got, want := p.Mean(), 3.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("mean = %v, want %v", got, want)
	}
	// Var = Xm²·α/((α-1)²(α-2)) = 4·3/(2²·1) = 3.
	if got, want := p.Variance(), 3.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("variance = %v, want %v", got, want)
	}
	if !math.IsInf(Pareto{Xm: 1, Alpha: 0.9}.Mean(), 1) {
		t.Error("alpha<=1 mean should be +Inf")
	}
	if !math.IsInf(Pareto{Xm: 1, Alpha: 1.5}.Variance(), 1) {
		t.Error("alpha<=2 variance should be +Inf")
	}
}

func TestParetoCDFQuantile(t *testing.T) {
	p := Pareto{Xm: 1, Alpha: 2.5}
	if got := p.CDF(0.5); got != 0 {
		t.Errorf("CDF below xm = %v", got)
	}
	for _, q := range []float64{0.1, 0.5, 0.9, 0.99} {
		x := p.Quantile(q)
		if math.Abs(p.CDF(x)-q) > 1e-12 {
			t.Errorf("CDF(Quantile(%v)) = %v", q, p.CDF(x))
		}
	}
	if !math.IsInf(p.Quantile(1), 1) {
		t.Error("Quantile(1) should be +Inf")
	}
}

func TestParetoSampling(t *testing.T) {
	p := Pareto{Xm: 1, Alpha: 3.5}
	rng := rand.New(rand.NewSource(3))
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		v := p.Sample(rng)
		if v < p.Xm {
			t.Fatalf("sample %v below xm", v)
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-p.Mean())/p.Mean() > 0.02 {
		t.Errorf("sample mean %v, want %v", mean, p.Mean())
	}
}

func TestParetoLSTAtZero(t *testing.T) {
	p := Pareto{Xm: 0.001, Alpha: 2.5}
	if got := p.LST(0); math.Abs(real(got)-1) > 1e-6 {
		t.Errorf("LST(0) = %v", got)
	}
}

func TestErlangMatchesGamma(t *testing.T) {
	e := Erlang{K: 3, Rate: 50}
	g := e.AsGamma()
	if e.Mean() != g.Mean() || e.Variance() != g.Variance() {
		t.Error("moments disagree with Gamma")
	}
	for _, x := range []float64{0.01, 0.05, 0.1, 0.2} {
		if math.Abs(e.CDF(x)-g.CDF(x)) > 1e-14 {
			t.Errorf("CDF(%v) disagrees", x)
		}
	}
	s := complex(3, 2)
	if e.LST(s) != g.LST(s) {
		t.Error("LST disagrees")
	}
}

func TestErlangSampling(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, k := range []int{1, 4, 32} { // 32 exercises the Gamma fallback
		e := Erlang{K: k, Rate: 100}
		var sum, sum2 float64
		const n = 100000
		for i := 0; i < n; i++ {
			v := e.Sample(rng)
			sum += v
			sum2 += v * v
		}
		mean := sum / n
		if math.Abs(mean-e.Mean())/e.Mean() > 0.02 {
			t.Errorf("K=%d: sample mean %v, want %v", k, mean, e.Mean())
		}
		variance := sum2/n - mean*mean
		if math.Abs(variance-e.Variance())/e.Variance() > 0.06 {
			t.Errorf("K=%d: sample variance %v, want %v", k, variance, e.Variance())
		}
	}
}

func TestNewHyperExpValidation(t *testing.T) {
	inf := math.Inf(1)
	for _, c := range []struct{ mean, scv float64 }{
		{0, 2}, {-1, 2}, {math.NaN(), 2}, {inf, 2},
		{1, 0.5}, {1, -1}, {1, math.NaN()}, {1, inf},
	} {
		if _, err := NewHyperExpMeanSCV(c.mean, c.scv); !errors.Is(err, ErrBadHyperExp) {
			t.Errorf("mean=%v scv=%v: err = %v, want ErrBadHyperExp", c.mean, c.scv, err)
		}
	}
}

func TestHyperExpMeanSCVMatch(t *testing.T) {
	for _, c := range []struct{ mean, scv float64 }{
		{0.01, 1}, {0.01, 2}, {0.5, 4}, {2, 10},
	} {
		h, err := NewHyperExpMeanSCV(c.mean, c.scv)
		if err != nil {
			t.Fatalf("mean=%v scv=%v: %v", c.mean, c.scv, err)
		}
		if math.Abs(h.Mean()-c.mean)/c.mean > 1e-10 {
			t.Errorf("mean = %v, want %v", h.Mean(), c.mean)
		}
		if math.Abs(SCV(h)-c.scv)/c.scv > 1e-10 {
			t.Errorf("scv = %v, want %v", SCV(h), c.scv)
		}
	}
	if _, err := NewHyperExpMeanSCV(1, 0.5); err == nil {
		t.Error("scv < 1 should fail")
	}
	if _, err := NewHyperExpMeanSCV(0, 2); err == nil {
		t.Error("mean <= 0 should fail")
	}
}

func TestHyperExpDegeneratesToExponential(t *testing.T) {
	h, err := NewHyperExpMeanSCV(0.02, 1)
	if err != nil {
		t.Fatal(err)
	}
	e := Exponential{Rate: 50}
	for _, x := range []float64{0.005, 0.02, 0.08} {
		if math.Abs(h.CDF(x)-e.CDF(x)) > 1e-9 {
			t.Errorf("CDF(%v) = %v, want %v", x, h.CDF(x), e.CDF(x))
		}
	}
}

func TestHyperExpLSTInversion(t *testing.T) {
	h, err := NewHyperExpMeanSCV(0.01, 3)
	if err != nil {
		t.Fatal(err)
	}
	inv := numeric.NewEuler()
	for _, p := range []float64{0.2, 0.5, 0.9} {
		x := h.Quantile(p)
		got := numeric.InvertCDF(inv, h.LST, x)
		if math.Abs(got-p) > 1e-4 {
			t.Errorf("inverted CDF at q%v = %v", p, got)
		}
	}
	if s := h.String(); s == "" {
		t.Error("empty String()")
	}
}

func TestHyperExpSampling(t *testing.T) {
	h, err := NewHyperExpMeanSCV(0.01, 4)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	var sum, sum2 float64
	const n = 300000
	for i := 0; i < n; i++ {
		v := h.Sample(rng)
		if v < 0 {
			t.Fatal("negative sample")
		}
		sum += v
		sum2 += v * v
	}
	mean := sum / n
	if math.Abs(mean-h.Mean())/h.Mean() > 0.02 {
		t.Errorf("sample mean %v, want %v", mean, h.Mean())
	}
	scv := (sum2/n - mean*mean) / (mean * mean)
	if math.Abs(scv-4)/4 > 0.1 {
		t.Errorf("sample scv %v, want 4", scv)
	}
}

// TestHyperExpSCVAlwaysAtLeastOne: the defining property of the family,
// for arbitrary branch rates and weights.
func TestHyperExpSCVAlwaysAtLeastOne(t *testing.T) {
	f := func(r1, r2, w raw) bool {
		p1 := (0.1 + math.Abs(float64(w))) / (1.1 + math.Abs(float64(w)))
		h := &HyperExp{
			rates:   []float64{0.1 + math.Abs(float64(r1)), 0.1 + math.Abs(float64(r2))},
			weights: []float64{p1, 1 - p1},
			cum:     []float64{p1, 1},
		}
		return SCV(h) >= 1-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// raw keeps testing/quick's generated magnitudes bounded.
type raw int16

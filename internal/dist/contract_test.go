package dist

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

// TestInterfaceContract sweeps the common edge-case contract across every
// family: quantile behaviour at and outside the endpoints, parseable String
// output, and basic accessor consistency.
func TestInterfaceContract(t *testing.T) {
	mix, err := HitOrMiss(Gamma{Shape: 2, Rate: 100}, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := NewHyperExpMeanSCV(0.01, 2)
	if err != nil {
		t.Fatal(err)
	}
	emp, err := NewEmpirical([]float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	all := []Distribution{
		Degenerate{Value: 0.004},
		Exponential{Rate: 120},
		NewExponentialMean(0.01),
		Gamma{Shape: 2.2, Rate: 180},
		Erlang{K: 3, Rate: 100},
		Normal{Mu: 5, Sigma: 2},
		Lognormal{Mu: -5, Sigma: 0.6},
		Uniform{Lo: 0.001, Hi: 0.02},
		Pareto{Xm: 0.001, Alpha: 3},
		mix,
		h2,
		emp,
		Scaled{Base: Gamma{Shape: 3, Rate: 300}, Scale: 2},
	}
	for _, d := range all {
		name := d.String()
		if name == "" || !strings.ContainsAny(name, "(") {
			t.Errorf("%T: String() = %q", d, name)
		}
		// Out-of-range quantiles are NaN.
		for _, p := range []float64{-0.1, 1.1, math.NaN()} {
			if q := d.Quantile(p); !math.IsNaN(q) {
				// Degenerate's Quantile(p<=0) returns the point mass by
				// design; everything else must be NaN.
				if _, ok := d.(Degenerate); ok && p < 0 {
					continue
				}
				t.Errorf("%s: Quantile(%v) = %v, want NaN", name, p, q)
			}
		}
		// Median is finite and within support for every family.
		med := d.Quantile(0.5)
		if math.IsNaN(med) || math.IsInf(med, 0) {
			t.Errorf("%s: median = %v", name, med)
		}
		// Sampling respects the support's sign for nonnegative families.
		if _, isNormal := d.(Normal); !isNormal {
			rng := rand.New(rand.NewSource(3))
			for i := 0; i < 100; i++ {
				if v := d.Sample(rng); v < 0 {
					t.Errorf("%s: negative sample %v", name, v)
					break
				}
			}
		}
	}
}

func TestNewExponentialMean(t *testing.T) {
	e := NewExponentialMean(0.025)
	if math.Abs(e.Mean()-0.025) > 1e-15 {
		t.Errorf("mean = %v", e.Mean())
	}
}

func TestEmpiricalAccessors(t *testing.T) {
	e, err := NewEmpirical([]float64{4, 1, 3})
	if err != nil {
		t.Fatal(err)
	}
	s := e.Sorted()
	if len(s) != 3 || s[0] != 1 || s[2] != 4 {
		t.Errorf("sorted = %v", s)
	}
	// Variance of {1,3,4}: mean 8/3, var = (49+1+16)/9... compute directly.
	mean := 8.0 / 3
	want := ((1-mean)*(1-mean) + (3-mean)*(3-mean) + (4-mean)*(4-mean)) / 3
	if math.Abs(e.Variance()-want) > 1e-12 {
		t.Errorf("variance = %v, want %v", e.Variance(), want)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		v := e.Sample(rng)
		if v != 1 && v != 3 && v != 4 {
			t.Fatalf("bootstrap sample %v not in data", v)
		}
	}
}

func TestMixtureComponents(t *testing.T) {
	a, b := Degenerate{Value: 1}, Degenerate{Value: 2}
	m, err := NewMixture([]Distribution{a, b}, []float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Components(); len(got) != 2 {
		t.Errorf("components = %v", got)
	}
}

func TestErlangQuantile(t *testing.T) {
	e := Erlang{K: 2, Rate: 10}
	q := e.Quantile(0.9)
	if math.Abs(e.CDF(q)-0.9) > 1e-9 {
		t.Errorf("CDF(Quantile(0.9)) = %v", e.CDF(q))
	}
}

func TestNormalAccessors(t *testing.T) {
	n := Normal{Mu: 3, Sigma: 2}
	if n.Mean() != 3 || n.Variance() != 4 {
		t.Errorf("moments: %v %v", n.Mean(), n.Variance())
	}
	if q := n.Quantile(0.5); math.Abs(q-3) > 1e-12 {
		t.Errorf("median = %v", q)
	}
	// Bilateral transform at s=0 is 1.
	if got := n.LST(0); got != 1 {
		t.Errorf("LST(0) = %v", got)
	}
}

package numeric

import (
	"math"
	"math/cmplx"
	"sync"
	"testing"
)

// expPDF is the transform of an Exponential(rate) density: rate/(s+rate).
func expPDF(rate float64) TransformFunc {
	return func(s complex128) complex128 {
		return complex(rate, 0) / (s + complex(rate, 0))
	}
}

// gammaPDF is the transform of a Gamma(shape k, rate l) density: (l/(s+l))^k.
func gammaPDF(k, l float64) TransformFunc {
	return func(s complex128) complex128 {
		return cmplx.Pow(complex(l, 0)/(s+complex(l, 0)), complex(k, 0))
	}
}

func inverters() []Inverter {
	return []Inverter{NewEuler(), NewTalbot(), NewGaverStehfest()}
}

func TestInvertExponentialDensity(t *testing.T) {
	const rate = 2.5
	for _, inv := range inverters() {
		tol := 1e-5
		if inv.Name() == "gaver-stehfest" {
			tol = 5e-4 // fragile in float64, by design
		}
		for _, x := range []float64{0.05, 0.2, 0.5, 1, 2, 4} {
			got := Invert(inv, expPDF(rate), x)
			want := rate * math.Exp(-rate*x)
			if math.Abs(got-want) > tol*(1+want) {
				t.Errorf("%s: pdf(%v) = %v, want %v", inv.Name(), x, got, want)
			}
		}
	}
}

func TestInvertExponentialCDF(t *testing.T) {
	const rate = 3.0
	for _, inv := range inverters() {
		tol := 1e-6
		if inv.Name() == "gaver-stehfest" {
			tol = 5e-4 // fragile in float64, by design
		}
		for _, x := range []float64{0.01, 0.1, 0.3, 1, 3} {
			got := InvertCDF(inv, expPDF(rate), x)
			want := 1 - math.Exp(-rate*x)
			if math.Abs(got-want) > tol {
				t.Errorf("%s: cdf(%v) = %v, want %v", inv.Name(), x, got, want)
			}
		}
	}
}

func TestInvertGammaCDF(t *testing.T) {
	cases := []struct{ k, l float64 }{
		{1, 1}, {2.5, 4}, {0.8, 10}, {7, 0.5},
	}
	for _, inv := range inverters() {
		for _, c := range cases {
			for _, x := range []float64{0.1, 0.5, 1, 2, 5} {
				got := InvertCDF(inv, gammaPDF(c.k, c.l), x)
				want := RegularizedGammaP(c.k, c.l*x)
				tol := 1e-6
				if inv.Name() == "gaver-stehfest" {
					tol = 1e-3 // fragile in float64, by design
				}
				if math.Abs(got-want) > tol {
					t.Errorf("%s: Gamma(%v,%v) cdf(%v) = %v, want %v",
						inv.Name(), c.k, c.l, x, got, want)
				}
			}
		}
	}
}

// TestInvertMixtureWithAtom checks a distribution with an atom at zero:
// with prob 0.4 value 0, otherwise Exponential(2). The CDF at t>0 is
// 0.4 + 0.6*(1-e^{-2t}).
func TestInvertMixtureWithAtom(t *testing.T) {
	f := func(s complex128) complex128 {
		return complex(0.4, 0) + complex(0.6, 0)*expPDF(2)(s)
	}
	inv := NewEuler()
	for _, x := range []float64{0.1, 0.5, 1, 2} {
		got := InvertCDF(inv, f, x)
		want := 0.4 + 0.6*(1-math.Exp(-2*x))
		if math.Abs(got-want) > 1e-6 {
			t.Errorf("cdf(%v) = %v, want %v", x, got, want)
		}
	}
}

// TestInvertDegenerateShift checks a transform with a pure delay:
// e^{-s c} is a point mass at c; its CDF is a step at c.
func TestInvertDegenerateShift(t *testing.T) {
	const c = 1.0
	f := func(s complex128) complex128 { return cmplx.Exp(-s * complex(c, 0)) }
	inv := NewEuler()
	if got := InvertCDF(inv, f, 0.5); got > 0.02 {
		t.Errorf("cdf before the step = %v, want ~0", got)
	}
	if got := InvertCDF(inv, f, 1.5); got < 0.98 {
		t.Errorf("cdf after the step = %v, want ~1", got)
	}
}

func TestInvertAtNonPositiveTime(t *testing.T) {
	for _, inv := range inverters() {
		if got := Invert(inv, expPDF(1), 0); got != 0 {
			t.Errorf("%s: Invert at t=0 = %v, want 0", inv.Name(), got)
		}
		if got := Invert(inv, expPDF(1), -1); got != 0 {
			t.Errorf("%s: Invert at t<0 = %v, want 0", inv.Name(), got)
		}
	}
}

func TestMeanFromLST(t *testing.T) {
	cases := []struct {
		f    TransformFunc
		mean float64
	}{
		{expPDF(2), 0.5},
		{gammaPDF(3, 6), 0.5},
		{func(s complex128) complex128 { return cmplx.Exp(-s * 0.25) }, 0.25},
	}
	for i, c := range cases {
		got := MeanFromLST(c.f, 1/c.mean)
		if math.Abs(got-c.mean) > 1e-4*c.mean {
			t.Errorf("case %d: mean = %v, want %v", i, got, c.mean)
		}
	}
}

func TestClamp01(t *testing.T) {
	cases := []struct{ in, want float64 }{
		{-0.5, 0}, {0, 0}, {0.5, 0.5}, {1, 1}, {1.5, 1}, {math.NaN(), 0},
	}
	for _, c := range cases {
		if got := Clamp01(c.in); got != c.want {
			t.Errorf("Clamp01(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestFactorial(t *testing.T) {
	if got := factorial(5); got != 120 {
		t.Errorf("factorial(5) = %v, want 120", got)
	}
	if got := factorial(0); got != 1 {
		t.Errorf("factorial(0) = %v, want 1", got)
	}
}

// TestSharedInverterGoroutineSafety hammers a single shared instance of
// every inverter from many goroutines, including zero-value instances whose
// coefficient tables are initialized lazily through the sync.Once. Run with
// -race this is the regression test for the former lazy-init data race
// (Euler.binom / GaverStehfest.coef were populated on first use without
// synchronization).
func TestSharedInverterGoroutineSafety(t *testing.T) {
	shared := []Inverter{
		NewEuler(),
		NewTalbot(),
		NewGaverStehfest(),
		&Euler{A: 18.4, Terms: 15, MTerms: 11}, // lazy init path
		&GaverStehfest{},                       // lazy init + defaulted N
	}
	f := gammaPDF(2.5, 4)
	for _, inv := range shared {
		want := make([]float64, 8)
		for i := range want {
			want[i] = Invert(inv, f, 0.1*float64(i+1))
		}
		var wg sync.WaitGroup
		for g := 0; g < 16; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range want {
					if got := Invert(inv, f, 0.1*float64(i+1)); got != want[i] {
						t.Errorf("%s: concurrent Invert = %v, want %v", inv.Name(), got, want[i])
						return
					}
				}
			}()
		}
		wg.Wait()
	}
}

// The oracles below are the per-inverter Invert loops that numeric.Invert
// replaced, kept verbatim as references: Invert must reproduce each of them
// bit for bit.

func eulerInvertLoop(e *Euler, f TransformFunc, t float64) float64 {
	if t <= 0 {
		return 0
	}
	e.init()
	x := e.A / (2 * t)
	h := math.Pi / t
	u := math.Exp(e.A/2) / t
	var sum float64
	for k, w := range e.weights {
		sum += (u * w) * real(f(complex(x, float64(k)*h)))
	}
	return sum
}

func talbotInvertLoop(tb *Talbot, f TransformFunc, t float64) float64 {
	if t <= 0 {
		return 0
	}
	var sum float64
	for k := 0; k < tb.nodes(); k++ {
		s, w := tb.node(k, t)
		sum += real(w * f(s))
	}
	return sum
}

func gaverStehfestInvertLoop(g *GaverStehfest, f TransformFunc, t float64) float64 {
	if t <= 0 {
		return 0
	}
	g.init()
	ln2t := math.Ln2 / t
	var sum float64
	for k := 1; k <= g.n; k++ {
		sum += (ln2t * g.coef[k]) * real(f(complex(float64(k)*ln2t, 0)))
	}
	return sum
}

// mg1WaitingPDF is the Pollaczek–Khinchine transform of the M/G/1 waiting
// time with arrival rate lambda and service transform b:
// W(s) = (1-ρ)s / (s - λ(1 - B(s))).
func mg1WaitingPDF(lambda, mean float64, b TransformFunc) TransformFunc {
	rho := complex(lambda*mean, 0)
	l := complex(lambda, 0)
	return func(s complex128) complex128 {
		return (1 - rho) * s / (s - l*(1-b(s)))
	}
}

// TestAppendNodesMatchesInvert pins numeric.Invert — the one weighted node
// sum Σ Re(w_k·f(s_k)) over AppendNodes — bit for bit to the per-inverter
// Invert loops it replaced, for density and CDF transforms of Gamma, M/G/1
// waiting and pure-delay variables, and checks the node sets themselves.
func TestAppendNodesMatchesInvert(t *testing.T) {
	delay := func(s complex128) complex128 { return cmplx.Exp(-s * 0.3) }
	fs := map[string]TransformFunc{
		"gamma":     gammaPDF(2.5, 4),
		"gammaSub1": gammaPDF(0.8, 10),
		"mg1":       mg1WaitingPDF(6, 0.1, gammaPDF(2, 20)),
		"delay":     delay,
	}
	for name, f := range fs {
		f := f
		fs[name+"CDF"] = func(s complex128) complex128 { return f(s) / s }
	}
	euler, talbot, gs := NewEuler(), NewTalbot(), NewGaverStehfest()
	oracles := []struct {
		inv  Inverter
		loop func(TransformFunc, float64) float64
	}{
		{euler, func(f TransformFunc, t float64) float64 { return eulerInvertLoop(euler, f, t) }},
		{talbot, func(f TransformFunc, t float64) float64 { return talbotInvertLoop(talbot, f, t) }},
		{gs, func(f TransformFunc, t float64) float64 { return gaverStehfestInvertLoop(gs, f, t) }},
	}
	for _, o := range oracles {
		for name, f := range fs {
			for _, x := range []float64{-1, 0, 0.05, 0.3, 1, 4} {
				got, want := Invert(o.inv, f, x), o.loop(f, x)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("%s %s at t=%v: Invert = %v, replaced loop = %v", o.inv.Name(), name, x, got, want)
				}
			}
		}
		nodes, weights := o.inv.AppendNodes(nil, nil, 0.3)
		if len(nodes) == 0 || len(nodes) != len(weights) {
			t.Fatalf("%s: bad node set (%d nodes, %d weights)", o.inv.Name(), len(nodes), len(weights))
		}
		if s, w := o.inv.AppendNodes(nil, nil, 0); len(s) != 0 || len(w) != 0 {
			t.Errorf("%s: AppendNodes at t=0 returned %d nodes", o.inv.Name(), len(s))
		}
	}
}

func BenchmarkInvertEulerCDF(b *testing.B) {
	inv := NewEuler()
	f := gammaPDF(2.5, 4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		InvertCDF(inv, f, 0.7)
	}
}

func BenchmarkInvertTalbotCDF(b *testing.B) {
	inv := NewTalbot()
	f := gammaPDF(2.5, 4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		InvertCDF(inv, f, 0.7)
	}
}

func BenchmarkInvertGaverStehfestCDF(b *testing.B) {
	inv := NewGaverStehfest()
	f := gammaPDF(2.5, 4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		InvertCDF(inv, f, 0.7)
	}
}

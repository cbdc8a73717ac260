// Package numeric provides the numerical substrate used by the analytic
// model: numerical inversion of Laplace transforms, special functions
// (regularized incomplete gamma, digamma), adaptive quadrature, and root
// finding. Everything is implemented with the standard library only.
package numeric

import (
	"math"
	"math/cmplx"
	"sync"
)

// TransformFunc is a Laplace transform evaluated at a complex frequency s.
// For the model it is either the transform of a probability density
// (a Laplace–Stieltjes transform, LST) or of a CDF (LST divided by s).
type TransformFunc func(s complex128) complex128

// Inverter is a numerical Laplace-inversion rule of the quadrature form
//
//	f(t) ≈ Σ_k Re(w_k · F(s_k)),
//
// described by its nodes s_k and weights w_k for a time t; Invert applies
// them. Exposing the quadrature lets an
// evaluation engine invert many transforms that share factors — e.g. a
// mixture of per-device convolutions with a common frontend term — by
// evaluating the shared factor once per node and only the distinct factors
// per member, with results identical to independent Invert calls.
//
// Safety contract: every implementation in this package is safe for
// concurrent use by multiple goroutines once constructed — all coefficient
// tables are computed in the constructors (with a sync.Once fallback for
// zero values), and AppendNodes never mutates the receiver. Custom
// implementations passed into the model are expected to honor the same
// contract: the evaluation engine shares one Inverter across its worker
// pool. Parameter fields (Euler.A, Talbot.M, ...) must not be modified
// after the first AppendNodes call.
type Inverter interface {
	// Name identifies the algorithm, for reports and ablation tables.
	Name() string
	// AppendNodes appends the quadrature nodes and matching weights for
	// time t to s and w and returns the extended slices. For t <= 0 the
	// slices are returned unchanged (the inverse is taken as 0 there).
	AppendNodes(s, w []complex128, t float64) ([]complex128, []complex128)
}

// Invert evaluates the inverse transform of f at time t with inv's rule:
// Σ_k Re(w_k · f(s_k)), accumulated in node order. It is 0 for t <= 0.
func Invert(inv Inverter, f TransformFunc, t float64) float64 {
	// 32 covers every built-in quadrature (Euler 27, Talbot 32,
	// Gaver-Stehfest 14) without append regrowth.
	var sb, wb [32]complex128
	s, w := inv.AppendNodes(sb[:0], wb[:0], t)
	var sum float64
	for k, sk := range s {
		sum += real(w[k] * f(sk))
	}
	return sum
}

// Euler implements the Abate–Whitt "EULER" algorithm: a Fourier-series
// expansion of the Bromwich integral accelerated with Euler summation.
// It is the workhorse inverter for this package: robust for probability
// CDFs, including those with atoms away from the evaluation point.
//
// The zero value is NOT ready for use; call NewEuler or set the fields
// before first use (they must not change afterwards).
type Euler struct {
	// A controls the discretization error bound (roughly e^-A). 18.4
	// targets ~1e-8 discretization error in double precision.
	A float64
	// Terms is the number of plain partial-sum terms before Euler
	// acceleration kicks in.
	Terms int
	// MTerms is the number of terms combined binomially by Euler
	// summation.
	MTerms int

	once sync.Once
	// weights[k] is the flattened Euler-accelerated weight of node k: the
	// alternating sign times the binomial tail Σ_{j≥k-Terms} C(M,j)/2^M
	// (1 for k ≤ Terms, halved at k = 0).
	weights []float64
}

// NewEuler returns an Euler inverter with the standard Abate–Whitt
// parameters (A=18.4, 15 plain terms, 11 Euler terms).
func NewEuler() *Euler {
	return NewEulerN(18.4, 15, 11)
}

// NewEulerN returns an Euler inverter with explicit parameters.
func NewEulerN(a float64, terms, mTerms int) *Euler {
	e := &Euler{A: a, Terms: terms, MTerms: mTerms}
	e.init()
	return e
}

// init precomputes the node weights exactly once; constructors call it
// eagerly so constructed inverters are immutable, and AppendNodes calls it
// through the sync.Once to keep manually-filled values safe.
func (e *Euler) init() {
	e.once.Do(func() {
		m := e.MTerms
		binom := make([]float64, m+1) // C(m,j)/2^m
		c := math.Exp2(-float64(m))
		for j := 0; j <= m; j++ {
			binom[j] = c
			c = c * float64(m-j) / float64(j+1)
		}
		// Suffix sums: tail[i] = Σ_{j=i..m} binom[j] (tail[0] ≈ 1).
		tail := make([]float64, m+2)
		for j := m; j >= 0; j-- {
			tail[j] = tail[j+1] + binom[j]
		}
		e.weights = make([]float64, e.Terms+m+1)
		for k := range e.weights {
			w := tail[0]
			if k > e.Terms {
				w = tail[k-e.Terms]
			}
			if k == 0 {
				w /= 2
			}
			if k%2 == 1 {
				w = -w
			}
			e.weights[k] = w
		}
	})
}

// Name implements Inverter.
func (e *Euler) Name() string { return "euler" }

// AppendNodes implements Inverter.
func (e *Euler) AppendNodes(s, w []complex128, t float64) ([]complex128, []complex128) {
	if t <= 0 {
		return s, w
	}
	e.init()
	x := e.A / (2 * t)
	h := math.Pi / t
	u := math.Exp(e.A/2) / t
	for k, wk := range e.weights {
		s = append(s, complex(x, float64(k)*h))
		w = append(w, complex(u*wk, 0))
	}
	return s, w
}

// Talbot implements the fixed-Talbot method (Abate–Valkó). It deforms the
// Bromwich contour into a cotangent spiral; excellent for smooth functions,
// less robust than Euler near discontinuities. It holds no mutable state
// and is safe for concurrent use.
type Talbot struct {
	// M is the number of contour nodes (also the achievable significant
	// digits is roughly 0.6*M in exact arithmetic; float64 caps it).
	M int
}

// NewTalbot returns a Talbot inverter with M=32 nodes.
func NewTalbot() *Talbot { return &Talbot{M: 32} }

// Name implements Inverter.
func (tb *Talbot) Name() string { return "talbot" }

func (tb *Talbot) nodes() int {
	if tb.M < 2 {
		return 2
	}
	return tb.M
}

// node returns the k-th contour node and its weight for time t.
func (tb *Talbot) node(k int, t float64) (s, w complex128) {
	m := tb.nodes()
	r := 2 * float64(m) / (5 * t)
	if k == 0 {
		return complex(r, 0), complex(0.5*math.Exp(r*t)*r/float64(m), 0)
	}
	theta := float64(k) * math.Pi / float64(m)
	cot := math.Cos(theta) / math.Sin(theta)
	s = complex(r*theta*cot, r*theta)
	sigma := theta + (theta*cot-1)*cot
	w = complex(r/float64(m), 0) * cmplx.Exp(complex(t, 0)*s) * complex(1, sigma)
	return s, w
}

// AppendNodes implements Inverter.
func (tb *Talbot) AppendNodes(s, w []complex128, t float64) ([]complex128, []complex128) {
	if t <= 0 {
		return s, w
	}
	for k := 0; k < tb.nodes(); k++ {
		sk, wk := tb.node(k, t)
		s = append(s, sk)
		w = append(w, wk)
	}
	return s, w
}

// GaverStehfest implements the Gaver–Stehfest algorithm. It evaluates the
// transform only on the real axis, which makes it attractive when the
// transform is awkward for complex arguments, but it is numerically fragile
// in double precision: N beyond ~14 loses all accuracy to cancellation.
type GaverStehfest struct {
	// N is the (even) number of terms. Default 14.
	N int

	once sync.Once
	n    int // effective (evened, defaulted) term count
	coef []float64
}

// NewGaverStehfest returns a Gaver–Stehfest inverter with N=14.
func NewGaverStehfest() *GaverStehfest {
	g := &GaverStehfest{N: 14}
	g.init()
	return g
}

// Name implements Inverter.
func (g *GaverStehfest) Name() string { return "gaver-stehfest" }

// init computes the Stehfest coefficients exactly once (see Euler.init).
func (g *GaverStehfest) init() {
	g.once.Do(func() {
		n := g.N
		if n <= 0 {
			n = 14
		}
		if n%2 == 1 {
			n++
		}
		g.n = n
		g.coef = make([]float64, n+1)
		half := n / 2
		for k := 1; k <= n; k++ {
			var sum float64
			lo := (k + 1) / 2
			hi := min(k, half)
			for j := lo; j <= hi; j++ {
				term := math.Pow(float64(j), float64(half)) * factorial(2*j)
				term /= factorial(half-j) * factorial(j) * factorial(j-1) *
					factorial(k-j) * factorial(2*j-k)
				sum += term
			}
			if (k+half)%2 == 1 {
				sum = -sum
			}
			g.coef[k] = sum
		}
	})
}

// AppendNodes implements Inverter.
func (g *GaverStehfest) AppendNodes(s, w []complex128, t float64) ([]complex128, []complex128) {
	if t <= 0 {
		return s, w
	}
	g.init()
	ln2t := math.Ln2 / t
	for k := 1; k <= g.n; k++ {
		s = append(s, complex(float64(k)*ln2t, 0))
		w = append(w, complex(ln2t*g.coef[k], 0))
	}
	return s, w
}

func factorial(n int) float64 {
	r := 1.0
	for i := 2; i <= n; i++ {
		r *= float64(i)
	}
	return r
}

// InvertCDF inverts the transform of a probability density f̂ into its CDF at
// t, clamping the result to [0, 1]. The CDF transform is f̂(s)/s.
func InvertCDF(inv Inverter, pdfTransform TransformFunc, t float64) float64 {
	if t <= 0 {
		return 0
	}
	v := Invert(inv, func(s complex128) complex128 {
		return pdfTransform(s) / s
	}, t)
	return Clamp01(v)
}

// Clamp01 clamps v to the closed unit interval.
func Clamp01(v float64) float64 {
	switch {
	case math.IsNaN(v):
		return 0
	case v < 0:
		return 0
	case v > 1:
		return 1
	}
	return v
}

// MeanFromLST estimates the mean of a nonnegative random variable from its
// LST by one-sided numerical differentiation at the origin:
// E[X] = -d/ds E[e^{-sX}] at s=0.
func MeanFromLST(f TransformFunc, scale float64) float64 {
	if scale <= 0 {
		scale = 1
	}
	h := 1e-6 / scale
	// 4th-order one-sided difference for -f'(0) with f(0)=1.
	f1 := real(f(complex(h, 0)))
	f2 := real(f(complex(2*h, 0)))
	f3 := real(f(complex(3*h, 0)))
	f4 := real(f(complex(4*h, 0)))
	return -(-25.0/12.0 + 4*f1 - 3*f2 + 4.0/3.0*f3 - 0.25*f4) / h
}

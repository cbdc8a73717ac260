package numeric

import "math"

// IntegrateAdaptive computes ∫_a^b f(x) dx with adaptive Simpson quadrature
// to the requested absolute tolerance. It is intended for smooth integrands;
// integrable endpoint singularities should be transformed away by the caller.
func IntegrateAdaptive(f func(float64) float64, a, b, tol float64) float64 {
	if a == b {
		return 0
	}
	if tol <= 0 {
		tol = 1e-10
	}
	fa, fm, fb := f(a), f((a+b)/2), f(b)
	whole := simpson(a, b, fa, fm, fb)
	return adaptiveSimpson(f, a, b, fa, fm, fb, whole, tol, 50)
}

func simpson(a, b, fa, fm, fb float64) float64 {
	return (b - a) / 6 * (fa + 4*fm + fb)
}

func adaptiveSimpson(f func(float64) float64, a, b, fa, fm, fb, whole, tol float64, depth int) float64 {
	m := (a + b) / 2
	lm := (a + m) / 2
	rm := (m + b) / 2
	flm, frm := f(lm), f(rm)
	left := simpson(a, m, fa, flm, fm)
	right := simpson(m, b, fm, frm, fb)
	delta := left + right - whole
	if depth <= 0 || math.Abs(delta) <= 15*tol {
		return left + right + delta/15
	}
	return adaptiveSimpson(f, a, m, fa, flm, fm, left, tol/2, depth-1) +
		adaptiveSimpson(f, m, b, fm, frm, fb, right, tol/2, depth-1)
}

// GaussLegendre01 returns the n-point Gauss–Legendre rule on [0,1]: nodes in
// increasing order and weights summing to 1, so Σ w_j·f(u_j) integrates
// polynomials of degree ≤ 2n−1 exactly. The roots of Pₙ come from Newton's
// method started at the Tricomi estimate cos(π(i+3/4)/(n+1/2)).
func GaussLegendre01(n int) (nodes, weights []float64) {
	nodes, weights = make([]float64, n), make([]float64, n)
	for i := 0; i < (n+1)/2; i++ {
		z, dp := math.Cos(math.Pi*(float64(i)+0.75)/(float64(n)+0.5)), 0.0
		for iter := 0; iter < 100; iter++ {
			p, prev := 1.0, 0.0 // P_j(z), P_{j-1}(z) by the three-term recurrence
			for j := 1; j <= n; j++ {
				p, prev = ((2*float64(j)-1)*z*p-(float64(j)-1)*prev)/float64(j), p
			}
			dp = float64(n) * (z*p - prev) / (z*z - 1)
			dz := p / dp
			z -= dz
			if math.Abs(dz) <= 1e-15 {
				break
			}
		}
		w := 1 / ((1 - z*z) * dp * dp) // half of the [-1,1] weight 2/((1−z²)Pₙ'(z)²)
		nodes[i], nodes[n-1-i] = (1-z)/2, (1+z)/2
		weights[i], weights[n-1-i] = w, w
	}
	return nodes, weights
}

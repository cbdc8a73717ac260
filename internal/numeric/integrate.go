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

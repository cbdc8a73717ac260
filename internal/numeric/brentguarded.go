package numeric

import (
	"errors"
	"fmt"
	"math"
)

// ErrNoBracket is returned when a root finder is given an interval whose
// endpoints do not bracket a sign change.
var ErrNoBracket = errors.New("numeric: endpoints do not bracket a root")

// NonMonotoneError reports that a probe during guarded bracketed root
// finding escaped the envelope of the current bracket values by more than
// the caller's slack. For a monotone function every interior probe lies
// between the bracket endpoint values (up to bounded numerical noise), so
// an excursion means the function being inverted — typically a numerically
// inverted CDF — is itself broken, and any root extracted from it would be
// garbage.
type NonMonotoneError struct {
	// X is the probe location and F the offending function value.
	X, F float64
}

func (e *NonMonotoneError) Error() string {
	return fmt.Sprintf("numeric: non-monotone function in bracketed root finding: f(%g) = %g escapes the bracket envelope", e.X, e.F)
}

// Unwrap ties the guard into the package's numerical-failure taxonomy:
// errors.Is(err, ErrNumerical) holds for non-monotone aborts.
func (e *NonMonotoneError) Unwrap() error { return ErrNumerical }

// BrentGuarded finds a root of a nominally non-decreasing f on [lo, hi],
// given the endpoint values flo = f(lo) <= 0 <= fhi = f(hi) (passed in so
// bracket-growth probes are not re-evaluated). It replaces plain bisection
// on the quantile and admission search paths: probes interpolate through
// the bracket endpoints (false position with the Illinois modification —
// after two consecutive updates of the same endpoint the stagnant side's
// interpolation weight is halved, so the secant is forced across the root
// and both endpoints converge), resolving a smooth CDF in a handful of
// probes instead of a fixed bisection budget, while a bisection safeguard
// bounds the worst case.
//
// Guards, preserved from the bisections this replaces:
//
//   - f returning an error aborts immediately with that error — the closure
//     carries the caller's cancellation checkpoints, so ctx and EvalTimeout
//     are observed at every probe exactly as before;
//   - a probe value below flo-slack or above fhi+slack (the envelope of the
//     current bracket, which tightens as the bracket shrinks) aborts with a
//     *NonMonotoneError; NaN probes fail the envelope check by comparison
//     semantics and are rejected the same way.
//
// Stall detection: when an interpolated step leaves more than 75% of the
// bracket standing — the signature of a flat plateau, e.g. a clamped or
// saturated CDF, where secant iterates collapse onto one endpoint — the
// next step bisects instead of looping interpolation to the iteration cap.
// Convergence is therefore never slower than half bisection speed.
//
// xtol is the bracket width at which the search stops; xtol <= 0 iterates
// until the bracket collapses to adjacent floating-point values (or the
// 200-iteration cap). The returned root is the final bracket midpoint.
func BrentGuarded(f func(float64) (float64, error), lo, flo, hi, fhi, xtol, slack float64) (float64, error) {
	if !(flo <= 0) || !(fhi >= 0) || !(lo <= hi) {
		return math.NaN(), ErrNoBracket
	}
	if flo == 0 {
		return lo, nil
	}
	if fhi == 0 {
		return hi, nil
	}
	// flo/fhi stay the true probed endpoint values (they define the
	// monotonicity envelope); wlo/whi are the interpolation weights, which
	// the Illinois step may scale down without touching the envelope.
	bisect := false
	side := 0 // -1: last probe moved lo, +1: moved hi
	wlo, whi := flo, fhi
	for iter := 0; iter < 200 && hi-lo > xtol; iter++ {
		var x float64
		if d := whi - wlo; !bisect && d > 0 && !math.IsInf(d, 0) {
			x = lo + (hi-lo)*(-wlo/d)
			// Clamp interpolated probes strictly interior: a probe glued
			// to an endpoint cannot shrink the bracket, while a clamped
			// probe still cuts at least the pad off one side.
			pad := 0.01 * (hi - lo)
			if x < lo+pad {
				x = lo + pad
			} else if x > hi-pad {
				x = hi - pad
			}
		} else {
			x = lo + (hi-lo)/2
		}
		if x <= lo || x >= hi {
			break // bracket collapsed to adjacent floats
		}
		v, err := f(x)
		if err != nil {
			return 0, err
		}
		if !(v >= flo-slack) || !(v <= fhi+slack) {
			return 0, &NonMonotoneError{X: x, F: v}
		}
		width := hi - lo
		if v < 0 {
			lo, flo, wlo = x, v, v
			if side == -1 {
				whi *= 0.5
			}
			side = -1
		} else {
			hi, fhi, whi = x, v, v
			if side == 1 {
				wlo *= 0.5
			}
			side = 1
		}
		bisect = hi-lo > 0.75*width
	}
	return lo + (hi-lo)/2, nil
}

package numeric

import (
	"errors"
	"fmt"
	"math"
	"strings"
)

// ErrNumerical reports that numerical Laplace inversion produced an invalid
// result (NaN, infinity, a value far outside [0,1] for a CDF, or a grossly
// non-monotone CDF) and that every configured fallback inverter failed too.
// It is the structured alternative to silently returning garbage: callers
// can errors.Is against it and degrade (shed the query, report unhealthy)
// instead of propagating a poisoned prediction.
var ErrNumerical = errors.New("numeric: inversion produced an invalid result")

// CDFSlack is the tolerance applied when validating an inverted CDF value:
// inversion noise legitimately overshoots [0,1] by a small amount (and is
// clamped), but an excursion beyond this slack marks the inversion itself
// as broken rather than merely noisy.
const CDFSlack = 0.05

// InversionError details one failed guarded inversion. It wraps
// ErrNumerical, so errors.Is(err, ErrNumerical) matches.
type InversionError struct {
	// T is the evaluation time.
	T float64
	// Value is the offending value produced by the last inverter tried.
	Value float64
	// Reason describes what made the value invalid.
	Reason string
	// Tried lists the inverter names attempted, in order.
	Tried []string
}

func (e *InversionError) Error() string {
	return fmt.Sprintf("%v: %s at t=%g (got %g; tried %s)",
		ErrNumerical, e.Reason, e.T, e.Value, strings.Join(e.Tried, ", "))
}

func (e *InversionError) Unwrap() error { return ErrNumerical }

// CheckCDF validates v as a plausible inverted-CDF value. It returns a
// non-empty reason when v is NaN, infinite, or outside [0,1] by more than
// CDFSlack, and "" when v is acceptable (possibly needing a clamp).
func CheckCDF(v float64) string {
	switch {
	case math.IsNaN(v):
		return "NaN CDF value"
	case math.IsInf(v, 0):
		return "infinite CDF value"
	case v < -CDFSlack:
		return fmt.Sprintf("CDF value below 0 by %g", -v)
	case v > 1+CDFSlack:
		return fmt.Sprintf("CDF value above 1 by %g", v-1)
	}
	return ""
}

// defaultFallbacks is the shared fallback chain; inverters are immutable
// after construction, so the instances can be shared by every caller.
var defaultFallbacks = []Inverter{NewEuler(), NewGaverStehfest()}

// DefaultFallbacks returns the standard fallback inverter chain tried when
// a primary inverter produces an invalid CDF value: Euler first (the
// robust workhorse), then Gaver–Stehfest (real-axis evaluation, a genuinely
// different failure surface). The returned slice is shared; callers must
// not modify it.
func DefaultFallbacks() []Inverter { return defaultFallbacks }

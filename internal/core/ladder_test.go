package core

import (
	"context"
	"errors"
	"math"
	"testing"
)

// referenceMaxRateWhereValue is the admission search as it stood before
// the ladder gained an anchor: a climb from rung 0. It is kept verbatim
// apart from also returning the upper end of the final bracket (lo when
// rung 0 fails, the unprobed rung past the ceiling when every rung held),
// the reference the anchored ladder must reproduce bit for bit.
func referenceMaxRateWhereValue(ctx context.Context, probe func(ctx context.Context, rate float64) (margin float64, ok bool, err error), lo, tol float64) (float64, float64, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if lo <= 0 {
		lo = 1
	}
	if tol <= 0 {
		tol = lo * 1e-3
	}
	eval := func(rate float64) (float64, bool, error) {
		if err := ctx.Err(); err != nil {
			return 0, false, err
		}
		m, ok, err := probe(ctx, rate)
		if math.IsNaN(m) {
			ok = false // a NaN margin carries no ordering information
		}
		return m, ok, err
	}
	mLo, ok, err := eval(lo)
	if err != nil {
		return 0, 0, err
	}
	if !ok || mLo < 0 {
		return 0, lo, nil
	}
	hi := lo * 2
	const ceiling = 1e9 // far beyond any physically admissible rate here
	var mHi float64
	var okHi bool
	for {
		m, ok, err := eval(hi)
		if err != nil {
			return 0, 0, err
		}
		if !ok || m < 0 {
			mHi, okHi = m, ok
			break
		}
		lo, mLo = hi, m
		hi *= 2
		if hi > ceiling {
			return lo, hi, nil
		}
	}
	stalled := false
	for hi-lo > tol {
		var mid float64
		if okHi && mHi < 0 && mLo > 0 && !stalled {
			// False position: root of the secant through (lo, mLo) and
			// (hi, mHi), clamped to the bracket interior so a flat margin
			// cannot pin the iterate to an endpoint.
			mid = lo + (hi-lo)*mLo/(mLo-mHi)
			pad := 0.05 * (hi - lo)
			if mid < lo+pad {
				mid = lo + pad
			}
			if mid > hi-pad {
				mid = hi - pad
			}
		} else {
			mid = lo + (hi-lo)/2
		}
		width := hi - lo
		m, ok, err := eval(mid)
		if err != nil {
			return 0, 0, err
		}
		if ok && m >= 0 {
			lo, mLo = mid, m
		} else {
			hi, mHi, okHi = mid, m, ok
		}
		stalled = hi-lo > 0.5*width
	}
	return lo, hi, nil
}

// monotoneMargin is an admission margin non-increasing in rate: positive
// below edge and negative above it (steeper away from the edge as curve
// grows), NaN above nanAbove, and no steady state (ok == false) from
// overload on.
type monotoneMargin struct {
	edge, overload, nanAbove, curve float64
}

func (mm monotoneMargin) probe(rates *[]float64) func(context.Context, float64) (float64, bool, error) {
	return func(_ context.Context, rate float64) (float64, bool, error) {
		*rates = append(*rates, rate)
		if rate >= mm.overload {
			return 0, false, nil
		}
		if rate > mm.nanAbove {
			return math.NaN(), true, nil
		}
		x := (mm.edge - rate) / mm.edge
		return x + mm.curve*x*x*x, true, nil
	}
}

// checkLadder runs the anchored search and the reference over mm and
// fails unless result and final bracket agree bit for bit and the anchored
// search probes at most two rates beyond its (caller-held) anchor more
// than the reference does.
func checkLadder(t *testing.T, mm monotoneMargin, lo, tol float64, anchor int) {
	t.Helper()
	var got, want []float64
	rate, hi, err := maxRateWhereValue(context.Background(), mm.probe(&got), lo, tol, anchor)
	if err != nil {
		t.Fatal(err)
	}
	wantRate, wantHi, err := referenceMaxRateWhereValue(context.Background(), mm.probe(&want), lo, tol)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(rate) != math.Float64bits(wantRate) || math.Float64bits(hi) != math.Float64bits(wantHi) {
		t.Fatalf("%+v lo=%g anchor=%d: result %v bracket hi %v, reference %v and %v (probes %v vs %v)",
			mm, lo, anchor, rate, hi, wantRate, wantHi, got, want)
	}
	if len(got)-1 > len(want)+2 {
		t.Fatalf("%+v lo=%g anchor=%d: %d probes beyond the anchor, reference %d (probes %v vs %v)",
			mm, lo, anchor, len(got)-1, len(want), got, want)
	}
	if anchor == 0 && len(got) != len(want) {
		t.Fatalf("anchor 0 probes %v, reference %v", got, want)
	}
}

// TestMaxRateWhereValueLadder walks the admissible edge across every rung
// of the ladder for every anchor up to 8, with overload and NaN edges
// below, at and above it, plus the ceiling.
func TestMaxRateWhereValueLadder(t *testing.T) {
	const lo = 300.0 / 64
	for anchor := 0; anchor <= 8; anchor++ {
		for k := -1; k <= 10; k++ {
			edge := lo * math.Pow(2, float64(k)+0.37)
			checkLadder(t, monotoneMargin{edge: edge, overload: math.Inf(1), nanAbove: math.Inf(1)}, lo, lo*64/200, anchor)
			checkLadder(t, monotoneMargin{edge: edge, overload: edge * 0.7, nanAbove: math.Inf(1), curve: 3}, lo, lo*64/200, anchor)
			checkLadder(t, monotoneMargin{edge: edge, overload: math.Inf(1), nanAbove: edge * 1.2}, lo, lo*64/200, anchor)
			checkLadder(t, monotoneMargin{edge: edge, overload: lo * math.Pow(2, float64(k)), nanAbove: math.Inf(1)}, lo, lo*64/200, anchor)
		}
		checkLadder(t, monotoneMargin{edge: 1e12, overload: math.Inf(1), nanAbove: math.Inf(1)}, lo, 1, anchor)
		checkLadder(t, monotoneMargin{edge: 1e12, overload: math.Inf(1), nanAbove: math.Inf(1)}, 4e8, 1, anchor)
		checkLadder(t, monotoneMargin{edge: 1e12, overload: math.Inf(1), nanAbove: math.Inf(1)}, 3e9, 1, anchor)
	}
}

// TestMaxRateWhereValueAbortsOnError pins the error contract at every
// stage of the anchored ladder: a probe error or a cancelled context
// aborts the search with that error.
func TestMaxRateWhereValueAbortsOnError(t *testing.T) {
	boom := errors.New("probe failed")
	mm := monotoneMargin{edge: 150, overload: math.Inf(1), nanAbove: math.Inf(1)}
	for failAt := 1; failAt <= 6; failAt++ {
		n := 0
		var rates []float64
		inner := mm.probe(&rates)
		probe := func(ctx context.Context, rate float64) (float64, bool, error) {
			if n++; n == failAt {
				return 0, false, boom
			}
			return inner(ctx, rate)
		}
		if _, err := MaxRateWhereValueContext(context.Background(), probe, 300.0/64, 1.5, 6); !errors.Is(err, boom) {
			t.Errorf("error at probe %d: err = %v", failAt, err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		n = 0
		cancelling := func(ctx context.Context, rate float64) (float64, bool, error) {
			if n++; n == failAt {
				cancel()
			}
			return inner(ctx, rate)
		}
		if _, err := MaxRateWhereValueContext(ctx, cancelling, 300.0/64, 1.5, 6); !errors.Is(err, context.Canceled) {
			t.Errorf("cancel at probe %d: err = %v", failAt, err)
		}
		cancel()
	}
}

// FuzzMaxRateWhereValue draws random monotone margins (an admissible edge,
// overload from a random rate on, NaN above another) and a random anchor
// rung up to 8, and requires the anchored ladder to reproduce the climb
// from rung 0 bit for bit, result and final bracket, within two probes of
// its count.
func FuzzMaxRateWhereValue(f *testing.F) {
	f.Add(300.0/64, 347.5, math.Inf(1), math.Inf(1), 0.0, uint8(6))
	f.Add(300.0/64, 3.0, math.Inf(1), math.Inf(1), 1.0, uint8(6))
	f.Add(300.0/64, 7.0, 6.0, math.Inf(1), 0.0, uint8(6))
	f.Add(300.0/64, 90.0, math.Inf(1), 80.0, 2.0, uint8(6))
	f.Add(1.0, 1e12, math.Inf(1), math.Inf(1), 0.0, uint8(8))
	f.Add(5e8, 1e12, math.Inf(1), math.Inf(1), 0.0, uint8(3))
	f.Fuzz(func(t *testing.T, lo, edge, overload, nanAbove, curve float64, anchor uint8) {
		if !(lo >= 1e-6 && lo <= 1e12) || !(edge > 0) || math.IsInf(edge, 0) ||
			math.IsNaN(overload) || math.IsNaN(nanAbove) || !(curve >= 0 && curve <= 1e3) {
			t.Skip()
		}
		checkLadder(t, monotoneMargin{edge: edge, overload: overload, nanAbove: nanAbove, curve: curve},
			lo, lo*64/200, int(anchor%9))
	})
}

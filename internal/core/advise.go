package core

import (
	"context"
	"errors"
	"fmt"
	"math"
)

// Deployment describes a homogeneous deployment whose admissible load is
// being asked about: identical storage devices behind a shared frontend
// tier, with the aggregate arrival rate split evenly across devices. It is
// the operating-point parameterization shared by the capacity-planning and
// overload-control applications (the paper's §I use cases) and by the
// serving layer's /advise endpoint.
type Deployment struct {
	// Props are the benchmarked device properties (Section IV-A).
	Props DeviceProperties
	// Devices is the number of storage devices.
	Devices int
	// Procs is Nbe, the process count per device.
	Procs int
	// FrontendProcs is the frontend process count across the tier.
	FrontendProcs int
	// ExtraReadFrac is p: mean extra data reads per request, so each
	// device's data-read rate is its request rate times (1 + p).
	ExtraReadFrac float64
	// MissIndex, MissMeta, MissData are the cache miss ratios assumed at
	// the operating point.
	MissIndex, MissMeta, MissData float64
	// DiskMean optionally overrides the observed overall mean disk service
	// time b; 0 derives it from Props and the operation mix.
	DiskMean float64
	// Opts select model variants.
	Opts Options
}

// Validate checks the deployment description.
func (d Deployment) Validate() error {
	if err := d.Props.Validate(); err != nil {
		return err
	}
	switch {
	case d.Devices < 1:
		return fmt.Errorf("%w: deployment needs at least one device", ErrBadParams)
	case d.Procs < 1:
		return fmt.Errorf("%w: deployment needs at least one process per device", ErrBadParams)
	case d.FrontendProcs < 1:
		return fmt.Errorf("%w: deployment needs at least one frontend process", ErrBadParams)
	case d.ExtraReadFrac < 0:
		return fmt.Errorf("%w: extra read fraction %v", ErrBadParams, d.ExtraReadFrac)
	case d.DiskMean < 0:
		return fmt.Errorf("%w: disk mean %v", ErrBadParams, d.DiskMean)
	}
	for _, miss := range []float64{d.MissIndex, d.MissMeta, d.MissData} {
		if miss < 0 || miss > 1 {
			return fmt.Errorf("%w: miss ratio %v outside [0,1]", ErrBadParams, miss)
		}
	}
	return nil
}

// Metrics returns the per-device online metrics at aggregate rate.
func (d Deployment) Metrics(rate float64) OnlineMetrics {
	return OnlineMetrics{
		Rate:      rate / float64(d.Devices),
		DataRate:  rate * (1 + d.ExtraReadFrac) / float64(d.Devices),
		MissIndex: d.MissIndex,
		MissMeta:  d.MissMeta,
		MissData:  d.MissData,
		Procs:     d.Procs,
		DiskMean:  d.DiskMean,
	}
}

// Model builds the system model at aggregate arrival rate. It returns
// ErrOverload (wrapped) when the operating point has no steady state.
func (d Deployment) Model(rate float64) (*SystemModel, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	if rate <= 0 {
		return nil, fmt.Errorf("%w: rate %v must be positive", ErrBadParams, rate)
	}
	dev, err := NewDeviceModel(d.Props, d.Metrics(rate), d.Opts)
	if err != nil {
		return nil, err
	}
	// The devices are identical, so one model can stand in for all of
	// them: the system mixture weights each slot by its own rate.
	devs := make([]*DeviceModel, d.Devices)
	for i := range devs {
		devs[i] = dev
	}
	fe, err := NewFrontendModel(rate, d.FrontendProcs, d.Props.ParseFE)
	if err != nil {
		return nil, err
	}
	return NewSystemModel(fe, devs, d.Opts)
}

// MeetFraction predicts the fraction of requests meeting the SLA bound at
// aggregate rate. It returns ErrOverload (wrapped) when the operating point
// has no steady state.
func (d Deployment) MeetFraction(rate, sla float64) (float64, error) {
	return d.MeetFractionContext(context.Background(), rate, sla)
}

// MeetFractionContext is the context-aware MeetFraction: the guarded
// mixture evaluation observes ctx and the deployment's Opts.EvalTimeout,
// and a numerically poisoned inversion surfaces as numeric.ErrNumerical.
func (d Deployment) MeetFractionContext(ctx context.Context, rate, sla float64) (float64, error) {
	sys, err := d.Model(rate)
	if err != nil {
		return 0, err
	}
	out, err := sys.Eval(ctx, []float64{sla})
	if err != nil {
		return 0, err
	}
	return out[0][0], nil
}

// MaxAdmissibleRate returns the largest aggregate arrival rate (req/s, to
// within 1 req/s) at which the deployment still meets target — the
// admission threshold of the paper's overload-control application. It
// returns 0 when even minimal load misses the target.
func MaxAdmissibleRate(d Deployment, sla, target float64) (float64, error) {
	return MaxAdmissibleRateContext(context.Background(), d, sla, target)
}

// MaxAdmissibleRateContext is the context-aware admission search: ctx and
// the deployment's Opts.EvalTimeout are observed at every bisection probe
// (overload at a probe point simply bounds the search; cancellation and
// numerical failure abort it with the error).
func MaxAdmissibleRateContext(ctx context.Context, d Deployment, sla, target float64) (rate float64, err error) {
	if err := d.Validate(); err != nil {
		return 0, err
	}
	if sla <= 0 || target <= 0 || target > 1 {
		return 0, fmt.Errorf("%w: sla %v, target %v", ErrBadParams, sla, target)
	}
	ctx, cancel := d.Opts.EvalContext(ctx)
	defer cancel()
	probes := 0
	done := d.Opts.span("max_admissible_rate", 0, 0)
	defer func() { done(probes, err) }()
	margin := func(ctx context.Context, rate float64) (float64, bool, error) {
		probes++
		p, err := d.MeetFractionContext(ctx, rate, sla)
		switch {
		case err == nil:
			return p - target, true, nil
		case errors.Is(err, ErrOverload) || errors.Is(err, ErrBadParams):
			// No steady state at this probe point: the rate is simply
			// inadmissible, not a search failure.
			return 0, false, nil
		default:
			return 0, false, err // cancellation, deadline or numerical failure
		}
	}
	return MaxRateWhereValueContext(ctx, margin, 1, 1)
}

// Headroom returns the additional aggregate rate the deployment can admit
// before the predicted percentile drops below target: MaxAdmissibleRate
// minus current. Negative headroom means the deployment is already past the
// admission threshold.
func Headroom(d Deployment, current, sla, target float64) (float64, error) {
	return HeadroomContext(context.Background(), d, current, sla, target)
}

// HeadroomContext is the context-aware Headroom; see
// MaxAdmissibleRateContext.
func HeadroomContext(ctx context.Context, d Deployment, current, sla, target float64) (float64, error) {
	max, err := MaxAdmissibleRateContext(ctx, d, sla, target)
	if err != nil {
		return 0, err
	}
	return max - current, nil
}

// MaxRateWhere returns the largest rate at which meets still holds,
// assuming meets is monotone non-increasing in rate (true for SLA
// compliance under increasing load). The search starts at lo (> 0), doubles
// until meets fails, and bisects to within tol. It returns 0 when meets
// fails already at lo.
//
// The probes run sequentially — bisection is inherently serial — but each
// probe typically builds a model whose own evaluation fans out across the
// worker pool configured by Options.Workers, so admission searches over
// wide device mixtures parallelize from the inside.
func MaxRateWhere(meets func(rate float64) bool, lo, tol float64) float64 {
	v, _ := MaxRateWhereContext(context.Background(),
		func(_ context.Context, rate float64) (bool, error) { return meets(rate), nil },
		lo, tol)
	return v
}

// MaxRateWhereContext is the cancellable monotone bisection underlying
// every admission search: ctx is checked before each probe, and a probe
// returning an error (cancellation propagated by the model evaluation, a
// numerical failure, ...) aborts the search immediately with that error.
// The bounded probe count (geometric doubling to a 1e9 ceiling plus
// bisection to tol) guarantees the search terminates even when meets is
// pathological.
func MaxRateWhereContext(ctx context.Context, meets func(ctx context.Context, rate float64) (bool, error), lo, tol float64) (float64, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if lo <= 0 {
		lo = 1
	}
	if tol <= 0 {
		tol = lo * 1e-3
	}
	probe := func(rate float64) (bool, error) {
		if err := ctx.Err(); err != nil {
			return false, err
		}
		return meets(ctx, rate)
	}
	ok, err := probe(lo)
	if err != nil {
		return 0, err
	}
	if !ok {
		return 0, nil
	}
	hi := lo * 2
	const ceiling = 1e9 // far beyond any physically admissible rate here
	for {
		ok, err := probe(hi)
		if err != nil {
			return 0, err
		}
		if !ok {
			break
		}
		lo = hi
		hi *= 2
		if hi > ceiling {
			return lo, nil
		}
	}
	for hi-lo > tol {
		mid := (lo + hi) / 2
		ok, err := probe(mid)
		if err != nil {
			return 0, err
		}
		if ok {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, nil
}

// MaxRateWhereValueContext is the margin-aware admission search: probe
// reports how far above the requirement a rate sits (margin >= 0 means
// admissible) rather than only whether it holds, and the bracket is
// narrowed by false position on the margin with a bisection safeguard — a
// near-linear margin collapses the bracket in a handful of probes where
// blind bisection needs log2(range/tol). probe returning ok == false marks
// the rate inadmissible without ordering information (e.g. overload), so
// the step above it always bisects; a NaN margin is treated the same way.
// Contract otherwise matches MaxRateWhereContext: ctx is checked before
// every probe, probe errors abort the search, the result is the largest
// rate actually probed admissible (0 when lo itself fails), and the probe
// count is bounded by the geometric doubling plus the safeguarded
// narrowing to tol.
func MaxRateWhereValueContext(ctx context.Context, probe func(ctx context.Context, rate float64) (margin float64, ok bool, err error), lo, tol float64) (float64, error) {
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
		return 0, err
	}
	if !ok || mLo < 0 {
		return 0, nil
	}
	hi := lo * 2
	const ceiling = 1e9 // far beyond any physically admissible rate here
	var mHi float64
	var okHi bool
	for {
		m, ok, err := eval(hi)
		if err != nil {
			return 0, err
		}
		if !ok || m < 0 {
			mHi, okHi = m, ok
			break
		}
		lo, mLo = hi, m
		hi *= 2
		if hi > ceiling {
			return lo, nil
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
			return 0, err
		}
		if ok && m >= 0 {
			lo, mLo = mid, m
		} else {
			hi, mHi, okHi = mid, m, ok
		}
		stalled = hi-lo > 0.5*width
	}
	return lo, nil
}

// Package core implements the paper's analytic performance model for cloud
// object storage systems: it predicts the percentile of requests meeting an
// SLA (a response-latency bound) from benchmarked device properties and
// online system metrics.
//
// The model composes, in the Laplace–Stieltjes transform domain,
//
//	Sfe = Sq ∗ Wa ∗ Sbe                                      (paper Eq. 2)
//
// where Sq is the frontend M/G/1 sojourn time, Wa the waiting time for
// being accept()-ed (approximated by the backend queue's waiting time), and
// Sbe the backend response time built from the "union operation"
// abstraction. The system-level CDF is the arrival-rate-weighted mixture
// over storage devices (Eq. 3). Numerical transform inversion recovers the
// CDF at the SLA.
package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"cosmodel/internal/dist"
	"cosmodel/internal/numeric"
	"cosmodel/internal/parallel"
)

// ErrBadParams reports invalid model parameters.
var ErrBadParams = errors.New("core: invalid model parameters")

// ErrOverload reports that the modeled system has no steady state at the
// given load (utilization >= 1 somewhere). The paper stops analyzing such
// operating points: "it is enough to know that the system does not perform
// well in such situations".
var ErrOverload = errors.New("core: modeled queue is overloaded")

// DeviceProperties are the benchmarked performance properties of one
// storage device and its server processes (Section IV-A): fitted raw disk
// service-time distributions per operation class and the (near-constant)
// request parsing latencies of the two tiers.
type DeviceProperties struct {
	// IndexDisk, MetaDisk, DataDisk are the fitted distributions of raw
	// disk service times for index lookups, metadata reads and data chunk
	// reads (the paper fits Gamma distributions, Fig. 5).
	IndexDisk dist.Distribution
	MetaDisk  dist.Distribution
	DataDisk  dist.Distribution
	// ParseBE is the backend request-parsing latency distribution.
	ParseBE dist.Distribution
	// ParseFE is the frontend request-parsing latency distribution.
	ParseFE dist.Distribution
}

// Validate checks the properties.
func (p DeviceProperties) Validate() error {
	check := func(name string, d dist.Distribution) error {
		if d == nil {
			return fmt.Errorf("%w: %s distribution is nil", ErrBadParams, name)
		}
		if d.Mean() < 0 {
			return fmt.Errorf("%w: %s mean is negative", ErrBadParams, name)
		}
		return nil
	}
	for _, c := range []struct {
		name string
		d    dist.Distribution
	}{
		{"index", p.IndexDisk}, {"meta", p.MetaDisk}, {"data", p.DataDisk},
		{"parseBE", p.ParseBE}, {"parseFE", p.ParseFE},
	} {
		if err := check(c.name, c.d); err != nil {
			return err
		}
	}
	if p.IndexDisk.Mean()+p.MetaDisk.Mean()+p.DataDisk.Mean() <= 0 {
		return fmt.Errorf("%w: disk service means are all zero", ErrBadParams)
	}
	return nil
}

// Proportions returns the benchmarked service-time proportions
// (pi, pm, pd), normalized to sum to 1. The paper assumes these proportions
// persist while the absolute disk service time fluctuates online.
func (p DeviceProperties) Proportions() (pi, pm, pd float64) {
	bi, bm, bd := p.IndexDisk.Mean(), p.MetaDisk.Mean(), p.DataDisk.Mean()
	total := bi + bm + bd
	return bi / total, bm / total, bd / total
}

// OnlineMetrics are the per-device runtime measurements the model consumes
// (Section IV-B): arrival rates, cache miss ratios, process count and the
// observed overall mean disk service time.
type OnlineMetrics struct {
	// Rate is r: the request arrival rate at the device (req/s).
	Rate float64
	// DataRate is rdata: the arrival rate of data read operations
	// (chunk reads, counting cache hits and misses alike).
	DataRate float64
	// MissIndex, MissMeta, MissData are the cache miss ratios of the three
	// operation classes.
	MissIndex, MissMeta, MissData float64
	// Procs is Nbe: the number of processes dedicated to the device.
	Procs int
	// DiskMean is the observed overall mean raw disk service time b. If
	// zero, it is derived from the benchmarked distributions and the
	// operation mix.
	DiskMean float64
	// WriteRate is w: the arrival rate of PUT replica sub-requests at the
	// device (writes/s). 0 models a read-only workload and leaves the
	// read pipeline exactly as the paper defines it; a positive rate adds
	// a write class to the same FCFS union-operation queue, so write load
	// inflates the waiting time seen by reads and vice versa.
	WriteRate float64
	// WriteChunks is the mean number of data-chunk disk writes per PUT
	// replica sub-request (>= 1 when WriteRate > 0, 0 otherwise). Writes
	// always reach the disk: a PUT performs an index write, WriteChunks
	// data-chunk writes and a metadata write with no cache shortcut.
	WriteChunks float64
}

// Validate checks the metrics.
func (m OnlineMetrics) Validate() error {
	switch {
	case m.Rate <= 0:
		return fmt.Errorf("%w: rate %v must be positive", ErrBadParams, m.Rate)
	case m.DataRate < m.Rate:
		return fmt.Errorf("%w: data rate %v below request rate %v (each request reads at least one chunk)",
			ErrBadParams, m.DataRate, m.Rate)
	case m.Procs < 1:
		return fmt.Errorf("%w: procs %d", ErrBadParams, m.Procs)
	case m.DiskMean < 0:
		return fmt.Errorf("%w: disk mean %v", ErrBadParams, m.DiskMean)
	case m.WriteRate < 0:
		return fmt.Errorf("%w: write rate %v must be nonnegative", ErrBadParams, m.WriteRate)
	case m.WriteRate > 0 && m.WriteChunks < 1:
		return fmt.Errorf("%w: write chunks %v must be >= 1 when writes arrive (each PUT writes at least one chunk)",
			ErrBadParams, m.WriteChunks)
	case m.WriteRate == 0 && m.WriteChunks != 0:
		return fmt.Errorf("%w: write chunks %v without write traffic", ErrBadParams, m.WriteChunks)
	}
	for _, miss := range []float64{m.MissIndex, m.MissMeta, m.MissData} {
		if miss < 0 || miss > 1 {
			return fmt.Errorf("%w: miss ratio %v outside [0,1]", ErrBadParams, miss)
		}
	}
	return nil
}

// ExtraReads returns p: the mean number of extra data reads per union
// operation, (rdata - r)/r, clamped at zero.
func (m OnlineMetrics) ExtraReads() float64 {
	p := (m.DataRate - m.Rate) / m.Rate
	if p < 0 {
		return 0
	}
	return p
}

// WTAMode selects how the waiting time for being accept()-ed is modeled.
type WTAMode int

const (
	// WTAApprox is the paper's model: Wa(t) = Wbe(t), the backend request
	// processing queue's waiting-time distribution (via PASTA).
	WTAApprox WTAMode = iota
	// WTANone ignores the WTA entirely — the paper's "noWTA" baseline.
	WTANone
	// WTAExact is the paper's exact integral
	// P(Wa > t) = ∫_{x≥t} a(x)(x−t)/x dx instead of the Wa = A
	// approximation (ablation). The integral is the law of Wa = U·Wbe,
	// U ~ Uniform(0,1) independent of Wbe (the accept lifetime, by PASTA),
	// so Wa(s) = ∫₀¹ Wbe(u·s) du, evaluated by a fixed 32-point
	// Gauss–Legendre rule, and E[Wa] = E[Wbe]/2.
	WTAExact
)

// DiskQueueMode selects the disk-queue approximation for Nbe > 1.
type DiskQueueMode int

const (
	// DiskMM1K is the paper's choice: M/M/1/K with K = Nbe.
	DiskMM1K DiskQueueMode = iota
	// DiskMG1 is an ablation: an unbounded M/G/1 disk queue with the
	// true (scaled) service mixture.
	DiskMG1
)

// CompoundMode selects how the number of extra data reads per union
// operation is modeled.
type CompoundMode int

const (
	// CompoundPoisson is the paper's model: Poisson-many extra reads.
	CompoundPoisson CompoundMode = iota
	// CompoundFixed uses the rounded mean as a deterministic count
	// (ablation).
	CompoundFixed
	// CompoundGeometric uses a geometric count with the same mean
	// (ablation).
	CompoundGeometric
)

// Options configure a model instance. The zero value is the paper's model
// with the Euler inverter.
type Options struct {
	// Inverter is the numerical Laplace-inversion rule whose quadrature
	// nodes the evaluation engine shares across the device mixture; nil
	// means numeric.NewEuler().
	Inverter numeric.Inverter
	// WTA selects the accept-waiting model.
	WTA WTAMode
	// DiskQueue selects the multi-process disk approximation.
	DiskQueue DiskQueueMode
	// Compound selects the extra-data-read count model.
	Compound CompoundMode
	// ODOPR enables the paper's "One Disk Operation Per Request"
	// baseline: index lookups, metadata reads and extra data reads are
	// treated as cache hits; only the first data read may touch disk.
	ODOPR bool
	// Workers bounds the goroutines the evaluation engine may use when a
	// system model fans its device mixture out (see SystemModel.Eval).
	// 0 uses the process-wide shared pool sized to GOMAXPROCS; 1 forces
	// fully sequential evaluation; n > 1 gives the model its own pool of
	// that size.
	Workers int
	// EvalTimeout bounds one call of any context-aware entry point
	// (Eval, Quantile, MaxAdmissibleRateContext, ...): the evaluation
	// observes the derived deadline at its internal cancellation
	// checkpoints (between mixture groups, bisection probes and sweep
	// steps) and returns context.DeadlineExceeded. 0 means no per-call
	// budget. The context-free API delegates through the same path, so a
	// nonzero EvalTimeout also bounds CDF, MaxAdmissibleRate and friends.
	EvalTimeout time.Duration
	// Fallbacks is the inverter chain the guarded evaluation engine tries
	// when the primary inverter produces an invalid CDF value (NaN, Inf,
	// far outside [0,1]). nil means numeric.DefaultFallbacks()
	// (Euler → Gaver–Stehfest); an empty non-nil slice disables fallback,
	// so invalid inversions surface immediately as numeric.ErrNumerical.
	Fallbacks []numeric.Inverter
	// OnFallback, when non-nil, is called each time the evaluation engine
	// recovers from an invalid inversion by switching from inverter `from`
	// to fallback `to`. It may be called concurrently from worker
	// goroutines and must be safe for concurrent use. Serving layers hook
	// it to report degraded health.
	OnFallback func(from, to string)
	// Observer, when non-nil, receives one EvalEvent per completed
	// top-level evaluation span (Eval, Quantile, MaxAdmissibleRateContext
	// and their context-free wrappers). Nested spans each fire their own
	// event: an admission search reports one max_admissible_rate event plus
	// one cdf event per probe. The callback may run concurrently and must be cheap — it sits
	// on the evaluation path.
	Observer func(EvalEvent)
	// Pool, when non-nil, is the worker pool the evaluation engine fans
	// mixture groups across, overriding Workers. Injecting a pool lets a
	// serving layer share one bounded pool across every model it builds
	// (and meter its utilization) instead of each model constructing its
	// own.
	Pool *parallel.Pool
}

// EvalEvent describes one completed evaluation span for Options.Observer:
// which entry point ran, how much work it did and how long it took.
type EvalEvent struct {
	// Op identifies the evaluation: "cdf" for one threshold, "cdf_batch"
	// for a grid, "quantile" for a quantile search, prefixed by the
	// query's tier ("backend_", "nowta_") and class ("write_" for a write,
	// "coded_" for a multi-copy read) — e.g. "coded_cdf_batch",
	// "write_quantile" — or "max_admissible_rate" for an admission search.
	Op string
	// Groups is the number of distinct mixture groups the evaluation fans
	// out over (0 for spans without a single underlying model, like
	// admission searches).
	Groups int
	// Nodes is the quadrature node count of the configured inverter at
	// one threshold.
	Nodes int
	// Probes counts the mixture quadratures the span evaluated: the grid
	// size of a plain evaluation, the quadrature bases of a k-of-n one
	// (order-statistic probes read as delayed cells of a nearby base are
	// not counted again), the quadratures of every probe of a quantile
	// search, and the rate probes of an admission search.
	Probes int
	// Duration is the span's wall time.
	Duration time.Duration
	// Err is the error the span returned, if any.
	Err error
}

// defaultEuler is the shared inverter behind the nil-Inverter default.
// Inverters are immutable after construction (see numeric.Inverter's safety
// contract), so one instance serves every model and goroutine.
var defaultEuler = numeric.NewEuler()

func (o Options) inverter() numeric.Inverter {
	if o.Inverter == nil {
		return defaultEuler
	}
	return o.Inverter
}

// fallbacks resolves the guarded engine's fallback chain.
func (o Options) fallbacks() []numeric.Inverter {
	if o.Fallbacks != nil {
		return o.Fallbacks
	}
	return numeric.DefaultFallbacks()
}

// EvalContext applies the per-call evaluation budget to ctx. The returned
// cancel function must always be called. Nested entry points may re-apply
// it; a child deadline can only shorten the parent's, so the budget of the
// outermost call the user made always governs.
func (o Options) EvalContext(ctx context.Context) (context.Context, context.CancelFunc) {
	if ctx == nil {
		ctx = context.Background()
	}
	if o.EvalTimeout > 0 {
		return context.WithTimeout(ctx, o.EvalTimeout)
	}
	return ctx, func() {}
}

func (o Options) pool() *parallel.Pool {
	switch {
	case o.Pool != nil:
		return o.Pool
	case o.Workers == 1:
		return nil
	case o.Workers > 1:
		return parallel.New(o.Workers)
	}
	return parallel.Default()
}

// span opens an observer span for op over a model with the given mixture
// width and node count. The returned func fires the event; it is a no-op
// when no Observer is configured, so uninstrumented evaluations pay only a
// nil check.
func (o Options) span(op string, groups, nodes int) func(probes int, err error) {
	obs := o.Observer
	if obs == nil {
		return func(int, error) {}
	}
	start := time.Now()
	return func(probes int, err error) {
		obs(EvalEvent{
			Op:       op,
			Groups:   groups,
			Nodes:    nodes,
			Probes:   probes,
			Duration: time.Since(start),
			Err:      err,
		})
	}
}

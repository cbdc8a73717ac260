// Package experiments contains the drivers that regenerate every table and
// figure of the paper's evaluation: Fig. 5 (disk service-time fitting),
// Figs. 6-7 (predicted vs observed percentiles for scenarios S1 and S16),
// Table I (error summary of the full model) and Table II (model
// comparison), plus the ablation studies called out in DESIGN.md.
package experiments

import (
	"context"
	"fmt"
	"math"

	"cosmodel/internal/core"
	"cosmodel/internal/dist"
	"cosmodel/internal/parallel"
	"cosmodel/internal/simstore"
	"cosmodel/internal/trace"
)

// ScenarioConfig parameterizes a Fig. 6/7-style experiment: a simulated
// cluster swept over arrival rates, with the analytic models predicting
// each step's percentile of requests meeting each SLA.
type ScenarioConfig struct {
	// Name labels the scenario ("S1", "S16").
	Name string
	// Sim is the cluster configuration (ProcsPerDisk distinguishes the
	// paper's S1 and S16).
	Sim simstore.Config
	// CatalogObjects is the synthetic catalog size.
	CatalogObjects int
	// Sizes is the object-size distribution; nil selects the default
	// trace.WikipediaLikeSizes (Pareto alternatives stress the tail).
	Sizes dist.Distribution
	// ZipfS is the popularity skew.
	ZipfS float64
	// WarmRate and WarmDur configure the warmup phase (replacing the
	// paper's 3-hour warmup; caches are additionally pre-warmed
	// synthetically).
	WarmRate, WarmDur float64
	// RateStart, RateEnd, RateStep sweep the benchmarking phase.
	RateStart, RateEnd, RateStep float64
	// StepDur is the simulated duration of each rate step; the first
	// StepDiscard seconds of each step are excluded from measurement.
	StepDur, StepDiscard float64
	// CalibrationOps is the number of per-class disk benchmark operations
	// used to fit the device properties.
	CalibrationOps int
	// Seed drives all randomness.
	Seed int64
}

// DefaultS1 mirrors the paper's scenario S1: one process per storage
// device, rates 10→350 step 5. The durations are scaled down from the
// paper's 5-minute steps to keep a full sweep tractable; shape is
// preserved.
func DefaultS1() ScenarioConfig {
	cfg := simstore.DefaultConfig()
	cfg.ProcsPerDisk = 1
	// The paper's testbed times out and retries slow requests; its
	// analysis covers only windows with neither. 2 s is far above any
	// normal-status latency here.
	cfg.RequestTimeout = 2.0
	cfg.MaxRetries = 1
	return ScenarioConfig{
		Name:           "S1",
		Sim:            cfg,
		CatalogObjects: 150000,
		ZipfS:          1.05,
		WarmRate:       150,
		WarmDur:        60,
		RateStart:      10,
		RateEnd:        350,
		RateStep:       5,
		StepDur:        20,
		StepDiscard:    5,
		CalibrationOps: 3000,
		Seed:           1,
	}
}

// DefaultS16 mirrors scenario S16: 16 processes per device, rates 10→600.
func DefaultS16() ScenarioConfig {
	sc := DefaultS1()
	sc.Name = "S16"
	sc.Sim.ProcsPerDisk = 16
	sc.RateEnd = 600
	sc.Seed = 2
	return sc
}

// StepResult is one rate step of a scenario: the observed percentile of
// requests meeting each SLA, and the three models' predictions.
type StepResult struct {
	Rate      float64
	Responses uint64
	// Observed[i] is the measured fraction meeting Sim.SLAs[i] at the
	// frontend tier; ObservedBE is the backend-tier measurement.
	Observed   []float64
	ObservedBE []float64
	// Our, ODOPR and NoWTA are the per-SLA predictions; NaN when the
	// model declared the step overloaded. OurBE is the full model's
	// backend-tier prediction.
	Our, ODOPR, NoWTA []float64
	OurBE             []float64
	// Skipped marks steps the analysis excludes (overload — the paper
	// stops analyzing once timeouts/retries dominate).
	Skipped bool
	Reason  string
	// MaxDiskUtilization is the highest per-device disk utilization in
	// the window (diagnostic).
	MaxDiskUtilization float64
}

// ScenarioResult is a full sweep.
type ScenarioResult struct {
	Config ScenarioConfig
	SLAs   []float64
	Steps  []StepResult
	// Props are the calibrated device properties used by the models.
	Props core.DeviceProperties
}

// SweepData is the raw outcome of driving the simulator through a rate
// sweep: the measurement window of every step plus the calibrated device
// properties. The figure, table and ablation drivers all evaluate models
// against the same sweep.
type SweepData struct {
	Rates   []float64
	Windows []simstore.Window
	Props   core.DeviceProperties
}

// RunSweep calibrates device properties offline, builds and warms the
// cluster, and drives the rate sweep, capturing one measurement window per
// step.
func RunSweep(sc ScenarioConfig) (*SweepData, error) {
	if err := sc.Sim.Validate(); err != nil {
		return nil, err
	}
	if sc.RateStep <= 0 || sc.RateStart > sc.RateEnd || sc.StepDur <= sc.StepDiscard {
		return nil, fmt.Errorf("experiments: bad sweep configuration %+v", sc)
	}
	props, err := Calibrate(sc.Sim, sc.CalibrationOps, sc.Seed)
	if err != nil {
		return nil, err
	}
	sizes := sc.Sizes
	if sizes == nil {
		sizes = trace.WikipediaLikeSizes()
	}
	catalog, err := trace.NewCatalog(sc.CatalogObjects, sizes, sc.ZipfS, 1, sc.Seed+10)
	if err != nil {
		return nil, err
	}
	cluster, err := simstore.New(sc.Sim)
	if err != nil {
		return nil, err
	}
	if err := cluster.PrewarmCaches(catalog, 0.95); err != nil {
		return nil, err
	}
	data := &SweepData{Props: props}

	now := 0.0
	runPhase := func(rate, dur float64, seed int64) error {
		recs, err := trace.Generate(catalog, trace.Schedule{{Rate: rate, Duration: dur, Label: "phase"}}, seed)
		if err != nil {
			return err
		}
		for i := range recs {
			recs[i].At += now
		}
		cluster.Inject(recs)
		now += dur
		return nil
	}

	if sc.WarmDur > 0 {
		if err := runPhase(sc.WarmRate, sc.WarmDur, sc.Seed+100); err != nil {
			return nil, err
		}
		cluster.RunUntil(now)
	}

	step := 0
	for rate := sc.RateStart; rate <= sc.RateEnd+1e-9; rate += sc.RateStep {
		step++
		if err := runPhase(rate, sc.StepDur, sc.Seed+200+int64(step)); err != nil {
			return nil, err
		}
		cluster.RunUntil(now - sc.StepDur + sc.StepDiscard)
		before := cluster.Snapshot()
		cluster.RunUntil(now)
		after := cluster.Snapshot()
		data.Rates = append(data.Rates, rate)
		data.Windows = append(data.Windows, cluster.Window(before, after))
	}
	return data, nil
}

// RunScenario executes the sweep and evaluates the paper's three models
// (ours, ODOPR, noWTA) on every step's online metrics.
func RunScenario(sc ScenarioConfig) (*ScenarioResult, error) {
	data, err := RunSweep(sc)
	if err != nil {
		return nil, err
	}
	return EvaluateSweep(sc, data), nil
}

// EvaluateSweep runs the paper's three model variants over every measurement
// window of a captured sweep. Rate steps are independent, so they are fanned
// across the worker pool; each StepResult is written at its own step index,
// so the output is deterministic and identical to a sequential evaluation.
//
// The optional overlay pins evaluation machinery on every variant: a non-nil
// overlay Inverter replaces the default, and a nonzero overlay Workers sets
// the parallelism budget (Workers == 1 forces the entire evaluation — step
// fan-out included — sequential; benchmarks and equivalence tests use this).
func EvaluateSweep(sc ScenarioConfig, data *SweepData, overlay ...core.Options) *ScenarioResult {
	res, _ := EvaluateSweepContext(context.Background(), sc, data, overlay...)
	return res
}

// EvaluateSweepContext is the cancellable sweep evaluation: ctx (and the
// overlay's EvalTimeout, if set) is observed between rate steps and inside
// each step's guarded model evaluations, so a sweep over hundreds of
// operating points can be abandoned mid-flight. A panic in a pooled step is
// captured by the pool and returned as an error. Numerical failures inside
// one step do not abort the sweep — the step is marked Skipped with the
// failure as its Reason, mirroring how overloaded steps are excluded — so
// a partially poisoned sweep still yields every healthy step. On error the
// partially filled result is returned alongside it.
func EvaluateSweepContext(ctx context.Context, sc ScenarioConfig, data *SweepData, overlay ...core.Options) (*ScenarioResult, error) {
	var base core.Options
	if len(overlay) > 0 {
		base = overlay[0]
	}
	ctx, cancel := base.EvalContext(ctx)
	defer cancel()
	res := &ScenarioResult{Config: sc, SLAs: append([]float64(nil), sc.Sim.SLAs...), Props: data.Props}
	res.Steps = make([]StepResult, len(data.Windows))
	err := stepPool(base).ForEachContext(ctx, len(data.Windows), func(i int) error {
		st, err := evaluateStep(ctx, sc, data.Props, data.Windows[i], data.Rates[i], base)
		if err != nil {
			return err
		}
		res.Steps[i] = st
		return nil
	})
	return res, err
}

// stepPool picks the pool for a sweep-level fan-out from the overlay's
// worker budget: the shared default pool unless the overlay asks for a
// specific size (or for sequential evaluation).
func stepPool(base core.Options) *parallel.Pool {
	if base.Workers != 0 {
		return parallel.New(base.Workers)
	}
	return parallel.Default()
}

// overlayOptions applies the sweep-level evaluation overrides onto one model
// variant's options.
func overlayOptions(v, base core.Options) core.Options {
	if base.Inverter != nil {
		v.Inverter = base.Inverter
	}
	if base.Workers != 0 {
		v.Workers = base.Workers
	}
	return v
}

// evaluateStep turns one measurement window into a StepResult by running
// the three models on the window's online metrics. Context errors abort the
// step (and with it the sweep); model-level failures — overload, numerical
// poisoning — only skip the step.
func evaluateStep(ctx context.Context, sc ScenarioConfig, props core.DeviceProperties, win simstore.Window, rate float64, base core.Options) (StepResult, error) {
	nSLA := len(sc.Sim.SLAs)
	st := StepResult{
		Rate:       rate,
		Responses:  win.Responses,
		Observed:   append([]float64(nil), win.MeetFraction...),
		ObservedBE: append([]float64(nil), win.BEMeetFraction...),
		Our:        nanSlice(nSLA),
		ODOPR:      nanSlice(nSLA),
		NoWTA:      nanSlice(nSLA),
		OurBE:      nanSlice(nSLA),
	}
	for _, u := range win.DiskUtilization {
		if u > st.MaxDiskUtilization {
			st.MaxDiskUtilization = u
		}
	}
	if win.Responses == 0 {
		st.Skipped = true
		st.Reason = "no responses in window"
		return st, nil
	}
	// The paper analyzes prediction results only "when there is no
	// timeout and retry" (Section V-A); a saturated disk is the same
	// exclusion when timeouts are disabled.
	if win.Timeouts > 0 || win.Retries > 0 {
		st.Skipped = true
		st.Reason = fmt.Sprintf("overload: %d timeouts, %d retries in window", win.Timeouts, win.Retries)
		return st, nil
	}
	if st.MaxDiskUtilization >= 0.98 {
		st.Skipped = true
		st.Reason = fmt.Sprintf("overload: disk utilization %.2f", st.MaxDiskUtilization)
		return st, nil
	}
	// The full model's frontend view, backend view and noWTA ablation share
	// one model build and one batched traversal of the device mixture
	// (core.SystemModel.Eval); the batched noWTA view equals a model
	// built with WTA == WTANone exactly. Only ODOPR — a genuinely different
	// device pipeline — needs its own build.
	if sys, err := BuildSystemModel(sc.Sim, props, win, overlayOptions(core.Options{}, base)); err != nil {
		st.Skipped = true
		st.Reason = err.Error()
	} else {
		grids, err := sys.Eval(ctx, sc.Sim.SLAs,
			core.Query{}, core.Query{Tier: core.TierBackend}, core.Query{Tier: core.TierNoWTA})
		if err != nil {
			if ctx.Err() != nil {
				return st, ctx.Err()
			}
			// Numerical poisoning: exclude the step like an overloaded one
			// instead of recording garbage.
			st.Skipped = true
			st.Reason = err.Error()
		} else {
			copy(st.Our, grids[0])
			copy(st.OurBE, grids[1])
			copy(st.NoWTA, grids[2])
		}
	}
	if sys, err := BuildSystemModel(sc.Sim, props, win, overlayOptions(core.Options{ODOPR: true}, base)); err != nil {
		st.Skipped = true
		st.Reason = err.Error()
	} else {
		ps, err := sys.Eval(ctx, sc.Sim.SLAs)
		if err != nil {
			if ctx.Err() != nil {
				return st, ctx.Err()
			}
			st.Skipped = true
			st.Reason = err.Error()
		} else {
			copy(st.ODOPR, ps[0])
		}
	}
	return st, nil
}

// QuantileSweep returns the full model's p-quantile at every rate step of a
// captured sweep; see QuantileSweepContext.
func QuantileSweep(sc ScenarioConfig, data *SweepData, p float64, overlay ...core.Options) []float64 {
	out, _ := QuantileSweepContext(context.Background(), sc, data, p, overlay...)
	return out
}

// QuantileSweepContext evaluates the full model's p-quantile over every
// measurement window, sequentially in rate order, warm-starting each step's
// bracketed root search from the previous step's quantile
// (the seed of core.SystemModel.Quantile): adjacent operating points have
// nearby quantiles, so each step refines an inherited bracket in a few
// probes instead of growing a fresh one from the mean. Steps whose model
// cannot be built or whose search fails record NaN, mirroring how
// EvaluateSweep skips them; a context error aborts the sweep, returning the
// partially filled result alongside it.
func QuantileSweepContext(ctx context.Context, sc ScenarioConfig, data *SweepData, p float64, overlay ...core.Options) ([]float64, error) {
	var base core.Options
	if len(overlay) > 0 {
		base = overlay[0]
	}
	ctx, cancel := base.EvalContext(ctx)
	defer cancel()
	out := nanSlice(len(data.Windows))
	seed := 0.0
	for i, win := range data.Windows {
		if err := ctx.Err(); err != nil {
			return out, err
		}
		sys, err := BuildSystemModel(sc.Sim, data.Props, win, overlayOptions(core.Options{}, base))
		if err != nil {
			continue // overloaded or empty window: no quantile, like a skipped step
		}
		q, err := sys.Quantile(ctx, core.Query{}, p, seed)
		if err != nil {
			if ctx.Err() != nil {
				return out, ctx.Err()
			}
			continue
		}
		out[i] = q
		if q > 0 && !math.IsInf(q, 1) {
			seed = q
		}
	}
	return out, nil
}

// BuildSystemModel glues a measurement window to the analytic model: each
// device's online metrics come straight from the window, and the frontend
// model uses the tier-wide totals. Windows carrying PUT replica traffic
// feed each device's write rate and mean chunks-per-write into the shared
// queue (and the frontend sees the PUT arrivals too); read-only windows
// build the exact read pipeline of the paper.
func BuildSystemModel(cfg simstore.Config, props core.DeviceProperties, win simstore.Window, opts core.Options) (*core.SystemModel, error) {
	var devs []*core.DeviceModel
	for d := range win.DeviceRate {
		r := win.DeviceRate[d]
		if r <= 0 {
			continue // idle device contributes nothing to the mixture
		}
		m := core.OnlineMetrics{
			Rate:      r,
			DataRate:  math.Max(win.DeviceChunkRate[d], r),
			MissIndex: win.MissIndex[d],
			MissMeta:  win.MissMeta[d],
			MissData:  win.MissData[d],
			Procs:     cfg.ProcsPerDisk,
			DiskMean:  win.DiskMeanSvc[d],
		}
		if d < len(win.DeviceWriteRate) && win.DeviceWriteRate[d] > 0 {
			m.WriteRate = win.DeviceWriteRate[d]
			m.WriteChunks = 1
			if d < len(win.DeviceWriteChunkRate) {
				m.WriteChunks = math.Max(win.DeviceWriteChunkRate[d]/m.WriteRate, 1)
			}
		}
		dm, err := core.NewDeviceModel(props, m, opts)
		if err != nil {
			return nil, fmt.Errorf("device %d: %w", d, err)
		}
		devs = append(devs, dm)
	}
	if len(devs) == 0 {
		return nil, fmt.Errorf("%w: no active devices in window", core.ErrBadParams)
	}
	// The frontend serves both GET and PUT arrivals; win.WriteRate is the
	// client-visible (quorum-acknowledged) PUT rate, not the replica
	// fan-out.
	fe, err := core.NewFrontendModel(win.TotalRate()+win.WriteRate, cfg.Frontends*cfg.ProcsPerFrontend, props.ParseFE)
	if err != nil {
		return nil, err
	}
	return core.NewSystemModel(fe, devs, opts)
}

// Calibrate performs the paper's Section IV-A device benchmarking on the
// simulated hardware: disk service times measured with one outstanding
// operation and fitted with Gamma distributions, parse latencies measured
// with a cached closed loop.
func Calibrate(cfg simstore.Config, ops int, seed int64) (core.DeviceProperties, error) {
	samples, err := simstore.MeasureDiskService(cfg, ops, seed)
	if err != nil {
		return core.DeviceProperties{}, err
	}
	parse, err := simstore.MeasureParse(cfg, 20, seed+1)
	if err != nil {
		return core.DeviceProperties{}, err
	}
	return core.FitDeviceProperties(samples.Index, samples.Meta, samples.Data, parse.FE, parse.BE)
}

func nanSlice(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = math.NaN()
	}
	return out
}

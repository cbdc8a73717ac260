package experiments

import (
	"context"
	"fmt"
	"math"

	"cosmodel/internal/core"
	"cosmodel/internal/coscode"
	"cosmodel/internal/simstore"
)

// CodedSpecFromConfig derives the analytic coded-read spec from a striped
// simulator configuration: the stripe is spread over all n = Replicas
// devices of a partition and completes at the k-th = StripeK sub-read.
func CodedSpecFromConfig(cfg simstore.Config) coscode.Spec {
	return coscode.Spec{
		N:          cfg.Replicas,
		K:          cfg.StripeK,
		Hedge:      cfg.Hedge,
		HedgeDelay: cfg.HedgeDelay,
	}
}

// CodedStepResult is one rate step of a coded-read scenario: the observed
// fraction of coded GETs meeting each SLA against the order-statistic
// model's prediction.
type CodedStepResult struct {
	Rate      float64
	Responses uint64
	// Hedges is the number of reserve sub-reads issued in the window.
	Hedges uint64
	// Observed[i] is the measured fraction meeting SLAs[i] at the
	// frontend tier; Predicted[i] is the coded model's prediction (NaN
	// when the step was skipped).
	Observed  []float64
	Predicted []float64
	// Skipped marks steps excluded from analysis (overload), mirroring
	// the replication sweep's exclusion rule.
	Skipped bool
	Reason  string
	// MaxDiskUtilization is the highest per-device disk utilization in
	// the window (diagnostic).
	MaxDiskUtilization float64
}

// CodedResult is a full coded-read sweep evaluation.
type CodedResult struct {
	Config ScenarioConfig
	Spec   coscode.Spec
	SLAs   []float64
	Steps  []CodedStepResult
	Props  core.DeviceProperties
}

// Analyzed returns the number of non-skipped steps.
func (r *CodedResult) Analyzed() int {
	n := 0
	for _, st := range r.Steps {
		if !st.Skipped {
			n++
		}
	}
	return n
}

// MAE returns the mean absolute error between predicted and observed SLA
// fractions over all analyzed steps (NaN if nothing was analyzed).
func (r *CodedResult) MAE() float64 {
	sum, n := 0.0, 0
	for _, st := range r.Steps {
		if st.Skipped {
			continue
		}
		for i := range st.Observed {
			if math.IsNaN(st.Predicted[i]) {
				continue
			}
			sum += math.Abs(st.Predicted[i] - st.Observed[i])
			n++
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}

// RunCodedScenario drives a striped-read rate sweep through the simulator
// (ground truth) and evaluates the order-statistic model on every step.
// The scenario's Sim must have StripeK > 0.
func RunCodedScenario(sc ScenarioConfig) (*CodedResult, error) {
	data, err := RunSweep(sc)
	if err != nil {
		return nil, err
	}
	return EvaluateCodedSweep(sc, data)
}

// EvaluateCodedSweep runs the coded-read model over every measurement
// window of a captured sweep; see EvaluateSweep for the overlay semantics.
func EvaluateCodedSweep(sc ScenarioConfig, data *SweepData, overlay ...core.Options) (*CodedResult, error) {
	return EvaluateCodedSweepContext(context.Background(), sc, data, overlay...)
}

// EvaluateCodedSweepContext is the cancellable coded sweep evaluation. As
// with EvaluateSweepContext, numerical failures inside one step skip that
// step rather than aborting the sweep; context errors abort.
func EvaluateCodedSweepContext(ctx context.Context, sc ScenarioConfig, data *SweepData, overlay ...core.Options) (*CodedResult, error) {
	spec := CodedSpecFromConfig(sc.Sim)
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	var base core.Options
	if len(overlay) > 0 {
		base = overlay[0]
	}
	ctx, cancel := base.EvalContext(ctx)
	defer cancel()
	res := &CodedResult{
		Config: sc,
		Spec:   spec,
		SLAs:   append([]float64(nil), sc.Sim.SLAs...),
		Props:  data.Props,
	}
	res.Steps = make([]CodedStepResult, len(data.Windows))
	err := stepPool(base).ForEachContext(ctx, len(data.Windows), func(i int) error {
		st, err := evaluateCodedStep(ctx, sc, spec, data.Props, data.Windows[i], data.Rates[i], base)
		if err != nil {
			return err
		}
		res.Steps[i] = st
		return nil
	})
	return res, err
}

// evaluateCodedStep turns one measurement window into a CodedStepResult,
// applying the same overload exclusions as the replication sweep.
func evaluateCodedStep(ctx context.Context, sc ScenarioConfig, spec coscode.Spec, props core.DeviceProperties, win simstore.Window, rate float64, base core.Options) (CodedStepResult, error) {
	nSLA := len(sc.Sim.SLAs)
	st := CodedStepResult{
		Rate:      rate,
		Responses: win.Responses,
		Hedges:    win.Hedges,
		Observed:  append([]float64(nil), win.MeetFraction...),
		Predicted: nanSlice(nSLA),
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
	sys, err := BuildCodedSystemModel(sc.Sim, props, win, overlayOptions(core.Options{}, base))
	if err != nil {
		st.Skipped = true
		st.Reason = err.Error()
		return st, nil
	}
	ps, err := sys.Eval(ctx, sc.Sim.SLAs, core.Query{Spec: spec})
	if err != nil {
		if ctx.Err() != nil {
			return st, ctx.Err()
		}
		st.Skipped = true
		st.Reason = err.Error()
		return st, nil
	}
	copy(st.Predicted, ps[0])
	return st, nil
}

// BuildCodedSystemModel glues a striped-read measurement window to the
// analytic model. The per-device inputs are identical to BuildSystemModel —
// each stripe sub-read is an ordinary backend request, so the measured
// per-device rates already carry the n-fold fan-out (and any hedging load).
// Only the frontend rate differs: the proxy parses each coded GET once
// before fanning it out, so its M/G/1 arrival rate is the parent response
// rate, not the sub-read total.
func BuildCodedSystemModel(cfg simstore.Config, props core.DeviceProperties, win simstore.Window, opts core.Options) (*core.SystemModel, error) {
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
		dm, err := core.NewDeviceModel(props, m, opts)
		if err != nil {
			return nil, fmt.Errorf("device %d: %w", d, err)
		}
		devs = append(devs, dm)
	}
	if len(devs) == 0 {
		return nil, fmt.Errorf("%w: no active devices in window", core.ErrBadParams)
	}
	feRate := 0.0
	if win.Duration > 0 {
		feRate = float64(win.Responses) / win.Duration
	}
	fe, err := core.NewFrontendModel(feRate, cfg.Frontends*cfg.ProcsPerFrontend, props.ParseFE)
	if err != nil {
		return nil, err
	}
	return core.NewSystemModel(fe, devs, opts)
}

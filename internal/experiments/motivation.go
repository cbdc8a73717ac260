package experiments

import (
	"context"
	"fmt"
	"io"

	"cosmodel/internal/benchkit"
	"cosmodel/internal/core"
	"cosmodel/internal/dist"
)

// The paper's Section I argues that response-latency *percentiles* are the
// right SLA currency for object stores, not the averages that earlier
// analytic models predict. This experiment makes the argument quantitative:
// two deployments are tuned to the SAME mean response latency — one with
// low-variability disks, one with high-variability disks — and the model
// shows how far apart their SLA percentiles are. A mean-based planner
// would treat them as interchangeable.

// MeanVsPercentileConfig parameterizes the motivation experiment.
type MeanVsPercentileConfig struct {
	// BaseRate is the per-device request rate of the low-variability
	// deployment.
	BaseRate float64
	// LowSCV and HighSCV are the two disks' service-time variabilities.
	LowSCV, HighSCV float64
	// SLAs are the latency bounds to compare at.
	SLAs []float64
}

// DefaultMeanVsPercentile uses the testbed's service means with SCV 0.4 vs
// 4.0 (a healthy disk vs one with a bimodal remap-prone latency profile).
func DefaultMeanVsPercentile() MeanVsPercentileConfig {
	return MeanVsPercentileConfig{
		BaseRate: 45,
		LowSCV:   0.4,
		HighSCV:  4.0,
		SLAs:     []float64{0.010, 0.050, 0.100},
	}
}

// MeanVsPercentileResult reports the matched-mean comparison.
type MeanVsPercentileResult struct {
	SLAs []float64
	// MeanLow/MeanHigh are the (matched) mean response latencies.
	MeanLow, MeanHigh float64
	// RateHigh is the rate the high-variability deployment sustains at
	// the matched mean.
	RateLow, RateHigh float64
	// PercLow/PercHigh are the per-SLA percentiles.
	PercLow, PercHigh []float64
}

// RunMeanVsPercentile builds both deployments, tunes the high-variability
// one's rate until its mean response matches the low-variability one's
// (bisection), and compares percentiles.
func RunMeanVsPercentile(cfg MeanVsPercentileConfig) (*MeanVsPercentileResult, error) {
	if cfg.BaseRate <= 0 || cfg.LowSCV <= 0 || cfg.HighSCV <= cfg.LowSCV || len(cfg.SLAs) == 0 {
		return nil, fmt.Errorf("experiments: bad mean-vs-percentile config")
	}
	build := func(scv, rate float64) (*core.SystemModel, error) {
		idx, err := dist.FitPhaseType(9e-3, scv)
		if err != nil {
			return nil, err
		}
		meta, err := dist.FitPhaseType(6e-3, scv)
		if err != nil {
			return nil, err
		}
		data, err := dist.FitPhaseType(8e-3, scv)
		if err != nil {
			return nil, err
		}
		props := core.DeviceProperties{
			IndexDisk: idx,
			MetaDisk:  meta,
			DataDisk:  data,
			ParseBE:   dist.Degenerate{Value: 0.5e-3},
			ParseFE:   dist.Degenerate{Value: 0.3e-3},
		}
		m := core.OnlineMetrics{
			Rate: rate, DataRate: rate * 1.2,
			MissIndex: 0.35, MissMeta: 0.30, MissData: 0.45,
			Procs: 1,
		}
		dev, err := core.NewDeviceModel(props, m, core.Options{})
		if err != nil {
			return nil, err
		}
		fe, err := core.NewFrontendModel(rate*4, 12, props.ParseFE)
		if err != nil {
			return nil, err
		}
		return core.NewSystemModel(fe, []*core.DeviceModel{dev}, core.Options{})
	}
	low, err := build(cfg.LowSCV, cfg.BaseRate)
	if err != nil {
		return nil, err
	}
	target := low.MeanResponse()
	// Bisect the high-variability deployment's rate to match the mean.
	lo, hi := 0.5, cfg.BaseRate
	var high *core.SystemModel
	for i := 0; i < 60; i++ {
		mid := (lo + hi) / 2
		sys, err := build(cfg.HighSCV, mid)
		if err != nil {
			// Overloaded: too fast.
			hi = mid
			continue
		}
		if sys.MeanResponse() < target {
			lo = mid
		} else {
			hi = mid
		}
		high = sys
	}
	if high == nil {
		return nil, fmt.Errorf("experiments: could not match means")
	}
	percLow, err := low.Eval(context.Background(), cfg.SLAs)
	if err != nil {
		return nil, err
	}
	percHigh, err := high.Eval(context.Background(), cfg.SLAs)
	if err != nil {
		return nil, err
	}
	return &MeanVsPercentileResult{
		SLAs:     append([]float64(nil), cfg.SLAs...),
		MeanLow:  low.MeanResponse(),
		MeanHigh: high.MeanResponse(),
		RateLow:  cfg.BaseRate,
		RateHigh: (lo + hi) / 2,
		PercLow:  percLow[0],
		PercHigh: percHigh[0],
	}, nil
}

// Render writes the comparison.
func (r *MeanVsPercentileResult) Render(w io.Writer) error {
	fmt.Fprintln(w, "Why percentiles, not means (paper §I): two deployments with equal mean latency")
	fmt.Fprintf(w, "low-variability disks:  rate %.1f req/s, mean %.2f ms\n", r.RateLow, r.MeanLow*1e3)
	fmt.Fprintf(w, "high-variability disks: rate %.1f req/s, mean %.2f ms\n\n", r.RateHigh, r.MeanHigh*1e3)
	tab := benchkit.NewTable("SLA", "P(meet) low-var", "P(meet) high-var", "gap")
	for i, sla := range r.SLAs {
		tab.AddRow(fmt.Sprintf("%.0fms", sla*1e3), r.PercLow[i], r.PercHigh[i],
			fmt.Sprintf("%.1f pts", (r.PercLow[i]-r.PercHigh[i])*100))
	}
	if err := tab.Render(w); err != nil {
		return err
	}
	fmt.Fprintln(w, "\nA mean-based model cannot distinguish these deployments; the percentile model can.")
	return nil
}

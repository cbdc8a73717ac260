package experiments

import (
	"context"
	"fmt"
	"io"
	"math"

	"cosmodel/internal/benchkit"
	"cosmodel/internal/core"
	"cosmodel/internal/dist"
	"cosmodel/internal/simstore"
	"cosmodel/internal/trace"
)

// WriteSensitivityConfig parameterizes the read-heavy-assumption test: the
// model (which ignores WRITE/DELETE traffic, Section III-A) is evaluated
// against workloads with increasing PUT fractions.
type WriteSensitivityConfig struct {
	Sim            simstore.Config
	CatalogObjects int
	ZipfS          float64
	Rate           float64
	WriteFractions []float64
	StepDur        float64
	Discard        float64
	CalibrationOps int
	Seed           int64
}

// DefaultWriteSensitivity sweeps write fractions from the paper's
// production regimes (<1-5%) past the point where the assumption breaks.
func DefaultWriteSensitivity() WriteSensitivityConfig {
	return WriteSensitivityConfig{
		Sim:            simstore.DefaultConfig(),
		CatalogObjects: 100000,
		ZipfS:          1.05,
		Rate:           240,
		WriteFractions: []float64{0, 0.01, 0.05, 0.10, 0.20, 0.40},
		StepDur:        25,
		Discard:        5,
		CalibrationOps: 2000,
		Seed:           4,
	}
}

// WriteSensitivityPoint is one write-fraction measurement.
type WriteSensitivityPoint struct {
	WriteFraction float64
	// Observed and Predicted are per-SLA read percentiles.
	Observed  []float64
	Predicted []float64
	// MeanAbsErr averages |predicted-observed| over SLAs.
	MeanAbsErr float64
	// WriteRate is the measured acknowledged PUT rate.
	WriteRate float64
}

// WriteSensitivityResult is the sweep outcome.
type WriteSensitivityResult struct {
	SLAs   []float64
	Points []WriteSensitivityPoint
}

// RunWriteSensitivity measures how the model's read-latency predictions
// degrade as unmodeled write traffic consumes disk time.
func RunWriteSensitivity(cfg WriteSensitivityConfig) (*WriteSensitivityResult, error) {
	if len(cfg.WriteFractions) == 0 || cfg.StepDur <= cfg.Discard {
		return nil, fmt.Errorf("experiments: bad write sensitivity config")
	}
	props, err := Calibrate(cfg.Sim, cfg.CalibrationOps, cfg.Seed)
	if err != nil {
		return nil, err
	}
	res := &WriteSensitivityResult{SLAs: append([]float64(nil), cfg.Sim.SLAs...)}
	for i, wf := range cfg.WriteFractions {
		catalog, err := trace.NewCatalog(cfg.CatalogObjects, trace.WikipediaLikeSizes(), cfg.ZipfS, 1, cfg.Seed+10)
		if err != nil {
			return nil, err
		}
		recs, err := trace.GenerateMixed(catalog,
			trace.Schedule{{Rate: cfg.Rate, Duration: cfg.StepDur, Label: "run"}},
			wf, cfg.Seed+int64(i)+100)
		if err != nil {
			return nil, err
		}
		win, err := measureWindow(cfg.Sim, catalog, recs, cfg.Discard)
		if err != nil {
			return nil, err
		}
		// The model under test ignores PUTs (Section III-A): it sees the
		// window's reads alone, so its error is what the unmodeled writes
		// cost.
		reads := win
		reads.WriteRate, reads.DeviceWriteRate = 0, nil
		pt := WriteSensitivityPoint{
			WriteFraction: wf,
			Observed:      append([]float64(nil), win.MeetFraction...),
			WriteRate:     win.WriteRate,
		}
		pt.Predicted, pt.MeanAbsErr = predictPoint(cfg.Sim, props, reads)
		res.Points = append(res.Points, pt)
	}
	return res, nil
}

// Render writes the write-sensitivity table.
func (r *WriteSensitivityResult) Render(w io.Writer) error {
	fmt.Fprintln(w, "Read-heavy assumption: model error vs write fraction (model ignores PUTs)")
	header := []string{"write frac", "PUT rate"}
	for _, sla := range r.SLAs {
		header = append(header, fmt.Sprintf("obs@%.0fms", sla*1e3), fmt.Sprintf("pred@%.0fms", sla*1e3))
	}
	header = append(header, "mean abs err")
	tab := benchkit.NewTable(header...)
	for _, pt := range r.Points {
		row := []interface{}{fmt.Sprintf("%.2f", pt.WriteFraction), fmt.Sprintf("%.1f/s", pt.WriteRate)}
		for j := range r.SLAs {
			row = append(row, pt.Observed[j], pt.Predicted[j])
		}
		row = append(row, pct(pt.MeanAbsErr))
		tab.AddRow(row...)
	}
	return tab.Render(w)
}

// WorkloadIndependenceConfig parameterizes the calibration-portability
// test: the paper distinguishes itself from simulation-based models by
// benchmarking independently of the workload, so one calibration must
// serve under different popularity skews and object-size regimes.
type WorkloadIndependenceConfig struct {
	Sim            simstore.Config
	CatalogObjects int
	Rate           float64
	StepDur        float64
	Discard        float64
	CalibrationOps int
	Seed           int64
}

// DefaultWorkloadIndependence returns the standard configuration.
func DefaultWorkloadIndependence() WorkloadIndependenceConfig {
	return WorkloadIndependenceConfig{
		Sim:            simstore.DefaultConfig(),
		CatalogObjects: 100000,
		Rate:           200,
		StepDur:        25,
		Discard:        5,
		CalibrationOps: 2000,
		Seed:           6,
	}
}

// WorkloadPoint is one workload variant's outcome.
type WorkloadPoint struct {
	Name       string
	Observed   []float64
	Predicted  []float64
	MeanAbsErr float64
}

// WorkloadIndependenceResult is the outcome of the portability test.
type WorkloadIndependenceResult struct {
	SLAs   []float64
	Points []WorkloadPoint
}

// RunWorkloadIndependence calibrates device properties ONCE, then predicts
// under structurally different workloads (popularity skew, object sizes).
func RunWorkloadIndependence(cfg WorkloadIndependenceConfig) (*WorkloadIndependenceResult, error) {
	if cfg.StepDur <= cfg.Discard {
		return nil, fmt.Errorf("experiments: bad workload independence config")
	}
	props, err := Calibrate(cfg.Sim, cfg.CalibrationOps, cfg.Seed)
	if err != nil {
		return nil, err
	}
	variants := []struct {
		name         string
		zipfS        float64
		mean, median float64
	}{
		{"baseline (zipf 1.05, 32KB)", 1.05, 32 * 1024, 10 * 1024},
		{"flatter popularity (zipf 1.02)", 1.02, 32 * 1024, 10 * 1024},
		{"hotter popularity (zipf 1.3)", 1.3, 32 * 1024, 10 * 1024},
		{"small objects (8KB mean)", 1.05, 8 * 1024, 4 * 1024},
		{"large objects (128KB mean)", 1.05, 128 * 1024, 48 * 1024},
	}
	res := &WorkloadIndependenceResult{SLAs: append([]float64(nil), cfg.Sim.SLAs...)}
	for i, v := range variants {
		sizes := dist.NewLognormalMeanMedian(v.mean, v.median)
		catalog, err := trace.NewCatalog(cfg.CatalogObjects, sizes, v.zipfS, 1, cfg.Seed+int64(i)+20)
		if err != nil {
			return nil, err
		}
		recs, err := trace.Generate(catalog,
			trace.Schedule{{Rate: cfg.Rate, Duration: cfg.StepDur, Label: "run"}},
			cfg.Seed+int64(i)+200)
		if err != nil {
			return nil, err
		}
		win, err := measureWindow(cfg.Sim, catalog, recs, cfg.Discard)
		if err != nil {
			return nil, err
		}
		pt := WorkloadPoint{
			Name:     v.name,
			Observed: append([]float64(nil), win.MeetFraction...),
		}
		pt.Predicted, pt.MeanAbsErr = predictPoint(cfg.Sim, props, win)
		res.Points = append(res.Points, pt)
	}
	return res, nil
}

// Render writes the workload-independence table.
func (r *WorkloadIndependenceResult) Render(w io.Writer) error {
	fmt.Fprintln(w, "Workload-independent calibration: one benchmark, different workloads")
	header := []string{"workload"}
	for _, sla := range r.SLAs {
		header = append(header, fmt.Sprintf("obs@%.0fms", sla*1e3), fmt.Sprintf("pred@%.0fms", sla*1e3))
	}
	header = append(header, "mean abs err")
	tab := benchkit.NewTable(header...)
	for _, pt := range r.Points {
		row := []interface{}{pt.Name}
		for j := range r.SLAs {
			row = append(row, pt.Observed[j], pt.Predicted[j])
		}
		row = append(row, pct(pt.MeanAbsErr))
		tab.AddRow(row...)
	}
	return tab.Render(w)
}

// measureWindow replays recs through a fresh cluster whose caches are
// prewarmed from catalog, and returns the window from discard seconds to
// the end of the run.
func measureWindow(sim simstore.Config, catalog *trace.Catalog, recs []trace.Record, discard float64) (simstore.Window, error) {
	cluster, err := simstore.New(sim)
	if err != nil {
		return simstore.Window{}, err
	}
	if err := cluster.PrewarmCaches(catalog, 0.95); err != nil {
		return simstore.Window{}, err
	}
	cluster.Inject(recs)
	cluster.RunUntil(discard)
	before := cluster.Snapshot()
	cluster.Drain()
	return cluster.Window(before, cluster.Snapshot()), nil
}

// predictPoint predicts win's plain-read SLA fractions and their mean
// absolute error against the observed ones; both are NaN when the model
// fails.
func predictPoint(cfg simstore.Config, props core.DeviceProperties, win simstore.Window) (pred []float64, meanAbsErr float64) {
	grids, err := predict(context.Background(), cfg, props, win, core.Options{})
	if err != nil {
		return nanSlice(len(cfg.SLAs)), math.NaN()
	}
	total := 0.0
	for j, p := range grids[0] {
		total += math.Abs(p - win.MeetFraction[j])
	}
	return grids[0], total / float64(len(cfg.SLAs))
}

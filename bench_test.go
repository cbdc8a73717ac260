// Benchmarks regenerating the paper's evaluation. One benchmark per table
// and figure (reduced sweeps so `go test -bench=.` completes in minutes;
// run `cosbench` for the full-scale experiments), plus the ablation benches
// called out in DESIGN.md and micro-benchmarks of the two hot paths
// (model prediction, simulator event processing).
package cosmodel_test

import (
	"io"
	"sync"
	"testing"

	"cosmodel"
)

// quickScenario scales a paper scenario down for benchmarking.
func quickScenario(sc cosmodel.ScenarioConfig) cosmodel.ScenarioConfig {
	sc.RateStep *= 10
	sc.StepDur = 8
	sc.StepDiscard = 2
	sc.WarmDur = 15
	sc.CalibrationOps = 1000
	sc.CatalogObjects = 60000
	return sc
}

// BenchmarkFig5DiskFitting regenerates Fig. 5: benchmark the disk, fit the
// candidate families, tabulate recorded vs Gamma CDFs.
func BenchmarkFig5DiskFitting(b *testing.B) {
	cfg := cosmodel.DefaultFig5()
	cfg.Ops = 3000
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		res, err := cosmodel.RunFig5(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.Fits.Index[0].Name != "gamma" {
			b.Fatalf("gamma did not win: %s", res.Fits.Index[0].Name)
		}
	}
}

// BenchmarkFig6ScenarioS1 regenerates Fig. 6 (scenario S1): observed vs
// our/ODOPR/noWTA percentile curves over the rate sweep.
func BenchmarkFig6ScenarioS1(b *testing.B) {
	benchScenario(b, quickScenario(cosmodel.ScenarioS1()))
}

// BenchmarkFig7ScenarioS16 regenerates Fig. 7 (scenario S16).
func BenchmarkFig7ScenarioS16(b *testing.B) {
	benchScenario(b, quickScenario(cosmodel.ScenarioS16()))
}

func benchScenario(b *testing.B, sc cosmodel.ScenarioConfig) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sc.Seed = int64(i + 1)
		res, err := cosmodel.RunScenario(sc)
		if err != nil {
			b.Fatal(err)
		}
		if res.AnalyzedSteps() == 0 {
			b.Fatal("no analyzed steps")
		}
		if i == 0 {
			s := res.ErrorSummary(1, "our")
			b.ReportMetric(s.Mean*100, "mean_err_%")
		}
	}
}

// legacyInverter hides the node-based quadrature API behind a plain
// Inverter, forcing the model down the pre-engine evaluation path (every
// composed transform closure inverted independently). It benchmarks the
// shared-subexpression engine against its predecessor on identical inputs.
type legacyInverter struct{ cosmodel.Inverter }

// fig6Sweep simulates the quick S1 sweep once and shares the captured
// windows across all prediction-sweep benchmarks.
var fig6Sweep = sync.OnceValues(func() (*cosmodel.SweepData, error) {
	sc := quickScenario(cosmodel.ScenarioS1())
	sc.Seed = 1
	return cosmodel.RunSweep(sc)
})

// BenchmarkFig6PredictionSweep measures the model-evaluation half of Fig. 6
// in isolation — the full rate × SLA × variant prediction sweep over a
// pre-captured simulation — which is what PR 2's evaluation engine
// accelerates (BenchmarkFig6ScenarioS1 is dominated by simulation time).
// Sub-benchmarks: "baseline" is the pre-engine path (independent closure
// inversions, sequential), "sequential" the shared-subexpression engine on
// one goroutine, "parallel" the engine with the default worker pool.
func BenchmarkFig6PredictionSweep(b *testing.B) {
	data, err := fig6Sweep()
	if err != nil {
		b.Fatal(err)
	}
	sc := quickScenario(cosmodel.ScenarioS1())
	sc.Seed = 1
	run := func(b *testing.B, overlay cosmodel.Options) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res := cosmodel.EvaluateSweep(sc, data, overlay)
			if res.AnalyzedSteps() == 0 {
				b.Fatal("no analyzed steps")
			}
		}
	}
	b.Run("baseline", func(b *testing.B) {
		run(b, cosmodel.Options{Inverter: legacyInverter{cosmodel.NewEuler()}, Workers: 1})
	})
	b.Run("sequential", func(b *testing.B) {
		run(b, cosmodel.Options{Workers: 1})
	})
	b.Run("parallel", func(b *testing.B) {
		run(b, cosmodel.Options{})
	})
}

// BenchmarkTable1ErrorSummary regenerates Table I: best/worst/mean absolute
// error of the full model per scenario × SLA.
func BenchmarkTable1ErrorSummary(b *testing.B) {
	benchTables(b, cosmodel.RenderTable1)
}

// BenchmarkTable2ModelComparison regenerates Table II: mean errors of the
// our/ODOPR/noWTA models per scenario × SLA.
func BenchmarkTable2ModelComparison(b *testing.B) {
	benchTables(b, cosmodel.RenderTable2)
}

func benchTables(b *testing.B, render func(io.Writer, []*cosmodel.ScenarioResult) error) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s1 := quickScenario(cosmodel.ScenarioS1())
		s16 := quickScenario(cosmodel.ScenarioS16())
		s1.Seed, s16.Seed = int64(i+1), int64(i+2)
		r1, err := cosmodel.RunScenario(s1)
		if err != nil {
			b.Fatal(err)
		}
		r16, err := cosmodel.RunScenario(s16)
		if err != nil {
			b.Fatal(err)
		}
		if err := render(io.Discard, []*cosmodel.ScenarioResult{r1, r16}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationWTAExact compares the paper's Wa = Wbe approximation
// with the exact accept-waiting integral and with no WTA at all.
func BenchmarkAblationWTAExact(b *testing.B) {
	benchAblation(b, "wta", cosmodel.WTAVariants(), 1)
}

// BenchmarkAblationDiskQueueApprox compares the paper's M/M/1/K disk
// approximation against an unbounded M/G/1 disk queue for Nbe = 16.
func BenchmarkAblationDiskQueueApprox(b *testing.B) {
	benchAblation(b, "diskqueue", cosmodel.DiskQueueVariants(), 16)
}

// BenchmarkAblationCompounding compares the Poisson extra-read count with
// fixed-mean and geometric alternatives.
func BenchmarkAblationCompounding(b *testing.B) {
	benchAblation(b, "compound", cosmodel.CompoundVariants(), 1)
}

// BenchmarkAblationInversion compares the Euler, Talbot and Gaver-Stehfest
// Laplace inverters inside the full model.
func BenchmarkAblationInversion(b *testing.B) {
	benchAblation(b, "inversion", cosmodel.InverterVariants(), 1)
}

func benchAblation(b *testing.B, name string, variants []cosmodel.Variant, procs int) {
	b.Helper()
	sc := quickScenario(cosmodel.ScenarioS1())
	sc.Sim.ProcsPerDisk = procs
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sc.Seed = int64(i + 1)
		res, err := cosmodel.RunAblation(name, sc, variants)
		if err != nil {
			b.Fatal(err)
		}
		if res.Steps == 0 {
			b.Fatal("no analyzed steps")
		}
	}
}

// BenchmarkArchComparison regenerates the Section II claim: event-driven vs
// thread-per-connection tail latency at matched concurrency.
func BenchmarkArchComparison(b *testing.B) {
	cfg := cosmodel.DefaultArchComparison()
	cfg.Rates = []float64{150, 300}
	cfg.StepDur = 12
	cfg.Discard = 3
	cfg.CatalogObjects = 50000
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		res, err := cosmodel.RunArchComparison(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.EventDriven) == 0 {
			b.Fatal("no points")
		}
	}
}

// BenchmarkWriteSensitivity regenerates the read-heavy-assumption test:
// model error vs unmodeled PUT fraction.
func BenchmarkWriteSensitivity(b *testing.B) {
	cfg := cosmodel.DefaultWriteSensitivity()
	cfg.WriteFractions = []float64{0, 0.2}
	cfg.StepDur = 12
	cfg.Discard = 3
	cfg.CatalogObjects = 40000
	cfg.CalibrationOps = 1000
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		res, err := cosmodel.RunWriteSensitivity(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Points) != 2 {
			b.Fatal("missing points")
		}
	}
}

// BenchmarkWorkloadIndependence regenerates the calibration-portability
// test: one benchmark serving five structurally different workloads.
func BenchmarkWorkloadIndependence(b *testing.B) {
	cfg := cosmodel.DefaultWorkloadIndependence()
	cfg.StepDur = 12
	cfg.Discard = 3
	cfg.CatalogObjects = 40000
	cfg.CalibrationOps = 1000
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		res, err := cosmodel.RunWorkloadIndependence(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Points) == 0 {
			b.Fatal("no points")
		}
	}
}

// BenchmarkModelPrediction measures one end-to-end analytic prediction
// (device + frontend + system model build plus three SLA evaluations).
func BenchmarkModelPrediction(b *testing.B) {
	props := cosmodel.DeviceProperties{
		IndexDisk: cosmodel.NewGammaMeanSCV(9e-3, 0.45),
		MetaDisk:  cosmodel.NewGammaMeanSCV(6e-3, 0.50),
		DataDisk:  cosmodel.NewGammaMeanSCV(8e-3, 0.40),
		ParseFE:   cosmodel.Degenerate{Value: 0.3e-3},
		ParseBE:   cosmodel.Degenerate{Value: 0.5e-3},
	}
	m := cosmodel.OnlineMetrics{
		Rate: 60, DataRate: 72,
		MissIndex: 0.4, MissMeta: 0.35, MissData: 0.5,
		Procs: 1,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dev, err := cosmodel.NewDeviceModel(props, m, cosmodel.Options{})
		if err != nil {
			b.Fatal(err)
		}
		fe, err := cosmodel.NewFrontendModel(240, 12, props.ParseFE)
		if err != nil {
			b.Fatal(err)
		}
		sys, err := cosmodel.NewSystemModel(fe, []*cosmodel.DeviceModel{dev}, cosmodel.Options{})
		if err != nil {
			b.Fatal(err)
		}
		for _, sla := range []float64{0.01, 0.05, 0.1} {
			if p := sys.CDF(sla); p < 0 || p > 1 {
				b.Fatalf("bad prediction %v", p)
			}
		}
	}
}

// BenchmarkSimulatorRequests measures the cluster simulator's end-to-end
// request throughput.
func BenchmarkSimulatorRequests(b *testing.B) {
	cfg := cosmodel.DefaultSimConfig()
	catalog, err := cosmodel.NewCatalog(60000, cosmodel.WikipediaLikeSizes(), 1.05, 1, 1)
	if err != nil {
		b.Fatal(err)
	}
	cluster, err := cosmodel.NewCluster(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := cluster.PrewarmCaches(catalog, 0.95); err != nil {
		b.Fatal(err)
	}
	const rate = 300.0
	records, err := cosmodel.GenerateTrace(catalog, cosmodel.Schedule{
		{Rate: rate, Duration: float64(b.N) / rate, Label: "bench"},
	}, 2)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	cluster.Inject(records)
	cluster.Drain()
	b.ReportMetric(float64(cluster.EventsProcessed())/float64(b.N), "events/req")
}

// BenchmarkServePredictColdVsCached measures the serving engine's memoized
// prediction path against cold evaluation: "cold" invalidates the model
// cache every iteration (forcing a model build and transform inversions per
// SLA), "cached" answers the same query from the memo. The cached path is
// required to be at least 10x faster (see internal/serve's timing test); in
// practice the gap is several orders of magnitude.
func BenchmarkServePredictColdVsCached(b *testing.B) {
	props := cosmodel.DeviceProperties{
		IndexDisk: cosmodel.NewGammaMeanSCV(9e-3, 0.45),
		MetaDisk:  cosmodel.NewGammaMeanSCV(6e-3, 0.50),
		DataDisk:  cosmodel.NewGammaMeanSCV(8e-3, 0.40),
		ParseFE:   cosmodel.Degenerate{Value: 0.3e-3},
		ParseBE:   cosmodel.Degenerate{Value: 0.5e-3},
	}
	newEngine := func(b *testing.B) *cosmodel.ServeEngine {
		cfg := cosmodel.DefaultServeConfig(props, 4)
		eng, err := cosmodel.NewServeEngine(cfg)
		if err != nil {
			b.Fatal(err)
		}
		batch := make([]cosmodel.ServeObservation, cfg.Devices)
		for d := range batch {
			batch[d] = cosmodel.ServeObservation{
				Device: d, Interval: 10, Requests: 500, DataReads: 600,
				IndexHits: 700, IndexMisses: 300,
				MetaHits: 650, MetaMisses: 350,
				DataHits: 500, DataMisses: 500,
				DiskBusy: 8, DiskOps: 1000,
			}
		}
		if err := eng.Ingest(batch); err != nil {
			b.Fatal(err)
		}
		return eng
	}
	slas := []float64{0.01, 0.05, 0.1}
	b.Run("cold", func(b *testing.B) {
		eng := newEngine(b)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			eng.InvalidateCache()
			if _, err := eng.Predict(slas); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cached", func(b *testing.B) {
		eng := newEngine(b)
		if _, err := eng.Predict(slas); err != nil { // warm the cache
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			preds, err := eng.Predict(slas)
			if err != nil {
				b.Fatal(err)
			}
			if !preds[0].Cached {
				b.Fatal("cache miss on the warmed path")
			}
		}
		b.ReportMetric(eng.Stats().CacheHitRatio, "hit-ratio")
	})
	// refresh is the calibration hot-swap path: Recalibrate validates and
	// atomically publishes new properties, bumps the cache generation, and
	// the next prediction re-inverts from scratch — the full latency a
	// client sees right after a drift-triggered recalibration.
	b.Run("refresh", func(b *testing.B) {
		eng := newEngine(b)
		variants := [2]cosmodel.DeviceProperties{props, props}
		variants[1].DataDisk = cosmodel.NewGammaMeanSCV(12e-3, 0.9)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := eng.Recalibrate(variants[i%2]); err != nil {
				b.Fatal(err)
			}
			if _, err := eng.Predict(slas); err != nil {
				b.Fatal(err)
			}
		}
	})
}

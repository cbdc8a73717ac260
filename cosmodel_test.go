package cosmodel_test

import (
	"errors"
	"math"
	"testing"

	"cosmodel"
)

func testProps() cosmodel.DeviceProperties {
	return cosmodel.DeviceProperties{
		IndexDisk: cosmodel.NewGammaMeanSCV(9e-3, 0.45),
		MetaDisk:  cosmodel.NewGammaMeanSCV(6e-3, 0.50),
		DataDisk:  cosmodel.NewGammaMeanSCV(8e-3, 0.40),
		ParseFE:   cosmodel.Degenerate{Value: 0.3e-3},
		ParseBE:   cosmodel.Degenerate{Value: 0.5e-3},
	}
}

// TestPublicAPIEndToEnd exercises the full public surface: calibration,
// simulation, model construction and prediction — the path a downstream
// user follows.
func TestPublicAPIEndToEnd(t *testing.T) {
	simCfg := cosmodel.DefaultSimConfig()
	props, err := cosmodel.CalibrateDevice(simCfg, 1500, 1)
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := cosmodel.NewCluster(simCfg)
	if err != nil {
		t.Fatal(err)
	}
	catalog, err := cosmodel.NewCatalog(50000, cosmodel.WikipediaLikeSizes(), 1.05, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := cluster.PrewarmCaches(catalog, 0.95); err != nil {
		t.Fatal(err)
	}
	records, err := cosmodel.GenerateTrace(catalog, cosmodel.Schedule{
		{Rate: 200, Duration: 25, Label: "run"},
	}, 11)
	if err != nil {
		t.Fatal(err)
	}
	cluster.Inject(records)
	cluster.RunUntil(8)
	before := cluster.Snapshot()
	cluster.Drain()
	window := cluster.Window(before, cluster.Snapshot())

	sys, err := cosmodel.BuildSystemModel(simCfg, props, window, cosmodel.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, sla := range simCfg.SLAs {
		pred := sys.CDF(sla)
		obs := window.MeetFraction[i]
		if pred < 0 || pred > 1 {
			t.Fatalf("prediction %v out of range", pred)
		}
		// The headline claim at moderate load: predictions track
		// observations within a handful of percentage points for the
		// 50/100ms SLAs.
		if i > 0 && math.Abs(pred-obs) > 0.10 {
			t.Errorf("SLA %v: predicted %.3f, observed %.3f", sla, pred, obs)
		}
	}
}

func TestPublicErrorsAreTyped(t *testing.T) {
	m := cosmodel.OnlineMetrics{Rate: 1e6, DataRate: 1.2e6, MissIndex: 1, MissMeta: 1, MissData: 1, Procs: 1}
	_, err := cosmodel.NewDeviceModel(testProps(), m, cosmodel.Options{})
	if !errors.Is(err, cosmodel.ErrOverload) {
		t.Errorf("want ErrOverload, got %v", err)
	}
	_, err = cosmodel.NewDeviceModel(testProps(), cosmodel.OnlineMetrics{}, cosmodel.Options{})
	if !errors.Is(err, cosmodel.ErrBadParams) {
		t.Errorf("want ErrBadParams, got %v", err)
	}
}

func TestPublicVariantsOrdering(t *testing.T) {
	m := cosmodel.OnlineMetrics{
		Rate: 60, DataRate: 72,
		MissIndex: 0.4, MissMeta: 0.35, MissData: 0.5,
		Procs: 1,
	}
	build := func(opts cosmodel.Options) *cosmodel.SystemModel {
		dev, err := cosmodel.NewDeviceModel(testProps(), m, opts)
		if err != nil {
			t.Fatal(err)
		}
		fe, err := cosmodel.NewFrontendModel(240, 12, testProps().ParseFE)
		if err != nil {
			t.Fatal(err)
		}
		sys, err := cosmodel.NewSystemModel(fe, []*cosmodel.DeviceModel{dev}, opts)
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	our := build(cosmodel.Options{})
	odopr := build(cosmodel.Options{ODOPR: true})
	nowta := build(cosmodel.Options{WTA: cosmodel.WTANone})
	for _, sla := range []float64{0.01, 0.05, 0.1} {
		if odopr.CDF(sla) < our.CDF(sla)-1e-9 {
			t.Error("ODOPR must be optimistic relative to the full model")
		}
		if nowta.CDF(sla) < our.CDF(sla)-1e-9 {
			t.Error("noWTA must be optimistic relative to the full model")
		}
	}
}

func TestHeterogeneousFrontendPublic(t *testing.T) {
	fe, err := cosmodel.NewHeterogeneousFrontend([]cosmodel.FrontendSet{
		{Rate: 100, Procs: 4, Parse: cosmodel.Degenerate{Value: 0.2e-3}},
		{Rate: 200, Procs: 8, Parse: cosmodel.Degenerate{Value: 0.5e-3}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if fe.TotalRate != 300 || fe.Procs != 12 {
		t.Errorf("aggregates: %v %v", fe.TotalRate, fe.Procs)
	}
}

package core

import (
	"errors"
	"math"
	"testing"

	"cosmodel/internal/dist"
)

func testDeployment() Deployment {
	return Deployment{
		Props: DeviceProperties{
			IndexDisk: dist.NewGammaMeanSCV(9e-3, 0.45),
			MetaDisk:  dist.NewGammaMeanSCV(6e-3, 0.50),
			DataDisk:  dist.NewGammaMeanSCV(8e-3, 0.40),
			ParseFE:   dist.Degenerate{Value: 0.3e-3},
			ParseBE:   dist.Degenerate{Value: 0.5e-3},
		},
		Devices:       4,
		Procs:         1,
		FrontendProcs: 12,
		ExtraReadFrac: 0.2,
		MissIndex:     0.3,
		MissMeta:      0.3,
		MissData:      0.4,
	}
}

func TestDeploymentMeetFraction(t *testing.T) {
	d := testDeployment()
	pLow, err := d.MeetFraction(100, 0.050)
	if err != nil {
		t.Fatal(err)
	}
	pHigh, err := d.MeetFraction(300, 0.050)
	if err != nil {
		t.Fatal(err)
	}
	if !(pLow > pHigh) {
		t.Errorf("meet fraction should fall with load: %v at 100 vs %v at 300", pLow, pHigh)
	}
	if pLow <= 0 || pLow > 1 || pHigh < 0 || pHigh > 1 {
		t.Errorf("fractions outside [0,1]: %v, %v", pLow, pHigh)
	}
	// Far beyond the disks' service capacity there is no steady state.
	if _, err := d.MeetFraction(1e6, 0.050); !errors.Is(err, ErrOverload) {
		t.Errorf("expected ErrOverload at extreme rate, got %v", err)
	}
}

func TestDeploymentMatchesExplicitModel(t *testing.T) {
	// Deployment.Model must agree with assembling the same homogeneous
	// system by hand (the code path the examples previously duplicated).
	d := testDeployment()
	const rate, sla = 240.0, 0.050
	sys, err := d.Model(rate)
	if err != nil {
		t.Fatal(err)
	}
	devs := make([]*DeviceModel, d.Devices)
	for i := range devs {
		dev, err := NewDeviceModel(d.Props, d.Metrics(rate), d.Opts)
		if err != nil {
			t.Fatal(err)
		}
		devs[i] = dev
	}
	fe, err := NewFrontendModel(rate, d.FrontendProcs, d.Props.ParseFE)
	if err != nil {
		t.Fatal(err)
	}
	want, err := NewSystemModel(fe, devs, d.Opts)
	if err != nil {
		t.Fatal(err)
	}
	if got, exp := sys.CDF(sla), want.CDF(sla); math.Abs(got-exp) > 1e-9 {
		t.Errorf("deployment model %v != explicit model %v", got, exp)
	}
}

func TestMaxAdmissibleRate(t *testing.T) {
	d := testDeployment()
	const sla, target = 0.050, 0.90
	max, err := MaxAdmissibleRate(d, sla, target)
	if err != nil {
		t.Fatal(err)
	}
	if max <= 0 {
		t.Fatalf("admission threshold should be positive, got %v", max)
	}
	// The threshold is tight: target met at the threshold, missed above.
	if p, err := d.MeetFraction(max, sla); err != nil || p < target {
		t.Errorf("at threshold %v: p=%v err=%v", max, p, err)
	}
	if p, err := d.MeetFraction(max+5, sla); err == nil && p >= target {
		t.Errorf("just above threshold %v: p=%v still meets target", max, p)
	}
	// Degrading the cache must lower the threshold.
	cold := d
	cold.MissIndex, cold.MissMeta, cold.MissData = 0.85, 0.85, 0.90
	coldMax, err := MaxAdmissibleRate(cold, sla, target)
	if err != nil {
		t.Fatal(err)
	}
	if coldMax >= max {
		t.Errorf("cold cache threshold %v should be below healthy %v", coldMax, max)
	}
}

func TestHeadroom(t *testing.T) {
	d := testDeployment()
	const sla, target = 0.050, 0.90
	max, err := MaxAdmissibleRate(d, sla, target)
	if err != nil {
		t.Fatal(err)
	}
	h, err := Headroom(d, max/2, sla, target)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(h-max/2) > 2 {
		t.Errorf("headroom at half the threshold: got %v, want ~%v", h, max/2)
	}
	over, err := Headroom(d, max*2, sla, target)
	if err != nil {
		t.Fatal(err)
	}
	if over >= 0 {
		t.Errorf("headroom beyond the threshold should be negative, got %v", over)
	}
}

func TestMaxAdmissibleRateBadInputs(t *testing.T) {
	d := testDeployment()
	if _, err := MaxAdmissibleRate(d, -1, 0.9); !errors.Is(err, ErrBadParams) {
		t.Errorf("negative sla: %v", err)
	}
	if _, err := MaxAdmissibleRate(d, 0.05, 1.5); !errors.Is(err, ErrBadParams) {
		t.Errorf("target > 1: %v", err)
	}
	bad := d
	bad.Devices = 0
	if _, err := MaxAdmissibleRate(bad, 0.05, 0.9); !errors.Is(err, ErrBadParams) {
		t.Errorf("zero devices: %v", err)
	}
}

func TestMaxRateWhere(t *testing.T) {
	// Synthetic monotone predicate with a known threshold.
	const threshold = 357.0
	meets := func(rate float64) bool { return rate <= threshold }
	got := MaxRateWhere(meets, 1, 0.5)
	if math.Abs(got-threshold) > 0.5 {
		t.Errorf("got %v, want %v +- 0.5", got, threshold)
	}
	if MaxRateWhere(func(float64) bool { return false }, 1, 1) != 0 {
		t.Error("never-met predicate should return 0")
	}
	if MaxRateWhere(func(float64) bool { return true }, 1, 1) <= 1e8 {
		t.Error("always-met predicate should return the ceiling")
	}
}

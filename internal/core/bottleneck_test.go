package core

import (
	"errors"
	"math"
	"strings"
	"testing"

	"cosmodel/internal/dist"
	"cosmodel/internal/lst"
	"cosmodel/internal/numeric"
)

// buildTwoDeviceSystem returns a system with one healthy and one struggling
// device (higher load and miss ratios).
func buildTwoDeviceSystem(t *testing.T) *SystemModel {
	t.Helper()
	healthy := testMetrics()
	healthy.Rate, healthy.DataRate = 20, 24
	healthy.MissIndex, healthy.MissMeta, healthy.MissData = 0.1, 0.1, 0.15
	sick := testMetrics()
	sick.Rate, sick.DataRate = 50, 60 // rho ≈ 0.8 with these miss ratios
	sick.MissIndex, sick.MissMeta, sick.MissData = 0.6, 0.6, 0.7
	d0, err := NewDeviceModel(testProps(), healthy, Options{})
	if err != nil {
		t.Fatal(err)
	}
	d1, err := NewDeviceModel(testProps(), sick, Options{})
	if err != nil {
		t.Fatal(err)
	}
	fe, err := NewFrontendModel(70, 12, dist.Degenerate{Value: 0.3e-3})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystemModel(fe, []*DeviceModel{d0, d1}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// diagnose is Diagnose failing the test on error.
func diagnose(t *testing.T, sys *SystemModel, sla float64) []DeviceDiagnosis {
	t.Helper()
	diag, err := sys.Diagnose(sla)
	if err != nil {
		t.Fatal(err)
	}
	return diag
}

func TestDiagnoseRanksTheSickDevice(t *testing.T) {
	sys := buildTwoDeviceSystem(t)
	diag := diagnose(t, sys, 0.05)
	if len(diag) != 2 {
		t.Fatalf("diagnoses = %d", len(diag))
	}
	if diag[0].Device != 1 {
		t.Errorf("worst device = %d, want 1 (the loaded, cache-missing one)", diag[0].Device)
	}
	if diag[0].SLAContribution <= diag[1].SLAContribution {
		t.Error("ranking not descending")
	}
	total := diag[0].SLAContribution + diag[1].SLAContribution
	if math.Abs(total-1) > 1e-9 {
		t.Errorf("contributions sum to %v", total)
	}
	if diag[0].Utilization <= diag[1].Utilization {
		t.Error("the sick device should also be the more utilized one")
	}
	dev, share, err := sys.Bottleneck(0.05)
	if err != nil || dev != 1 || share != diag[0].SLAContribution {
		t.Errorf("Bottleneck = (%d, %v, %v)", dev, share, err)
	}
}

func TestDiagnoseFieldsPopulated(t *testing.T) {
	sys := buildTwoDeviceSystem(t)
	for _, d := range diagnose(t, sys, 0.05) {
		if d.Rate <= 0 || d.Utilization <= 0 || d.MeanBackend <= 0 {
			t.Errorf("device %d: empty fields %+v", d.Device, d)
		}
		if d.MeanWTA < 0 || d.SLAContribution < 0 || d.SLAContribution > 1 {
			t.Errorf("device %d: out-of-range fields %+v", d.Device, d)
		}
	}
}

func TestRenderDiagnosis(t *testing.T) {
	sys := buildTwoDeviceSystem(t)
	var b strings.Builder
	if err := RenderDiagnosis(&b, diagnose(t, sys, 0.05), 0.05); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "miss share") || !strings.Contains(out, "Bottleneck identification") {
		t.Errorf("render output:\n%s", out)
	}
}

// TestDiagnoseSurfacesInvalidInversion is the regression test for a NaN
// inversion read as CDF 0 and charged as a 100% miss: with every
// inversion poisoned and no fallback, Diagnose and Bottleneck must fail
// with numeric.ErrNumerical instead of returning shares.
func TestDiagnoseSurfacesInvalidInversion(t *testing.T) {
	opts := Options{Inverter: nanInverter{}, Fallbacks: []numeric.Inverter{}}
	sys := buildHeteroSystem(t, 3, opts)
	if diag, err := sys.Diagnose(0.05); !errors.Is(err, numeric.ErrNumerical) {
		t.Fatalf("Diagnose = %+v, %v; want ErrNumerical", diag, err)
	}
	if _, _, err := sys.Bottleneck(0.05); !errors.Is(err, numeric.ErrNumerical) {
		t.Errorf("Bottleneck err = %v, want ErrNumerical", err)
	}
}

// TestDiagnoseMatchesPerDeviceCDF pins each device's miss share to the
// legacy per-device inversion of its composed Sq ∗ Wa ∗ Sbe closure, with
// duplicated device slots sharing one mixture group.
func TestDiagnoseMatchesPerDeviceCDF(t *testing.T) {
	het := buildHeteroSystem(t, 3, Options{})
	devs := append(het.Devices(), het.Devices()[1])
	sys, err := NewSystemModel(het.Frontend(), devs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	const sla = 0.03
	misses := make([]float64, len(devs))
	total := 0.0
	for j, d := range devs {
		c := mustClosures(t, d)
		tr := lst.Convolve(sys.Frontend().Sojourn(), c.wa, c.sbe)
		misses[j] = d.Rate() * (1 - lst.CDF(inv, tr, sla))
		total += misses[j]
	}
	for _, d := range diagnose(t, sys, sla) {
		if want := misses[d.Device] / total; math.Abs(d.SLAContribution-want) > 1e-12 {
			t.Errorf("device %d: share %v, per-device inversion %v", d.Device, d.SLAContribution, want)
		}
	}
}

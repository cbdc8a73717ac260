package core

import (
	"context"
	"math"
	"sync"
	"testing"

	"cosmodel/internal/dist"
	"cosmodel/internal/numeric"
)

// opaqueInverter hides the NodeInverter quadrature of the wrapped inverter,
// forcing SystemModel down the legacy per-transform closure path.
type opaqueInverter struct{ numeric.Inverter }

// engineDevices builds n device models with distinct per-device metrics.
func engineDevices(t testing.TB, n, procs int, opts Options) []*DeviceModel {
	t.Helper()
	devs := make([]*DeviceModel, n)
	for i := range devs {
		m := testMetrics()
		m.Rate = 30 + 4*float64(i)
		m.DataRate = m.Rate * 1.2
		m.MissData = 0.35 + 0.02*float64(i%5)
		m.Procs = procs
		d, err := NewDeviceModel(testProps(), m, opts)
		if err != nil {
			t.Fatalf("device %d: %v", i, err)
		}
		devs[i] = d
	}
	return devs
}

func engineSystem(t testing.TB, n, procs int, opts Options) *SystemModel {
	t.Helper()
	devs := engineDevices(t, n, procs, opts)
	rate := 0.0
	for _, d := range devs {
		rate += d.Rate()
	}
	fe, err := NewFrontendModel(rate, 4, testProps().ParseFE)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystemModel(fe, devs, opts)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestEngineMatchesLegacyClosures compares the node-sharing evaluation
// engine against the legacy path (independent inversion of each composed
// transform closure) across every model variant the engine specializes.
func TestEngineMatchesLegacyClosures(t *testing.T) {
	variants := []struct {
		name  string
		procs int
		opts  Options
	}{
		{"default", 1, Options{}},
		{"odopr", 1, Options{ODOPR: true}},
		{"noWTA", 1, Options{WTA: WTANone}},
		{"exactWTA", 1, Options{WTA: WTAExact}},
		{"fixedCompound", 1, Options{Compound: CompoundFixed}},
		{"geomCompound", 1, Options{Compound: CompoundGeometric}},
		{"multiproc", 4, Options{}},
		{"multiprocMG1", 4, Options{DiskQueue: DiskMG1}},
	}
	ts := []float64{0.002, 0.01, 0.05, 0.1, 0.3}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			engine := engineSystem(t, 3, v.procs, v.opts)
			legacyOpts := v.opts
			legacyOpts.Inverter = opaqueInverter{numeric.NewEuler()}
			legacy := engineSystem(t, 3, v.procs, legacyOpts)
			for _, q := range []Query{{}, backendQ} {
				for _, x := range ts {
					got, want := mustEvalAt(t, engine, q, x), mustEvalAt(t, legacy, q, x)
					if math.Abs(got-want) > 1e-12 {
						t.Errorf("%+v at %v: engine %v, legacy %v (diff %g)", q, x, got, want, got-want)
					}
				}
			}
		})
	}
}

// TestParallelMatchesSequentialCDF is the determinism property test: the
// pooled engine must agree with fully sequential evaluation to within 1e-12
// (they share the per-group arithmetic, so they agree exactly) across
// mixture widths on both sides of the parallel threshold.
func TestParallelMatchesSequentialCDF(t *testing.T) {
	for _, n := range []int{1, 4, 16} {
		seq := engineSystem(t, n, 1, Options{Workers: 1})
		for _, workers := range []int{0, 8} {
			par := engineSystem(t, n, 1, Options{Workers: workers})
			for x := 0.002; x < 0.4; x *= 1.9 {
				if got, want := par.CDF(x), seq.CDF(x); math.Abs(got-want) > 1e-12 {
					t.Errorf("n=%d workers=%d: CDF(%v) = %v, sequential %v", n, workers, x, got, want)
				}
				if got, want := mustEvalAt(t, par, backendQ, x), mustEvalAt(t, seq, backendQ, x); math.Abs(got-want) > 1e-12 {
					t.Errorf("n=%d workers=%d: backend Eval(%v) = %v, sequential %v", n, workers, x, got, want)
				}
			}
		}
	}
}

// TestSystemModelConcurrentCDF hammers one shared SystemModel from many
// goroutines; with -race it guards the engine's safety contract (shared
// inverter, shared device models, pooled fan-out).
func TestSystemModelConcurrentCDF(t *testing.T) {
	sys := engineSystem(t, 8, 1, Options{Workers: 4})
	want := sys.CDF(0.05)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				if got := sys.CDF(0.05); got != want {
					t.Errorf("concurrent CDF = %v, want %v", got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestQuantileSaturatedReturnsInf is the regression test for Quantile
// silently returning its internal 1e6-second search cap as if it were a
// real latency: a model whose response mass sits beyond the cap must report
// +Inf, matching lst.Quantile's contract.
func TestQuantileSaturatedReturnsInf(t *testing.T) {
	props := testProps()
	props.IndexDisk = dist.NewGammaMeanSCV(2e5, 0.45)
	props.MetaDisk = dist.NewGammaMeanSCV(2e5, 0.50)
	props.DataDisk = dist.NewGammaMeanSCV(3e5, 0.40)
	m := testMetrics()
	m.Rate = 1e-7
	m.DataRate = m.Rate
	d, err := NewDeviceModel(props, m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	fe, err := NewFrontendModel(m.Rate, 1, props.ParseFE)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystemModel(fe, []*DeviceModel{d}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	quantile := func(p float64) float64 {
		q, err := sys.Quantile(context.Background(), Query{}, p, 0)
		if err != nil {
			t.Fatalf("Quantile(%v): %v", p, err)
		}
		return q
	}
	if got := quantile(0.999999); !math.IsInf(got, 1) {
		t.Errorf("saturated Quantile = %v, want +Inf", got)
	}
	if got := quantile(1); !math.IsInf(got, 1) {
		t.Errorf("Quantile(1) = %v, want +Inf", got)
	}
	if got := quantile(0); got != 0 {
		t.Errorf("Quantile(0) = %v, want 0", got)
	}
}

// TestDeploymentDedupsIdenticalDevices checks that homogeneous deployments
// (every slot sharing one *DeviceModel) collapse to a single mixture group,
// so the engine inverts one backend transform regardless of device count.
func TestDeploymentDedupsIdenticalDevices(t *testing.T) {
	dep := Deployment{
		Props:         testProps(),
		Devices:       8,
		Procs:         1,
		FrontendProcs: 4,
		ExtraReadFrac: 0.2,
		MissIndex:     0.35,
		MissMeta:      0.30,
		MissData:      0.45,
	}
	sys, err := dep.Model(200)
	if err != nil {
		t.Fatal(err)
	}
	if len(sys.groups) != 1 {
		t.Fatalf("homogeneous deployment produced %d mixture groups, want 1", len(sys.groups))
	}
	if math.Abs(sys.groups[0].weight-sys.totalRate) > 1e-9 {
		t.Errorf("group weight %v, total rate %v", sys.groups[0].weight, sys.totalRate)
	}
	// Distinct devices must not collapse.
	het := engineSystem(t, 4, 1, Options{})
	if len(het.groups) != 4 {
		t.Errorf("heterogeneous system produced %d groups, want 4", len(het.groups))
	}
}

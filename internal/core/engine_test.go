package core

import (
	"context"
	"fmt"
	"math"
	"math/cmplx"
	"sync"
	"testing"

	"cosmodel/internal/dist"
	"cosmodel/internal/lst"
	"cosmodel/internal/numeric"
)

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
// transform closure, closureCDF) across every model variant the engine
// specializes.
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
			// The quantile bracket seed: the mean of the composed
			// closures, bit for bit.
			mean := 0.0
			for _, d := range engine.devices {
				c := mustClosures(t, d)
				mean += d.Rate() * lst.Convolve(engine.frontend.Sojourn(), c.wa, c.sbe).Mean
			}
			if got, want := engine.MeanResponse(), mean/engine.totalRate; got != want {
				t.Errorf("MeanResponse %v, composed closures %v", got, want)
			}
			for _, q := range []Query{{}, backendQ} {
				for _, x := range ts {
					got, want := mustEvalAt(t, engine, q, x), closureCDF(t, engine, q.Tier == TierBackend, x)
					if math.Abs(got-want) > 1e-12 {
						t.Errorf("%+v at %v: engine %v, legacy %v (diff %g)", q, x, got, want, got-want)
					}
				}
			}
		})
	}
}

// closureCDF is the closure oracle of a plain read: every mixture group's
// composed transform (closuresOf) — lst.Convolve of the frontend sojourn,
// the device's accept wait and its backend response, or the backend
// response alone — inverted independently with numeric.InvertCDF and
// rate-weighted in group order.
func closureCDF(t *testing.T, sys *SystemModel, backend bool, x float64) float64 {
	inv := sys.opts.inverter()
	total := 0.0
	for _, g := range sys.groups {
		c := mustClosures(t, g.dev)
		tr := lst.Convolve(sys.frontend.Sojourn(), c.wa, c.sbe)
		if backend {
			tr = c.sbe
		}
		total += g.weight * numeric.InvertCDF(inv, tr.F, x)
	}
	return numeric.Clamp01(total / sys.totalRate)
}

// TestDeviceNodesMatchClosurePipeline pins the device model — its node
// evaluators and the means summed at build — to the closure composition of
// the same leaves (closuresOf) over every option variant, Nbe ∈ {1, 4} and
// read-only or write traffic (one or 3.5 chunks per PUT): the utilization
// and the means of Wbe, Wa, Sbe and Swr bit for bit, and responseNode and
// writeNode within 1e-12 relative of the closures' transforms at every
// Euler and Talbot inversion node of three thresholds.
func TestDeviceNodesMatchClosurePipeline(t *testing.T) {
	variants := []struct {
		name string
		opts Options
	}{
		{"default", Options{}},
		{"odopr", Options{ODOPR: true}},
		{"noWTA", Options{WTA: WTANone}},
		{"exactWTA", Options{WTA: WTAExact}},
		{"fixedCompound", Options{Compound: CompoundFixed}},
		{"geomCompound", Options{Compound: CompoundGeometric}},
		{"diskMG1", Options{DiskQueue: DiskMG1}},
	}
	writes := []struct{ rate, chunks float64 }{{0, 0}, {3, 1}, {3, 3.5}}
	inverters := []numeric.Inverter{numeric.NewEuler(), numeric.NewTalbot()}
	for _, v := range variants {
		for _, procs := range []int{1, 4} {
			for _, w := range writes {
				t.Run(fmt.Sprintf("%s/Nbe=%d/writes=%v×%v", v.name, procs, w.rate, w.chunks), func(t *testing.T) {
					m := testMetrics()
					m.DataRate = 2.7 * m.Rate // 1.7 extra reads: a fixed compound of 2
					m.Procs = procs
					m.WriteRate, m.WriteChunks = w.rate, w.chunks
					d, err := NewDeviceModel(testProps(), m, v.opts)
					if err != nil {
						t.Fatal(err)
					}
					c := mustClosures(t, d)
					for _, mean := range []struct {
						name      string
						got, want float64
					}{
						{"utilization", d.Utilization(), c.utilization},
						{"E[Wbe]", d.meanWbe, c.wbe.Mean},
						{"E[Wa]", d.meanWa, c.wa.Mean},
						{"E[Sbe]", d.meanSbe, c.sbe.Mean},
						{"E[Swr]", d.meanSwr, c.swr.Mean},
					} {
						if math.Float64bits(mean.got) != math.Float64bits(mean.want) {
							t.Errorf("%s = %v, closures %v", mean.name, mean.got, mean.want)
						}
					}
					near := func(what string, s, got, want complex128) {
						if cmplx.Abs(got-want) > 1e-12*cmplx.Abs(want) {
							t.Errorf("%s(%v) = %v, closures %v", what, s, got, want)
						}
					}
					for _, inv := range inverters {
						for _, x := range []float64{0.005, 0.03, 0.2} {
							nodes, _ := inv.AppendNodes(nil, nil, x)
							for _, s := range nodes {
								pr := d.parse.F(s)
								wa, sbe := d.responseNode(s, pr)
								near("Wa", s, wa, c.wa.F(s))
								near("Sbe", s, sbe, c.sbe.F(s))
								if w.rate > 0 {
									wa, swr := d.writeNode(s, pr)
									near("write Wa", s, wa, c.wa.F(s))
									near("Swr", s, swr, c.swr.F(s))
								}
							}
						}
					}
				})
			}
		}
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
// +Inf.
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

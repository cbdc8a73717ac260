package core

import (
	"context"
	"errors"
	"math"
	"testing"

	"cosmodel/internal/coscode"
)

// writeTestMetrics is testMetrics plus a write class: a fifth of the read
// rate arrives as PUT replica sub-requests averaging two data chunks each.
func writeTestMetrics() OnlineMetrics {
	m := testMetrics()
	m.WriteRate = 8
	m.WriteChunks = 2
	return m
}

func buildWriteTestSystem(t *testing.T, nDevices int, opts Options) *SystemModel {
	t.Helper()
	devs := make([]*DeviceModel, nDevices)
	for i := range devs {
		m := writeTestMetrics()
		m.Rate *= 1 + 0.02*float64(i)
		m.DataRate = m.Rate * 1.2
		m.WriteRate *= 1 + 0.05*float64(i)
		d, err := NewDeviceModel(testProps(), m, opts)
		if err != nil {
			t.Fatal(err)
		}
		devs[i] = d
	}
	fe, err := NewFrontendModel((testMetrics().Rate+writeTestMetrics().WriteRate)*float64(nDevices), 12, testProps().ParseFE)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystemModel(fe, devs, opts)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestOnlineMetricsWriteValidation(t *testing.T) {
	m := writeTestMetrics()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := m
	bad.WriteRate = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative write rate should fail")
	}
	bad = m
	bad.WriteChunks = 0.5
	if err := bad.Validate(); err == nil {
		t.Error("write chunks < 1 with writes should fail")
	}
	bad = m
	bad.WriteRate = 0
	if err := bad.Validate(); err == nil {
		t.Error("write chunks without write traffic should fail")
	}
}

func TestWriteSpecValidate(t *testing.T) {
	for _, q := range []Query{writeQ(1, 1), writeQ(3, 2), writeQ(3, 3), {Op: OpWrite}, {Op: OpWrite, Tier: TierBackend}} {
		if err := q.Validate(); err != nil {
			t.Errorf("%+v: %v", q, err)
		}
	}
	for _, q := range []Query{
		writeQ(3, 0), writeQ(3, 4), writeQ(-1, 1),
		{Op: OpWrite, Spec: coscode.Spec{N: 3, K: 2, Hedge: true}},
		{Op: OpWrite, Tier: TierNoWTA},
	} {
		if err := q.Validate(); err == nil {
			t.Errorf("%+v: expected validation error", q)
		}
	}
}

// The acceptance bar: the degenerate {N:1, W:1} spec must reproduce the
// plain single-replica write CDF — the direct mixture evaluation with no
// frontend-grid discretization — to within 1e-12, mirroring the coscode
// n=1 bar.
func TestWriteCDFN1MatchesPlainWriteCDF(t *testing.T) {
	sys := buildWriteTestSystem(t, 3, Options{})
	ctx := context.Background()
	for _, sla := range []float64{0.005, 0.010, 0.050, 0.100} {
		want, err := sys.mixtureCDF(ctx, sla, modeWriteFull)
		if err != nil {
			t.Fatal(err)
		}
		if got := mustEvalAt(t, sys, writeQ(1, 1), sla); math.Abs(got-want) > 1e-12 {
			t.Errorf("sla=%v: write n=1 %v vs plain write CDF %v (diff %g)",
				sla, got, want, math.Abs(got-want))
		}
		// And the backend tier, against the Swr mixture.
		wantBE, err := sys.mixtureCDF(ctx, sla, modeWriteBackend)
		if err != nil {
			t.Fatal(err)
		}
		gotBE := mustEvalAt(t, sys, Query{Op: OpWrite, Tier: TierBackend, Spec: coscode.Spec{N: 1, K: 1}}, sla)
		if math.Abs(gotBE-wantBE) > 1e-12 {
			t.Errorf("sla=%v: backend write n=1 %v vs Swr mixture %v", sla, gotBE, wantBE)
		}
	}
}

func TestWriteCDFProperties(t *testing.T) {
	sys := buildWriteTestSystem(t, 3, Options{})
	q := writeQ(3, 2)
	prev := 0.0
	for _, tt := range []float64{0.005, 0.01, 0.02, 0.05, 0.1, 0.2} {
		v := mustEvalAt(t, sys, q, tt)
		if v < 0 || v > 1 {
			t.Fatalf("t=%v: write CDF %v outside [0,1]", tt, v)
		}
		if v < prev-1e-12 {
			t.Fatalf("t=%v: write CDF not monotone (%v after %v)", tt, v, prev)
		}
		prev = v
	}
	if v, err := evalAt(sys, q, 0); err != nil || v != 0 {
		t.Errorf("write CDF at t=0: %v, %v", v, err)
	}
	// More acks required -> stochastically slower: W=N lies below W=1 at
	// every threshold.
	for _, tt := range []float64{0.01, 0.05, 0.1} {
		fastest := mustEvalAt(t, sys, writeQ(3, 1), tt)
		if barrier := mustEvalAt(t, sys, writeQ(3, 3), tt); barrier > fastest+1e-12 {
			t.Errorf("t=%v: W=3 CDF %v above W=1 CDF %v", tt, barrier, fastest)
		}
	}
}

// The batched write evaluation must agree with the scalar reference to
// within 1e-12, in the N=1 short-circuit and through the record/replay
// grid path alike.
func TestWriteCDFBatchMatchesScalar(t *testing.T) {
	sys := buildWriteTestSystem(t, 3, Options{})
	ts := []float64{0, 0.005, 0.01, 0.05, 0.1}
	for _, q := range []Query{writeQ(1, 1), writeQ(3, 2), writeQ(3, 3)} {
		out, err := sys.Eval(context.Background(), ts, q)
		if err != nil {
			t.Fatal(err)
		}
		for i, tt := range ts {
			if want := mustOracle(t, sys, q, tt); math.Abs(out[0][i]-want) > 1e-12 {
				t.Errorf("spec=%+v t=%v: batch %v vs scalar %v", q.Spec, tt, out[0][i], want)
			}
		}
	}
}

// Mixing read and write queries in one traversal changes neither: each
// matches its own scalar reference.
func TestBatchKindsWriteFamily(t *testing.T) {
	sys := buildWriteTestSystem(t, 3, Options{})
	ts := []float64{0.01, 0.05, 0.1}
	qs := []Query{{}, writeQ(1, 1), {Op: OpWrite, Tier: TierBackend}}
	grids, err := sys.Eval(context.Background(), ts, qs...)
	if err != nil {
		t.Fatal(err)
	}
	for i, tt := range ts {
		for k, q := range qs {
			if want := mustOracle(t, sys, q, tt); math.Abs(grids[k][i]-want) > 1e-12 {
				t.Errorf("t=%v: mixed-batch %+v %v vs scalar %v", tt, q, grids[k][i], want)
			}
		}
	}
}

func TestWriteQuantileInvertsCDF(t *testing.T) {
	sys := buildWriteTestSystem(t, 2, Options{})
	ctx := context.Background()
	q := writeQ(3, 2)
	for _, p := range []float64{0.5, 0.9, 0.99} {
		x, err := sys.Quantile(ctx, q, p, 0)
		if err != nil {
			t.Fatal(err)
		}
		if v := mustEvalAt(t, sys, q, x); math.Abs(v-p) > 1e-6 {
			t.Errorf("p=%v: CDF(quantile)=%v", p, v)
		}
	}
	if x, err := sys.Quantile(ctx, q, 0, 0); err != nil || x != 0 {
		t.Errorf("p=0: %v, %v", x, err)
	}
	if x, err := sys.Quantile(ctx, q, 1, 0); err != nil || !math.IsInf(x, 1) {
		t.Errorf("p=1: %v, %v", x, err)
	}
}

// A read-only mixture has no write traffic to model: write queries must
// reject it rather than divide by a zero rate.
func TestWriteCDFRejectsReadOnlyMixture(t *testing.T) {
	d, err := NewDeviceModel(testProps(), testMetrics(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	fe, err := NewFrontendModel(testMetrics().Rate, 12, testProps().ParseFE)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystemModel(fe, []*DeviceModel{d}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []Query{writeQ(1, 1), writeQ(3, 2), {Op: OpWrite, Tier: TierBackend}} {
		if _, err := evalAt(sys, q, 0.05); !errors.Is(err, ErrBadParams) {
			t.Errorf("%+v: want ErrBadParams, got %v", q, err)
		}
	}
	if _, err := sys.Eval(context.Background(), []float64{0.05}, Query{}, writeQ(1, 1)); !errors.Is(err, ErrBadParams) {
		t.Errorf("mixed read/write: want ErrBadParams, got %v", err)
	}
}

// A mixed fleet — some devices carrying writes, some read-only — weights
// the write mixture by write rate only: the read-only device must not
// dilute the write CDF.
func TestWriteMixtureSkipsReadOnlyDevices(t *testing.T) {
	opts := Options{}
	writer, err := NewDeviceModel(testProps(), writeTestMetrics(), opts)
	if err != nil {
		t.Fatal(err)
	}
	reader, err := NewDeviceModel(testProps(), testMetrics(), opts)
	if err != nil {
		t.Fatal(err)
	}
	fe, err := NewFrontendModel(100, 12, testProps().ParseFE)
	if err != nil {
		t.Fatal(err)
	}
	mixed, err := NewSystemModel(fe, []*DeviceModel{writer, reader}, opts)
	if err != nil {
		t.Fatal(err)
	}
	alone, err := NewSystemModel(fe, []*DeviceModel{writer}, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, tt := range []float64{0.01, 0.05, 0.1} {
		got := mustEvalAt(t, mixed, writeQ(1, 1), tt)
		want := mustEvalAt(t, alone, writeQ(1, 1), tt)
		if math.Abs(got-want) > 1e-12 {
			t.Errorf("t=%v: mixed-fleet write CDF %v vs writer-only %v", tt, got, want)
		}
	}
}

// Adding write load to a device must slow the reads it shares the queue
// with: the read CDF of the loaded device lies below the read-only one.
func TestWriteLoadInflatesReadLatency(t *testing.T) {
	opts := Options{}
	loaded, err := NewDeviceModel(testProps(), writeTestMetrics(), opts)
	if err != nil {
		t.Fatal(err)
	}
	quiet, err := NewDeviceModel(testProps(), testMetrics(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if lu, qu := loaded.Utilization(), quiet.Utilization(); lu <= qu {
		t.Fatalf("write load should raise utilization: %v vs %v", lu, qu)
	}
	fe, err := NewFrontendModel(60, 12, testProps().ParseFE)
	if err != nil {
		t.Fatal(err)
	}
	for _, tt := range []float64{0.02, 0.05, 0.1} {
		sysL, err := NewSystemModel(fe, []*DeviceModel{loaded}, opts)
		if err != nil {
			t.Fatal(err)
		}
		sysQ, err := NewSystemModel(fe, []*DeviceModel{quiet}, opts)
		if err != nil {
			t.Fatal(err)
		}
		vl := mustEvalAt(t, sysL, Query{}, tt)
		vq := mustEvalAt(t, sysQ, Query{}, tt)
		if vl >= vq {
			t.Errorf("t=%v: loaded read CDF %v not below quiet %v", tt, vl, vq)
		}
	}
}

// Multi-process devices share one disk: write arrivals must enter the disk
// queue too, and the pipeline must still build and evaluate.
func TestWriteModelMultiProcess(t *testing.T) {
	m := writeTestMetrics()
	m.Procs = 16
	m.DiskMean = 8e-3
	d, err := NewDeviceModel(testProps(), m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	fe, err := NewFrontendModel(m.Rate+m.WriteRate, 12, testProps().ParseFE)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystemModel(fe, []*DeviceModel{d}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	prev := 0.0
	for _, tt := range []float64{0.01, 0.05, 0.1, 0.3} {
		v := mustEvalAt(t, sys, writeQ(3, 2), tt)
		if v < prev-1e-12 || v < 0 || v > 1 {
			t.Fatalf("t=%v: write CDF %v (prev %v)", tt, v, prev)
		}
		prev = v
	}
	if prev <= 0 {
		t.Fatal("write CDF never left zero")
	}
}

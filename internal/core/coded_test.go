package core

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"

	"cosmodel/internal/coscode"
	"cosmodel/internal/dist"
)

func buildCodedTestSystem(t *testing.T, nDevices int, opts Options) *SystemModel {
	t.Helper()
	devs := make([]*DeviceModel, nDevices)
	for i := range devs {
		m := testMetrics()
		m.Rate *= 1 + 0.02*float64(i) // distinct operating points
		m.DataRate = m.Rate * 1.2
		d, err := NewDeviceModel(testProps(), m, opts)
		if err != nil {
			t.Fatal(err)
		}
		devs[i] = d
	}
	fe, err := NewFrontendModel(testMetrics().Rate*float64(nDevices), 12, testProps().ParseFE)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystemModel(fe, devs, opts)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// The acceptance bar: a degenerate 1-of-1 "stripe" must reproduce the
// plain backend CDF to within 1e-12 (it runs the identical mixture path).
func TestCodedBackendN1MatchesBackendCDF(t *testing.T) {
	sys := buildCodedTestSystem(t, 3, Options{})
	for _, sla := range []float64{0.005, 0.010, 0.050, 0.100} {
		want := mustOracle(t, sys, backendQ, sla)
		got := mustEvalAt(t, sys, Query{Tier: TierBackend, Spec: coscode.Spec{N: 1, K: 1}}, sla)
		if math.Abs(got-want) > 1e-12 {
			t.Errorf("sla=%v: coded n=1 %v vs backend CDF %v (diff %g)",
				sla, got, want, math.Abs(got-want))
		}
	}
}

func TestCodedFrontendN1MatchesCDF(t *testing.T) {
	sys := buildCodedTestSystem(t, 2, Options{})
	for _, sla := range []float64{0.010, 0.050, 0.100} {
		want := mustOracle(t, sys, Query{}, sla)
		got := mustEvalAt(t, sys, codedQ(1, 1), sla)
		if math.Abs(got-want) > 1e-12 {
			t.Errorf("sla=%v: coded n=1 %v vs CDF %v", sla, got, want)
		}
	}
}

func TestCodedCDFPropertiesAtSystemLevel(t *testing.T) {
	sys := buildCodedTestSystem(t, 3, Options{})
	// Monotone in t and bounded, for both tiers.
	for _, spec := range []coscode.Spec{{N: 3, K: 1}, {N: 6, K: 4}, {N: 4, K: 2, Hedge: true, HedgeDelay: 0.01}} {
		prevFE, prevBE := 0.0, 0.0
		for _, tt := range []float64{0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2} {
			fe := mustEvalAt(t, sys, Query{Spec: spec}, tt)
			be := mustEvalAt(t, sys, Query{Tier: TierBackend, Spec: spec}, tt)
			for _, v := range []float64{fe, be} {
				if v < 0 || v > 1 || math.IsNaN(v) {
					t.Fatalf("spec %v t=%v: value %v outside [0,1]", spec, tt, v)
				}
			}
			if fe < prevFE-1e-9 || be < prevBE-1e-9 {
				t.Fatalf("spec %v t=%v: non-monotone (fe %v<%v or be %v<%v)",
					spec, tt, fe, prevFE, be, prevBE)
			}
			prevFE, prevBE = fe, be
		}
	}
	// Ordered in k at a fixed probe.
	prev := 1.0
	for k := 1; k <= 4; k++ {
		v := mustEvalAt(t, sys, codedQ(4, k), 0.05)
		if v > prev+1e-9 {
			t.Fatalf("not ordered in k at k=%d: %v > %v", k, v, prev)
		}
		prev = v
	}
	// Fastest-of-3 stochastically dominates the plain read.
	plain := mustEvalAt(t, sys, Query{}, 0.02)
	fast := mustEvalAt(t, sys, codedQ(3, 1), 0.02)
	if fast < plain-1e-6 {
		t.Errorf("fastest-of-3 CDF %v below plain CDF %v", fast, plain)
	}
}

func TestCodedHedgeEndpointsAtSystemLevel(t *testing.T) {
	sys := buildCodedTestSystem(t, 3, Options{})
	hedged := func(delay float64) Query {
		return Query{Spec: coscode.Spec{N: 3, K: 2, Hedge: true, HedgeDelay: delay}}
	}
	for _, tt := range []float64{0.01, 0.05, 0.1} {
		plain := mustEvalAt(t, sys, codedQ(3, 2), tt)
		if h0 := mustEvalAt(t, sys, hedged(0), tt); math.Abs(plain-h0) > 1e-12 {
			t.Errorf("t=%v: hedge Δ=0 %v != plain %v", tt, h0, plain)
		}
		kOnly := mustEvalAt(t, sys, codedQ(2, 2), tt)
		if hInf := mustEvalAt(t, sys, hedged(math.Inf(1)), tt); math.Abs(kOnly-hInf) > 1e-12 {
			t.Errorf("t=%v: hedge Δ=∞ %v != k-of-k %v", tt, hInf, kOnly)
		}
	}
}

func TestCodedQuantileInvertsCodedCDF(t *testing.T) {
	sys := buildCodedTestSystem(t, 3, Options{})
	ctx := context.Background()
	for _, q := range []Query{codedQ(3, 1), codedQ(6, 4)} {
		for _, p := range []float64{0.5, 0.9, 0.99} {
			x, err := sys.Quantile(ctx, q, p, 0)
			if err != nil {
				t.Fatal(err)
			}
			if v := mustEvalAt(t, sys, q, x); math.Abs(v-p) > 1e-3 {
				t.Errorf("spec %v: CDF(Quantile(%v)=%v) = %v", q.Spec, p, x, v)
			}
		}
	}
	// Replication's p99 beats the plain read's p99; a full fork-join
	// barrier is no faster than its slowest constituent set.
	p99Plain, err := sys.Quantile(ctx, Query{}, 0.99, 0)
	if err != nil {
		t.Fatal(err)
	}
	p99Fast, err := sys.Quantile(ctx, codedQ(3, 1), 0.99, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p99Fast > p99Plain+1e-6 {
		t.Errorf("fastest-of-3 p99 %v above plain p99 %v", p99Fast, p99Plain)
	}
	p99Barrier, err := sys.Quantile(ctx, codedQ(3, 3), 0.99, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p99Barrier < p99Plain-1e-3 {
		t.Errorf("fork-join barrier p99 %v below plain p99 %v", p99Barrier, p99Plain)
	}
}

func TestCodedObserverSpans(t *testing.T) {
	var mu sync.Mutex
	events := map[string]EvalEvent{}
	opts := Options{Observer: func(e EvalEvent) {
		mu.Lock()
		events[e.Op] = e
		mu.Unlock()
	}}
	sys := buildCodedTestSystem(t, 3, opts)
	ctx := context.Background()
	q := codedQ(3, 2)
	mustEvalAt(t, sys, q, 0.05)
	mustEvalAt(t, sys, Query{Tier: TierBackend, Spec: q.Spec}, 0.05)
	if _, err := sys.Eval(ctx, []float64{0.01, 0.05}, q); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Quantile(ctx, q, 0.9, 0); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	for _, op := range []string{"coded_cdf", "coded_backend_cdf", "coded_cdf_batch", "coded_quantile"} {
		e, ok := events[op]
		if !ok {
			t.Errorf("no %s span observed", op)
			continue
		}
		if e.Probes < 1 {
			t.Errorf("%s span reports %d probes", op, e.Probes)
		}
		if e.Groups != 3 {
			t.Errorf("%s span reports %d groups", op, e.Groups)
		}
	}
}

func TestCodedSpecErrorsSurface(t *testing.T) {
	sys := buildCodedTestSystem(t, 2, Options{})
	ctx := context.Background()
	bad := coscode.Spec{N: 2, K: 3}
	if _, err := evalAt(sys, Query{Spec: bad}, 0.05); !errors.Is(err, coscode.ErrBadSpec) {
		t.Errorf("frontend Eval: got %v, want ErrBadSpec", err)
	}
	if _, err := evalAt(sys, Query{Tier: TierBackend, Spec: bad}, 0.05); !errors.Is(err, coscode.ErrBadSpec) {
		t.Errorf("backend Eval: got %v, want ErrBadSpec", err)
	}
	if _, err := sys.Quantile(ctx, Query{Spec: bad}, 0.9, 0); !errors.Is(err, coscode.ErrBadSpec) {
		t.Errorf("Quantile: got %v, want ErrBadSpec", err)
	}
	// Cancellation propagates.
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := evalAtContext(cctx, sys, codedQ(3, 2), 0.05); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled context: got %v", err)
	}
}

// The grid discretization must keep a simulated-free sanity property: the
// coded mixture over a homogeneous pool equals the single-device coded
// value (mixture of identical groups collapses).
func TestCodedHomogeneousMixtureCollapses(t *testing.T) {
	m := testMetrics()
	d1, err := NewDeviceModel(testProps(), m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	fe, err := NewFrontendModel(m.Rate*4, 12, dist.Degenerate{Value: 0.3e-3})
	if err != nil {
		t.Fatal(err)
	}
	one, err := NewSystemModel(fe, []*DeviceModel{d1}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	many, err := NewSystemModel(fe, []*DeviceModel{d1, d1, d1, d1}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	q := codedQ(4, 2)
	for _, tt := range []float64{0.01, 0.05} {
		a := mustEvalAt(t, one, q, tt)
		b := mustEvalAt(t, many, q, tt)
		if math.Abs(a-b) > 1e-12 {
			t.Errorf("t=%v: homogeneous mixture %v != single %v", tt, b, a)
		}
	}
}

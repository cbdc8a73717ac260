package core

import (
	"context"
	"errors"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"cosmodel/internal/numeric"
)

// buildSystem assembles a system model of n identical test devices.
func buildSystem(t *testing.T, n int, opts Options) *SystemModel {
	t.Helper()
	m := testMetrics()
	devs := make([]*DeviceModel, n)
	for i := range devs {
		d, err := NewDeviceModel(testProps(), m, opts)
		if err != nil {
			t.Fatal(err)
		}
		devs[i] = d
	}
	fe, err := NewFrontendModel(m.Rate*float64(n), 4, testProps().ParseFE)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystemModel(fe, devs, opts)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestContextFreeAPIEquivalence pins the headline wrapper: CDF delegates
// to Eval and produces identical values, and a query evaluated alone or
// inside a wider batch gives the same answer.
func TestContextFreeAPIEquivalence(t *testing.T) {
	sys := buildSystem(t, 4, Options{})
	ctx := context.Background()
	slas := []float64{0.01, 0.05, 0.1}
	grid, err := sys.Eval(ctx, slas, Query{}, backendQ)
	if err != nil {
		t.Fatal(err)
	}
	for i, sla := range slas {
		want := sys.CDF(sla)
		if got := mustEvalAt(t, sys, Query{}, sla); got != want {
			t.Errorf("Eval(%v) = %v, CDF = %v", sla, got, want)
		}
		if grid[0][i] != want {
			t.Errorf("batched Eval(%v) = %v, CDF = %v", sla, grid[0][i], want)
		}
		if got := mustEvalAt(t, sys, backendQ, sla); got != grid[1][i] {
			t.Errorf("backend Eval(%v) = %v alone, %v batched", sla, got, grid[1][i])
		}
	}
	q1, err1 := sys.Quantile(ctx, Query{}, 0.9, 0)
	q2, err2 := sys.Quantile(ctx, Query{}, 0.9, 0)
	if err1 != nil || err2 != nil || q1 != q2 {
		t.Errorf("Quantile not deterministic: %v (%v), %v (%v)", q1, err1, q2, err2)
	}
}

func TestCDFContextCancelled(t *testing.T) {
	sys := buildSystem(t, 4, Options{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out, err := sys.Eval(ctx, []float64{0.05})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want Canceled", err)
	}
	if out != nil {
		t.Errorf("cancelled evaluation leaked values %v", out)
	}
	if _, err := sys.Quantile(ctx, Query{}, 0.9, 0); !errors.Is(err, context.Canceled) {
		t.Errorf("Quantile err = %v", err)
	}
}

// slowInverter delays every inversion, making evaluation budgets bite.
type slowInverter struct {
	d     time.Duration
	inner numeric.Inverter
}

func (s slowInverter) Invert(f numeric.TransformFunc, t float64) float64 {
	time.Sleep(s.d)
	return s.inner.Invert(f, t)
}
func (s slowInverter) Name() string { return "slow-" + s.inner.Name() }

func TestEvalTimeoutBoundsCall(t *testing.T) {
	opts := Options{
		Inverter:    slowInverter{d: 20 * time.Millisecond, inner: numeric.NewEuler()},
		EvalTimeout: time.Millisecond,
	}
	sys := buildSystem(t, 8, opts)
	start := time.Now()
	_, err := sys.Quantile(context.Background(), Query{}, 0.99, 0)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	// The quantile search would perform dozens of sequential probes, each
	// ≥ 8×20ms uncancelled; the budget must cut it off far earlier.
	if el := time.Since(start); el > 2*time.Second {
		t.Errorf("budgeted call took %v", el)
	}
}

// nanInverter poisons every inversion.
type nanInverter struct{}

func (nanInverter) Invert(numeric.TransformFunc, float64) float64 { return math.NaN() }
func (nanInverter) Name() string                                  { return "nan" }

func TestFallbackRecoversPoisonedInverter(t *testing.T) {
	var fired atomic.Int64
	var from, to atomic.Value
	opts := Options{
		Inverter: nanInverter{},
		OnFallback: func(f, tn string) {
			fired.Add(1)
			from.Store(f)
			to.Store(tn)
		},
	}
	sys := buildSystem(t, 2, opts)
	v, err := evalAt(sys, Query{}, 0.05)
	if err != nil {
		t.Fatalf("fallback chain should have recovered: %v", err)
	}
	if v <= 0 || v > 1 {
		t.Errorf("recovered CDF %v outside (0,1]", v)
	}
	if fired.Load() == 0 {
		t.Fatal("OnFallback never fired")
	}
	if from.Load() != "nan" {
		t.Errorf("fallback from %v, want the poisoned primary", from.Load())
	}
	if to.Load() == "nan" || to.Load() == "" {
		t.Errorf("fallback to %v", to.Load())
	}
	// The recovered value must agree with a healthy model.
	want := buildSystem(t, 2, Options{}).CDF(0.05)
	if math.Abs(v-want) > 1e-6 {
		t.Errorf("recovered CDF %v, healthy model %v", v, want)
	}
}

func TestDisabledFallbacksSurfaceErrNumerical(t *testing.T) {
	opts := Options{
		Inverter:  nanInverter{},
		Fallbacks: []numeric.Inverter{}, // non-nil empty: fallback disabled
	}
	sys := buildSystem(t, 2, opts)
	v, err := evalAt(sys, Query{}, 0.05)
	if !errors.Is(err, numeric.ErrNumerical) {
		t.Fatalf("err = %v, want ErrNumerical", err)
	}
	var ie *numeric.InversionError
	if !errors.As(err, &ie) {
		t.Fatalf("err = %T", err)
	}
	if ie.Reason != "NaN CDF value" {
		t.Errorf("reason %q", ie.Reason)
	}
	if math.IsNaN(v) || v != 0 {
		t.Errorf("poisoned evaluation returned %v, want 0", v)
	}
	// The headline CDF must degrade to 0, never NaN.
	if got := sys.CDF(0.05); got != 0 {
		t.Errorf("CDF on poisoned model = %v, want 0", got)
	}
	if _, err := sys.Quantile(context.Background(), Query{}, 0.9, 0); !errors.Is(err, numeric.ErrNumerical) {
		t.Errorf("Quantile on poisoned model: err = %v, want ErrNumerical", err)
	}
}

// sequenceInverter replays scripted CDF values call by call — a harness for
// driving the bisection into pathological shapes.
type sequenceInverter struct {
	calls *atomic.Int64
	vals  []float64
}

func (s sequenceInverter) Invert(numeric.TransformFunc, float64) float64 {
	i := int(s.calls.Add(1)) - 1
	if i >= len(s.vals) {
		i = len(s.vals) - 1
	}
	return s.vals[i]
}
func (s sequenceInverter) Name() string { return "sequence" }

func TestQuantileDetectsGrossNonMonotonicity(t *testing.T) {
	// Probe script: the initial hi probe sees 0.95 (≥ p, no doubling);
	// bisection probe 1 sees 0.2 (→ lo, vLo=0.2); probe 2 sees 0.05,
	// which undershoots vLo by more than the slack → broken CDF.
	seq := sequenceInverter{calls: &atomic.Int64{}, vals: []float64{0.95, 0.2, 0.05}}
	opts := Options{
		Inverter:  seq,
		Fallbacks: []numeric.Inverter{}, // keep the script in control
	}
	sys := buildSystem(t, 1, opts)
	_, err := sys.Quantile(context.Background(), Query{}, 0.9, 0)
	if !errors.Is(err, numeric.ErrNumerical) {
		t.Fatalf("err = %v, want ErrNumerical", err)
	}
	var ie *numeric.InversionError
	if !errors.As(err, &ie) || ie.Reason != "grossly non-monotone CDF in quantile bisection" {
		t.Errorf("err %v", err)
	}
}

func TestMaxRateWhereContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	probes := 0
	meets := func(ctx context.Context, rate float64) (bool, error) {
		probes++
		if probes == 3 {
			cancel()
		}
		return rate < 1000, nil
	}
	_, err := MaxRateWhereContext(ctx, meets, 1, 0.5)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if probes > 4 {
		t.Errorf("%d probes ran after cancellation", probes)
	}
}

func TestMaxRateWhereContextProbeError(t *testing.T) {
	boom := errors.New("probe failed")
	_, err := MaxRateWhereContext(context.Background(),
		func(_ context.Context, rate float64) (bool, error) {
			if rate > 10 {
				return false, boom
			}
			return true, nil
		}, 1, 0.5)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
}

// TestMaxRateWhereLegacyEquivalence pins the wrapper: the context-free
// bisection finds the same threshold.
func TestMaxRateWhereLegacyEquivalence(t *testing.T) {
	meets := func(rate float64) bool { return rate <= 730 }
	want := MaxRateWhere(meets, 1, 1)
	got, err := MaxRateWhereContext(context.Background(),
		func(_ context.Context, rate float64) (bool, error) { return meets(rate), nil }, 1, 1)
	if err != nil || got != want {
		t.Errorf("context variant %v (%v), legacy %v", got, err, want)
	}
	if want < 729 || want > 730 {
		t.Errorf("threshold %v, want ≈730", want)
	}
}

func TestDeploymentContextPropagation(t *testing.T) {
	d := Deployment{
		Props:         testProps(),
		Devices:       2,
		Procs:         1,
		FrontendProcs: 4,
		ExtraReadFrac: 0.2,
		MissIndex:     0.35, MissMeta: 0.3, MissData: 0.45,
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := d.MeetFractionContext(ctx, 60, 0.05); !errors.Is(err, context.Canceled) {
		t.Errorf("MeetFractionContext err = %v", err)
	}
	if _, err := MaxAdmissibleRateContext(ctx, d, 0.05, 0.9); !errors.Is(err, context.Canceled) {
		t.Errorf("MaxAdmissibleRateContext err = %v", err)
	}
	if _, err := HeadroomContext(ctx, d, 60, 0.05, 0.9); !errors.Is(err, context.Canceled) {
		t.Errorf("HeadroomContext err = %v", err)
	}
	// And the healthy path still answers.
	rate, err := MaxAdmissibleRateContext(context.Background(), d, 0.1, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if rate <= 0 {
		t.Errorf("admissible rate %v", rate)
	}
}

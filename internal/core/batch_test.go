package core

import (
	"context"
	"errors"
	"math"
	"sync/atomic"
	"testing"

	"cosmodel/internal/coscode"
	"cosmodel/internal/numeric"
)

// buildHeteroSystem builds a mixture of n devices with distinct operating
// points, so every device is its own evaluation group.
func buildHeteroSystem(t *testing.T, n int, opts Options) *SystemModel {
	t.Helper()
	devs := make([]*DeviceModel, n)
	total := 0.0
	for i := range devs {
		m := testMetrics()
		m.Rate += 3 * float64(i)
		m.DataRate = m.Rate * 1.2
		m.MissData = 0.45 - 0.02*float64(i)
		d, err := NewDeviceModel(testProps(), m, opts)
		if err != nil {
			t.Fatal(err)
		}
		devs[i] = d
		total += m.Rate
	}
	fe, err := NewFrontendModel(total, 4, testProps().ParseFE)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystemModel(fe, devs, opts)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// batchGrid is a threshold grid exercising the edge cases: nonpositive
// thresholds (defined as 0), sub-millisecond, typical and tail values.
func batchGrid() []float64 {
	return []float64{-0.01, 0, 1e-6, 0.004, 0.01, 0.02, 0.05, 0.1, 0.25}
}

func TestCDFBatchMatchesScalar(t *testing.T) {
	for _, n := range []int{1, 2, 5} {
		sys := buildHeteroSystem(t, n, Options{})
		ts := batchGrid()
		out, err := sys.Eval(context.Background(), ts)
		if err != nil {
			t.Fatal(err)
		}
		got := out[0]
		for i, x := range ts {
			want, err := sys.mixtureCDF(context.Background(), x, modeFull)
			if err != nil {
				t.Fatal(err)
			}
			if d := math.Abs(got[i] - want); d > 1e-12 {
				t.Errorf("n=%d Eval(%g) = %v, scalar %v (|Δ| = %g)", n, x, got[i], want, d)
			}
		}
		// The context-free headline wrapper must agree exactly.
		for i, x := range ts {
			if v := sys.CDF(x); v != got[i] {
				t.Errorf("CDF(%g) = %v != Eval %v", x, v, got[i])
			}
		}
	}
}

func TestCDFBatchKindsMatchScalar(t *testing.T) {
	sys := buildHeteroSystem(t, 4, Options{})
	noWTA := buildHeteroSystem(t, 4, Options{WTA: WTANone})
	ts := batchGrid()
	grids, err := sys.Eval(context.Background(), ts, Query{}, backendQ, noWTAQ)
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range ts {
		fe := mustOracle(t, sys, Query{}, x)
		be := mustOracle(t, sys, backendQ, x)
		ablated := mustOracle(t, noWTA, Query{}, x)
		for k, want := range []float64{fe, be, ablated} {
			if d := math.Abs(grids[k][i] - want); d > 1e-12 {
				t.Errorf("query %d at t=%g: batch %v, scalar %v (|Δ| = %g)", k, x, grids[k][i], want, d)
			}
		}
	}
}

func TestCDFBatchKindsRejectsUnknownKind(t *testing.T) {
	sys := buildHeteroSystem(t, 1, Options{})
	for _, q := range []Query{{Tier: Tier(99)}, {Op: Op(99)}, {Tier: Tier(-1)}} {
		if _, err := sys.Eval(context.Background(), []float64{0.01}, q); !errors.Is(err, ErrBadParams) {
			t.Errorf("query %+v: err = %v, want ErrBadParams", q, err)
		}
	}
}

func TestCodedCDFBatchMatchesScalar(t *testing.T) {
	sys := buildHeteroSystem(t, 3, Options{})
	ts := batchGrid()
	for _, spec := range []coscode.Spec{
		{N: 1, K: 1},
		{N: 3, K: 1},
		{N: 4, K: 2},
		{N: 4, K: 2, Hedge: true, HedgeDelay: 0.004},
	} {
		q := Query{Spec: spec}
		out, err := sys.Eval(context.Background(), ts, q)
		if err != nil {
			t.Fatal(err)
		}
		for i, x := range ts {
			want := mustOracle(t, sys, q, x)
			if d := math.Abs(out[0][i] - want); d > 1e-12 {
				t.Errorf("spec %+v at t=%g: batch %v, scalar %v (|Δ| = %g)", spec, x, out[0][i], want, d)
			}
		}
	}
}

func TestCodedCDFBatchRejectsBadSpec(t *testing.T) {
	sys := buildHeteroSystem(t, 1, Options{})
	if _, err := sys.Eval(context.Background(), []float64{0.01}, codedQ(2, 5)); err == nil {
		t.Fatal("k > n spec must be rejected")
	}
}

func TestCDFBatchCancelledContext(t *testing.T) {
	sys := buildHeteroSystem(t, 4, Options{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sys.Eval(ctx, batchGrid()); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled batch: err = %v, want context.Canceled", err)
	}
	if _, err := sys.Eval(ctx, batchGrid(), codedQ(3, 1)); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled coded batch: err = %v, want context.Canceled", err)
	}
}

func TestCDFBatchOpaqueInverterFallback(t *testing.T) {
	opts := Options{
		Inverter:  opaqueInverter{numeric.NewEuler()},
		Fallbacks: []numeric.Inverter{},
	}
	if _, ok := opts.Inverter.(numeric.NodeInverter); ok {
		t.Fatal("fixture error: opaqueInverter must not expose nodes")
	}
	sys := buildHeteroSystem(t, 3, opts)
	ts := batchGrid()
	out, err := sys.Eval(context.Background(), ts)
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range ts {
		want, err := sys.mixtureCDF(context.Background(), x, modeFull)
		if err != nil {
			t.Fatal(err)
		}
		if out[0][i] != want {
			t.Errorf("opaque Eval(%g) = %v, scalar %v", x, out[0][i], want)
		}
	}
}

// TestCDFBatchSteadyStateAllocs pins the scratch-arena reuse: once the
// pooled arena has grown, a batched evaluation allocates only its output
// slices and a handful of fixed-size descriptors — not per-node or
// per-group scratch.
func TestCDFBatchSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector; alloc counts are not meaningful")
	}
	sys := buildHeteroSystem(t, 2, Options{Workers: 1})
	ts := batchGrid()
	ctx := context.Background()
	sys.Eval(ctx, ts) //nolint:errcheck // warms the arena pool
	allocs := testing.AllocsPerRun(50, func() {
		sys.Eval(ctx, ts) //nolint:errcheck // allocation count only
	})
	// Output slices, query and mode descriptors, context plumbing: ~8
	// fixed allocations; the concatenated node/weight/sum buffers must all
	// come from the arena.
	if allocs > 12 {
		t.Errorf("steady-state Eval allocates %v objects per run", allocs)
	}
}

// TestQuantileSeededMatchesUnseeded pins the warm-start contract: a seed
// near (or exactly at) the true quantile yields the same root as the
// cold-started search.
func TestQuantileSeededMatchesUnseeded(t *testing.T) {
	sys := buildHeteroSystem(t, 3, Options{})
	p := 0.95
	cold, err := sys.Quantile(context.Background(), Query{}, p, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []float64{cold, cold * 1.5, cold / 3, 0} {
		warm, err := sys.Quantile(context.Background(), Query{}, p, seed)
		if err != nil {
			t.Fatal(err)
		}
		if d := math.Abs(warm - cold); d > 1e-9*(1+cold) {
			t.Errorf("seed %g: quantile %v, cold %v (|Δ| = %g)", seed, warm, cold, d)
		}
	}
}

// TestQuantileStaircasePlateauTerminates is the stall regression: a CDF
// frozen on a plateau below p (scripted via sequenceInverter) used to let
// secant iterates collapse onto one endpoint; the safeguarded root finder
// must still terminate in bounded probes without a spurious error.
func TestQuantileStaircasePlateauTerminates(t *testing.T) {
	// First probe (bracket) sees 0.95 >= p; every later probe sees 0.5:
	// a flat plateau with the scripted root at the bracket's far end.
	calls := &atomic.Int64{}
	seq := sequenceInverter{calls: calls, vals: []float64{0.95, 0.5}}
	opts := Options{
		Inverter:  seq,
		Fallbacks: []numeric.Inverter{}, // keep the script in control
	}
	sys := buildSystem(t, 1, opts)
	q, err := sys.Quantile(context.Background(), Query{}, 0.9, 0)
	if err != nil {
		t.Fatalf("plateau quantile: %v", err)
	}
	if math.IsNaN(q) || q <= 0 {
		t.Errorf("plateau quantile = %v", q)
	}
	if n := calls.Load(); n > 250 {
		t.Errorf("plateau took %d probes; stall safeguard not engaging", n)
	}
}

package serve

import (
	"context"
	"math"
	"testing"

	"cosmodel/internal/core"
)

// TestPredictGridMatchesScalarEvaluate pins the batched /predict path
// against the scalar per-SLA cache path: the whole-grid evaluation must
// produce the same fractions the admission probes compute one SLA at a
// time over the same snapshot (both go through the deduplicated model
// build, so agreement is exact up to root-finder-free arithmetic noise).
func TestPredictGridMatchesScalarEvaluate(t *testing.T) {
	eng, err := NewEngine(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	ingestAll(t, eng, 50)
	preds, err := eng.Predict(nil)
	if err != nil {
		t.Fatal(err)
	}
	ms, key, err := eng.state.snapshotKeyed()
	if err != nil {
		t.Fatal(err)
	}
	for i, sla := range eng.cfg.SLAs {
		v, _, err := eng.evaluate(context.Background(), ms, key, core.Query{}, 1, []float64{sla})
		if err != nil {
			t.Fatal(err)
		}
		if d := math.Abs(preds[i].MeetRatio - v.ps[0]); d > 1e-12 {
			t.Errorf("sla %g: grid %v, scalar %v (|Δ| = %g)", sla, preds[i].MeetRatio, v.ps[0], d)
		}
	}
}

// TestPredictGridCaching pins the one-entry-per-grid contract: the first
// predict misses once, a repeat predict of the same SLA list is one hit,
// and a different SLA list is a separate entry.
func TestPredictGridCaching(t *testing.T) {
	eng, err := NewEngine(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	ingestAll(t, eng, 50)
	if _, err := eng.Predict(nil); err != nil {
		t.Fatal(err)
	}
	s0 := eng.cache.stats()
	if s0.Misses != 1 || s0.Hits != 0 {
		t.Fatalf("cold grid: %d misses, %d hits, want 1, 0", s0.Misses, s0.Hits)
	}
	again, err := eng.Predict(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range again {
		if !p.Cached {
			t.Errorf("repeat grid prediction not cached: %+v", p)
		}
	}
	s1 := eng.cache.stats()
	if s1.Misses != 1 || s1.Hits != 1 {
		t.Fatalf("warm grid: %d misses, %d hits, want 1, 1", s1.Misses, s1.Hits)
	}
	if _, err := eng.Predict([]float64{0.02, 0.07}); err != nil {
		t.Fatal(err)
	}
	if s2 := eng.cache.stats(); s2.Misses != 2 {
		t.Fatalf("different grid: %d misses, want 2", s2.Misses)
	}
}

// TestPredictCachedAllocs pins the warm-path allocation budget: a cached
// grid prediction is a memoized-snapshot lookup plus one cache hit, with
// no model build and no inversion.
func TestPredictCachedAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector; alloc counts are not meaningful")
	}
	eng, err := NewEngine(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	ingestAll(t, eng, 50)
	ctx := context.Background()
	if _, err := eng.PredictContext(ctx, core.Query{}, nil); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := eng.PredictContext(ctx, core.Query{}, nil); err != nil {
			t.Fatal(err)
		}
	})
	// Grid key build, context plumbing, output slice: fixed small cost.
	if allocs > 30 {
		t.Errorf("cached grid predict allocates %v objects per run", allocs)
	}
}

// TestAdviseValueSearchMatchesBoolean pins the margin-aware admission
// search against the boolean legacy search on the same engine state: both
// must land within the search tolerance of each other, and the advice must
// stay internally consistent.
func TestAdviseValueSearchMatchesBoolean(t *testing.T) {
	eng, err := NewEngine(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	ingestAll(t, eng, 50)
	const sla, target = 0.05, 0.9
	adv, err := eng.Advise(sla, target)
	if err != nil {
		t.Fatal(err)
	}
	if adv.MaxAdmissibleRate <= 0 {
		t.Fatalf("no admissible rate at a moderate load: %+v", adv)
	}
	ms, key, err := eng.state.snapshotKeyed()
	if err != nil {
		t.Fatal(err)
	}
	current := adv.CurrentRate
	meets := func(ctx context.Context, rate float64) (bool, error) {
		v, _, err := eng.evaluate(ctx, ms, key, core.Query{}, rate/current, []float64{sla})
		if err != nil {
			return false, err
		}
		return !v.saturated && v.ps[0] >= target, nil
	}
	boolean, err := core.MaxRateWhereContext(context.Background(), meets, current/64, current/200)
	if err != nil {
		t.Fatal(err)
	}
	// Both searches return an actually-probed admissible rate within tol
	// of the threshold; the probe quantization (cache keys round to 3
	// significant digits) adds at most ~0.5% of slop on top.
	tol := current/200 + 0.01*current
	if d := math.Abs(adv.MaxAdmissibleRate - boolean); d > tol {
		t.Errorf("value search %v vs boolean search %v (|Δ| = %g > %g)",
			adv.MaxAdmissibleRate, boolean, d, tol)
	}
}

package serve

import (
	"context"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"cosmodel/internal/core"
)

// testGrid builds the SLA grid of bounds the test knows are valid.
func testGrid(t *testing.T, slas ...float64) slaGrid {
	t.Helper()
	g, err := newSLAGrid(slas)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

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
	p, err := eng.state.snapshotKeyed()
	if err != nil {
		t.Fatal(err)
	}
	for i, sla := range eng.cfg.SLAs {
		v, _, err := eng.evaluate(context.Background(), p, core.Query{}, 1, testGrid(t, sla))
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
// no model build, no inversion and no evaluation timer.
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
	// The grid key, the memo key and the output slice.
	if allocs > 3 {
		t.Errorf("cached grid predict allocates %v objects per run, want ≤ 3", allocs)
	}
}

// discardWriter is a reusable http.ResponseWriter that drops the body, so
// an allocation count covers the handler alone.
type discardWriter struct {
	h      http.Header
	status int
	n      int
}

func (d *discardWriter) Header() http.Header         { return d.h }
func (d *discardWriter) WriteHeader(status int)      { d.status = status }
func (d *discardWriter) Write(b []byte) (int, error) { d.n += len(b); return len(b), nil }

// TestPredictHandlerCachedAllocs pins the allocation budget of a cached
// GET /predict with a write block through the whole route (middleware,
// parse, one snapshot, two cache hits, append encoding). The fixture
// carries PUT traffic so the write block is answerable, and the operating
// point never moves: every run must be exactly one cache hit per block.
func TestPredictHandlerCachedAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector; alloc counts are not meaningful")
	}
	s, err := NewServer(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	ingestMixed(t, s.Engine(), 50, 10)
	h := s.Handler()
	r := httptest.NewRequest(http.MethodGet, "/predict?sla=0.01,0.05,0.1&writeN=3&writeW=2", nil)
	w := &discardWriter{h: http.Header{}}
	h.ServeHTTP(w, r)
	if w.status != http.StatusOK || w.n == 0 {
		t.Fatalf("warm-up answered %d with %d bytes", w.status, w.n)
	}
	const runs = 100
	before := s.Engine().cache.stats()
	allocs := testing.AllocsPerRun(runs, func() { h.ServeHTTP(w, r) })
	after := s.Engine().cache.stats()
	// AllocsPerRun makes one warm-up call before the counted runs.
	const blocks = 2
	if hits, misses := after.Hits-before.Hits, after.Misses-before.Misses; hits != blocks*(runs+1) || misses != 0 {
		t.Fatalf("%d hits and %d misses over %d runs, want %d and 0: the fixture moved the operating point",
			hits, misses, runs+1, blocks*(runs+1))
	}
	// Query parsing, the request's grid and memo keys, the two prediction
	// slices and blocks, the Content-Type header value, and the route's own
	// bookkeeping.
	if allocs > 18 {
		t.Errorf("cached GET /predict with a write block allocates %v objects per run, want ≤ 18", allocs)
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
	p, err := eng.state.snapshotKeyed()
	if err != nil {
		t.Fatal(err)
	}
	current := adv.CurrentRate
	meets := func(ctx context.Context, rate float64) (bool, error) {
		v, _, err := eng.evaluate(ctx, p, core.Query{}, rate/current, testGrid(t, sla))
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

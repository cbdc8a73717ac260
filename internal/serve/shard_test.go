package serve

import (
	"context"
	"errors"
	"math"
	"testing"

	"cosmodel/internal/core"
)

// shardEngine builds an engine with each device at a distinct rate so the
// partial split cannot hide behind the identical-metrics dedup.
func shardEngine(t *testing.T) *Engine {
	t.Helper()
	eng, err := NewEngine(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]Observation, eng.Config().Devices)
	for d := range batch {
		batch[d] = obsAtRate(d, 40+10*float64(d))
	}
	if err := eng.Ingest(batch); err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestPartialMergeMatchesFullPredict is the cluster tier's correctness
// foundation: evaluating the device mixture as two disjoint shard slices
// under the shared global frontend rate and merging Σ weightedSums / Σ rates
// reproduces the single-engine prediction exactly (mixture linearity,
// Eq. 3).
func TestPartialMergeMatchesFullPredict(t *testing.T) {
	eng := shardEngine(t)
	full, err := eng.Predict(nil)
	if err != nil {
		t.Fatal(err)
	}
	totalRate := eng.Stats().TotalRate
	ctx := context.Background()
	a, err := eng.PartialPredictContext(ctx, PartialRequest{
		Devices: []int{0, 1}, TotalRate: totalRate})
	if err != nil {
		t.Fatal(err)
	}
	b, err := eng.PartialPredictContext(ctx, PartialRequest{
		Devices: []int{2, 3}, TotalRate: totalRate})
	if err != nil {
		t.Fatal(err)
	}
	if a.Covered != 2 || b.Covered != 2 {
		t.Fatalf("covered %d/%d, want 2/2", a.Covered, b.Covered)
	}
	if rel := math.Abs(a.Rate+b.Rate-totalRate) / totalRate; rel > 1e-9 {
		t.Errorf("partial rates sum to %v, engine total %v", a.Rate+b.Rate, totalRate)
	}
	for i, p := range full {
		merged := (a.WeightedSums[i] + b.WeightedSums[i]) / (a.Rate + b.Rate)
		if math.Abs(merged-p.MeetRatio) > 1e-9 {
			t.Errorf("sla %v: merged %v, full %v", p.SLA, merged, p.MeetRatio)
		}
	}
}

// TestPartialPredictFactorScalesLikeAdviseProbe: a factor-scaled partial
// matches the scalar evaluate path used by admission bisection.
func TestPartialPredictFactorScalesLikeAdviseProbe(t *testing.T) {
	eng := shardEngine(t)
	totalRate := eng.Stats().TotalRate
	const factor = 1.5
	ctx := context.Background()
	a, err := eng.PartialPredictContext(ctx, PartialRequest{
		Devices: []int{0, 1}, TotalRate: totalRate, Factor: factor})
	if err != nil {
		t.Fatal(err)
	}
	b, err := eng.PartialPredictContext(ctx, PartialRequest{
		Devices: []int{2, 3}, TotalRate: totalRate, Factor: factor})
	if err != nil {
		t.Fatal(err)
	}
	p, err := eng.state.snapshotKeyed()
	if err != nil {
		t.Fatal(err)
	}
	for _, sla := range eng.Config().SLAs {
		v, _, err := eng.evaluate(ctx, p, core.Query{}, factor, testGrid(t, sla))
		if err != nil {
			t.Fatal(err)
		}
		merged := 0.0
		if !a.Saturated && !b.Saturated {
			merged = (a.WeightedSums[slaIndex(t, eng, sla)] + b.WeightedSums[slaIndex(t, eng, sla)]) / (a.Rate + b.Rate)
		}
		if v.saturated != (a.Saturated || b.Saturated) {
			t.Fatalf("sla %v: saturation disagrees (scalar %v, partial %v/%v)",
				sla, v.saturated, a.Saturated, b.Saturated)
		}
		if !v.saturated && math.Abs(merged-v.ps[0]) > 1e-9 {
			t.Errorf("sla %v at factor %v: merged %v, scalar %v", sla, factor, merged, v.ps[0])
		}
	}
}

func slaIndex(t *testing.T, eng *Engine, sla float64) int {
	t.Helper()
	for i, s := range eng.Config().SLAs {
		if s == sla {
			return i
		}
	}
	t.Fatalf("sla %v not configured", sla)
	return -1
}

// TestPartialPredictEmptyCoverage: a shard with no observations for its
// devices returns a legitimate zero-weight slice, never ErrNotReady.
func TestPartialPredictEmptyCoverage(t *testing.T) {
	eng, err := NewEngine(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	resp, err := eng.PartialPredictContext(context.Background(), PartialRequest{
		Devices: []int{0, 1}, TotalRate: 100})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Covered != 0 || resp.Rate != 0 || resp.Saturated {
		t.Fatalf("empty shard slice: %+v", resp)
	}
	for _, s := range resp.WeightedSums {
		if s != 0 {
			t.Fatalf("empty slice contributed weight: %+v", resp)
		}
	}
}

// TestPartialPredictValidation covers the bad-query taxonomy.
func TestPartialPredictValidation(t *testing.T) {
	eng := shardEngine(t)
	ctx := context.Background()
	cases := []PartialRequest{
		{Devices: []int{0}, TotalRate: 0},
		{Devices: []int{0}, TotalRate: math.Inf(1)},
		{Devices: []int{0}, TotalRate: 100, Factor: -1},
		{Devices: []int{0}, TotalRate: 100, SLAs: []float64{-1}},
		{Devices: nil, TotalRate: 100},
		{Devices: []int{99}, TotalRate: 100},
	}
	for i, req := range cases {
		if _, err := eng.PartialPredictContext(ctx, req); !errors.Is(err, ErrBadQuery) {
			t.Errorf("case %d (%+v): err = %v, want ErrBadQuery", i, req, err)
		}
	}
}

// TestSyncGenerationConverges: invalidateTo takes the max, so gossip from
// multiple routers converges instead of ping-ponging, and a local
// recalibration is never undone by a stale sync.
func TestSyncGenerationConverges(t *testing.T) {
	eng := shardEngine(t)
	if g := eng.CacheGeneration(); g != 0 {
		t.Fatalf("fresh generation %d", g)
	}
	eng.SyncGeneration(5)
	if g := eng.CacheGeneration(); g != 5 {
		t.Fatalf("after sync to 5: %d", g)
	}
	eng.SyncGeneration(3) // stale gossip must not regress
	if g := eng.CacheGeneration(); g != 5 {
		t.Fatalf("stale sync regressed generation to %d", g)
	}
	eng.InvalidateCache()
	if g := eng.CacheGeneration(); g != 6 {
		t.Fatalf("local invalidate: %d", g)
	}
}

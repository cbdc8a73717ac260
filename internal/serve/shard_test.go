package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
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
		{Devices: []int{0, 0}, TotalRate: 100},
		{Devices: []int{1, 2, 1}, TotalRate: 100},
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

// shardServer serves shardEngine's state in shard mode.
func shardServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	cfg := testConfig()
	cfg.ShardMode = true
	s, ts := newTestServer(t, cfg)
	batch := make([]Observation, cfg.Devices)
	for d := range batch {
		batch[d] = obsAtRate(d, 40+10*float64(d))
	}
	if err := s.Engine().Ingest(batch); err != nil {
		t.Fatal(err)
	}
	return s, ts
}

// TestShardPartialGETMatchesPOST: the router's GET form and the strict
// POST body answer the same bytes, and those bytes are encoding/json's
// encoding of the engine's answer.
func TestShardPartialGETMatchesPOST(t *testing.T) {
	s, ts := shardServer(t)
	req := PartialRequest{Devices: []int{2, 0}, SLAs: []float64{0.01, 0.05}, TotalRate: 250, Factor: 1.25}
	resp, err := http.Get(ts.URL + "/shard/partial?" + string(AppendPartialQuery(nil, req)))
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET status %d: %s", resp.StatusCode, got)
	}
	presp, posted := postJSON(t, ts.URL+"/shard/partial", req)
	if presp.StatusCode != http.StatusOK {
		t.Fatalf("POST status %d: %s", presp.StatusCode, posted)
	}
	if !bytes.Equal(got, posted) {
		t.Fatalf("GET answered %s, POST %s", got, posted)
	}
	want, err := s.Engine().PartialPredictContext(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	wantBytes, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, append(wantBytes, '\n')) {
		t.Fatalf("served %s, encoding/json %s", got, wantBytes)
	}
}

// TestShardPartialRejectsRepeatedDevices: a device listed twice would
// enter the merged mixture with double weight, so both wire forms refuse
// it with 400.
func TestShardPartialRejectsRepeatedDevices(t *testing.T) {
	_, ts := shardServer(t)
	req := PartialRequest{Devices: []int{0, 0}, TotalRate: 250}
	resp, err := http.Get(ts.URL + "/shard/partial?" + string(AppendPartialQuery(nil, req)))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("GET devices=0,0: status %d (%s), want 400", resp.StatusCode, body)
	}
	if presp, body := postJSON(t, ts.URL+"/shard/partial", req); presp.StatusCode != http.StatusBadRequest {
		t.Errorf("POST devices [0,0]: status %d (%s), want 400", presp.StatusCode, body)
	}
}

// TestPartialQueryRoundTrip: a query built by AppendPartialQuery and read
// back through the shard's GET path yields the same request, floats bit
// for bit.
func TestPartialQueryRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	float := func() float64 {
		switch rng.Intn(3) {
		case 0:
			return edgeFloats[rng.Intn(len(edgeFloats))]
		case 1:
			return rng.ExpFloat64() * math.Pow(10, float64(rng.Intn(60)-30))
		default:
			return rng.Float64()
		}
	}
	cases := []PartialRequest{
		{Devices: []int{0}, TotalRate: 1e21, Factor: 1},
		{Devices: []int{3, -1}, SLAs: []float64{5e-324, 1e-7}, TotalRate: math.Inf(1), Factor: 0},
		{Devices: []int{}, SLAs: []float64{math.MaxFloat64}, TotalRate: -2.5e-300, Factor: math.Copysign(0, -1)},
	}
	for i := 0; i < 500; i++ {
		req := PartialRequest{TotalRate: float(), Factor: float()}
		for n := rng.Intn(6); n > 0; n-- {
			req.Devices = append(req.Devices, rng.Intn(1000))
		}
		for n := rng.Intn(5); n > 0; n-- {
			req.SLAs = append(req.SLAs, float())
		}
		cases = append(cases, req)
	}
	bits := func(fs ...float64) []uint64 {
		out := make([]uint64, len(fs))
		for i, f := range fs {
			out[i] = math.Float64bits(f)
		}
		return out
	}
	for _, want := range cases {
		q := string(AppendPartialQuery(nil, want))
		r := httptest.NewRequest(http.MethodGet, "/shard/partial?"+q, nil)
		got, err := parsePartial(httptest.NewRecorder(), r)
		if err != nil {
			t.Fatalf("%q: %v", q, err)
		}
		if len(got.Devices) != len(want.Devices) || (len(want.Devices) > 0 && !reflect.DeepEqual(got.Devices, want.Devices)) {
			t.Errorf("%q: devices %v, want %v", q, got.Devices, want.Devices)
		}
		if g, w := bits(append(got.SLAs, got.TotalRate, got.Factor)...), bits(append(want.SLAs, want.TotalRate, want.Factor)...); !reflect.DeepEqual(g, w) {
			t.Errorf("%q: floats %v, want %v", q, append(got.SLAs, got.TotalRate, got.Factor), append(want.SLAs, want.TotalRate, want.Factor))
		}
	}
}

// TestPartialPredictCachedAllocs pins the allocation budget of a cached
// shard partial: a memoized subset snapshot, no per-device formatting, one
// cache hit.
func TestPartialPredictCachedAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector; alloc counts are not meaningful")
	}
	eng := shardEngine(t)
	req := PartialRequest{Devices: []int{0, 2}, SLAs: []float64{0.01, 0.05, 0.1}, TotalRate: 250, Factor: 1}
	ctx := context.Background()
	if _, err := eng.PartialPredictContext(ctx, req); err != nil {
		t.Fatal(err)
	}
	before := eng.cache.stats()
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := eng.PartialPredictContext(ctx, req); err != nil {
			t.Fatal(err)
		}
	})
	if after := eng.cache.stats(); after.Misses != before.Misses {
		t.Fatalf("%d cache misses during the runs: the fixture moved the operating point", after.Misses-before.Misses)
	}
	// The grid key, the feRate-qualified operating-point key and the memo
	// key.
	if allocs > 3 {
		t.Errorf("cached partial allocates %v objects per run, want ≤ 3", allocs)
	}
}

package cluster

import (
	"context"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"cosmodel/internal/serve"
)

// TestRateTrackerSeed pins the seeding contract: only positive finite rates
// install a synthetic window, and live data always wins.
func TestRateTrackerSeed(t *testing.T) {
	rt := newRateTracker(2, 60)
	for _, bad := range []float64{0, -3, math.NaN(), math.Inf(1)} {
		if rt.seed(0, bad, 0) {
			t.Fatalf("seed accepted rate %v", bad)
		}
	}
	if !rt.seed(0, 40, 0) {
		t.Fatal("seed rejected a valid rate")
	}
	if got := rt.rate(0); math.Abs(got-40) > 1e-9 {
		t.Fatalf("seeded rate = %v, want 40", got)
	}
	// A device already holding forwarded observations must be untouched.
	rt.add(obsAtRate(1, 80))
	if rt.seed(1, 5, 0) {
		t.Fatal("seed overwrote live data")
	}
	if got := rt.rate(1); math.Abs(got-80) > 1e-9 {
		t.Fatalf("live rate = %v, want 80", got)
	}
	// Re-seeding a seeded device is also a no-op (the synthetic entry
	// counts as span until it ages out).
	if rt.seed(0, 999, 0) {
		t.Fatal("seed overwrote an earlier seed")
	}
}

// TestRouterWarmupSeedsRestart simulates a router restart: shards hold a
// full window of dual-written state, a fresh router over the same nodes
// knows nothing — /predict says not-ready and healthz reports no ingest —
// and one WarmupOnce round rebuilds the tracker from /shard/state so the
// restarted router serves identical predictions without waiting a window.
func TestRouterWarmupSeedsRestart(t *testing.T) {
	const devices = 4
	tr := newTier(t, 3, devices)
	ingestTier(t, tr, devices)

	var want PredictResponse
	if code := getJSON(t, tr.routerSrv.URL+"/predict", &want); code != http.StatusOK {
		t.Fatalf("predict through original router: status %d", code)
	}
	wantRate := tr.router.rates.totalRate()
	if wantRate <= 0 {
		t.Fatal("original router has no tracked rate")
	}

	// "Restart": a second router over the same shard URLs, empty tracker.
	restarted, err := NewRouter(tr.router.cfg)
	if err != nil {
		t.Fatal(err)
	}
	rs := httptest.NewServer(restarted.Handler())
	defer rs.Close()

	if got := restarted.rates.totalRate(); got != 0 {
		t.Fatalf("fresh router totalRate = %v, want 0", got)
	}
	if code := getJSON(t, rs.URL+"/predict", nil); code != http.StatusConflict {
		t.Fatalf("cold predict status %d, want 409", code)
	}
	var h serve.HealthResponse
	if code := getJSON(t, rs.URL+"/healthz", &h); code != http.StatusOK {
		t.Fatalf("healthz status %d", code)
	}
	if h.Ready {
		t.Fatal("cold restarted router claims ready")
	}

	if seeded := restarted.WarmupOnce(context.Background()); seeded != devices {
		t.Fatalf("warmup seeded %d devices, want %d", seeded, devices)
	}
	// Warm again: a fully warm tracker is a no-op.
	if seeded := restarted.WarmupOnce(context.Background()); seeded != 0 {
		t.Fatalf("second warmup seeded %d devices, want 0", seeded)
	}
	got := restarted.rates.totalRate()
	// Shards quantize rates over their own window, so allow 1%.
	if math.Abs(got-wantRate) > 0.01*wantRate {
		t.Fatalf("warmed totalRate = %v, want ~%v", got, wantRate)
	}

	if code := getJSON(t, rs.URL+"/healthz", &h); code != http.StatusOK {
		t.Fatalf("healthz status %d", code)
	}
	if !h.Ready {
		t.Fatalf("warmed router not ready: %+v", h)
	}
	var resp PredictResponse
	if code := getJSON(t, rs.URL+"/predict", &resp); code != http.StatusOK {
		t.Fatalf("warmed predict status %d", code)
	}
	if len(resp.Predictions) != len(want.Predictions) {
		t.Fatalf("got %d predictions, want %d", len(resp.Predictions), len(want.Predictions))
	}
	for i, p := range resp.Predictions {
		// The seeded rate differs from the live one only by window
		// quantization, so the merged curve should match closely.
		if math.Abs(p.MeetRatio-want.Predictions[i].MeetRatio) > 1e-3 {
			t.Errorf("sla %v: warmed %v, original %v",
				p.SLA, p.MeetRatio, want.Predictions[i].MeetRatio)
		}
	}
}

// TestRouterWarmupSeedsWrites: the warm start carries each device's PUT
// rate too, so a restarted router builds shard frontends at the same
// read+write rate as the router that saw the traffic.
func TestRouterWarmupSeedsWrites(t *testing.T) {
	const devices = 4
	tr := newTier(t, 3, devices)
	batch := ingestBatch(devices)
	for d := range batch {
		batch[d].Writes = batch[d].Requests / 10
		batch[d].WriteChunks = batch[d].Writes
	}
	if code := postJSON(t, tr.routerSrv.URL+"/ingest", serve.IngestRequest{Observations: batch}, nil); code != http.StatusOK {
		t.Fatalf("ingest status %d", code)
	}
	wantReads, wantFE := tr.router.rates.totals()
	if !(wantFE > wantReads) {
		t.Fatalf("original router tracks no writes: reads %v, frontend %v", wantReads, wantFE)
	}
	restarted, err := NewRouter(tr.router.cfg)
	if err != nil {
		t.Fatal(err)
	}
	if seeded := restarted.WarmupOnce(context.Background()); seeded != devices {
		t.Fatalf("warmup seeded %d devices, want %d", seeded, devices)
	}
	gotReads, gotFE := restarted.rates.totals()
	// Shards quantize rates over their own window, so allow 1%.
	if math.Abs(gotReads-wantReads) > 0.01*wantReads || math.Abs(gotFE-wantFE) > 0.01*wantFE {
		t.Fatalf("warmed rates (%v, %v), want ~(%v, %v)", gotReads, gotFE, wantReads, wantFE)
	}
}

// TestRouterWarmupLiveDataWins: observations forwarded before the warmup
// answer arrives take precedence — only the still-silent devices are seeded.
func TestRouterWarmupLiveDataWins(t *testing.T) {
	const devices = 4
	tr := newTier(t, 2, devices)
	ingestTier(t, tr, devices)

	restarted, err := NewRouter(tr.router.cfg)
	if err != nil {
		t.Fatal(err)
	}
	rs := httptest.NewServer(restarted.Handler())
	defer rs.Close()

	// Device 0 reports through the restarted router before warmup runs,
	// at a rate very different from what the shards remember.
	live := obsAtRate(0, 500)
	if code := postJSON(t, rs.URL+"/ingest",
		serve.IngestRequest{Observations: []serve.Observation{live}}, nil); code != http.StatusOK {
		t.Fatalf("live ingest status %d", code)
	}
	if seeded := restarted.WarmupOnce(context.Background()); seeded != devices-1 {
		t.Fatalf("warmup seeded %d devices, want %d", seeded, devices-1)
	}
	if got := restarted.rates.rate(0); math.Abs(got-500) > 1e-9 {
		t.Fatalf("device 0 rate = %v, want the live 500", got)
	}
}

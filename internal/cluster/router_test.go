package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"cosmodel/internal/core"
	"cosmodel/internal/dist"
	"cosmodel/internal/retry"
	"cosmodel/internal/serve"
)

func testProps() core.DeviceProperties {
	return core.DeviceProperties{
		IndexDisk: dist.NewGammaMeanSCV(9e-3, 0.45),
		MetaDisk:  dist.NewGammaMeanSCV(6e-3, 0.50),
		DataDisk:  dist.NewGammaMeanSCV(8e-3, 0.40),
		ParseFE:   dist.Degenerate{Value: 0.3e-3},
		ParseBE:   dist.Degenerate{Value: 0.5e-3},
	}
}

// gate sits in front of a shard and simulates a crashed process: when down
// it hijacks the connection and slams it shut, so the router sees the same
// connection-reset a killed shard would produce. Flipping it back up is an
// in-place recovery — no restart, exactly what the rejoin path must handle.
type gate struct {
	mu    sync.Mutex
	down  bool
	delay time.Duration
	next  http.Handler
}

func (g *gate) set(down bool) {
	g.mu.Lock()
	g.down = down
	g.mu.Unlock()
}

func (g *gate) setDelay(d time.Duration) {
	g.mu.Lock()
	g.delay = d
	g.mu.Unlock()
}

// setNext swaps the backing shard — a process restart: same address, fresh
// (empty) state behind it.
func (g *gate) setNext(h http.Handler) {
	g.mu.Lock()
	g.next = h
	g.mu.Unlock()
}

func (g *gate) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	g.mu.Lock()
	down, delay, next := g.down, g.delay, g.next
	g.mu.Unlock()
	if down {
		if hj, ok := w.(http.Hijacker); ok {
			if conn, _, err := hj.Hijack(); err == nil {
				conn.Close()
				return
			}
		}
		panic(http.ErrAbortHandler)
	}
	if delay > 0 {
		time.Sleep(delay)
	}
	next.ServeHTTP(w, r)
}

// tier is a full in-process cluster: gated shard-mode serve instances plus
// a router in front.
type tier struct {
	router    *Router
	routerSrv *httptest.Server
	shards    []*serve.Server
	gates     []*gate
}

func newTier(t *testing.T, nodes, devices int) *tier {
	return newTierCfg(t, nodes, devices,
		func() serve.Config { return serve.DefaultConfig(testProps(), devices) }, nil)
}

// newTierCfg builds a tier with a caller-supplied shard configuration and an
// optional router-config mutation.
func newTierCfg(t *testing.T, nodes, devices int, mkShard func() serve.Config, mutate func(*Config)) *tier {
	t.Helper()
	tr := &tier{}
	urls := make([]string, nodes)
	for i := 0; i < nodes; i++ {
		cfg := mkShard()
		cfg.ShardMode = true
		cfg.Logf = t.Logf
		srv, err := serve.NewServer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		g := &gate{next: srv.Handler()}
		hs := httptest.NewServer(g)
		t.Cleanup(hs.Close)
		tr.shards = append(tr.shards, srv)
		tr.gates = append(tr.gates, g)
		urls[i] = hs.URL
	}
	cfg := DefaultConfig(urls, devices)
	cfg.Partitions = 16
	cfg.ProbeInterval = 0 // tests drive ProbeOnce explicitly
	cfg.FailThreshold = 1
	cfg.HedgeDelay = 20 * time.Millisecond
	cfg.Retry = retry.Policy{MaxAttempts: 2, BaseDelay: time.Millisecond,
		MaxDelay: 5 * time.Millisecond, Multiplier: 2}
	cfg.Logf = t.Logf
	if mutate != nil {
		mutate(&cfg)
	}
	router, err := NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr.router = router
	tr.routerSrv = httptest.NewServer(router.Handler())
	t.Cleanup(tr.routerSrv.Close)
	return tr
}

func obsAtRate(device int, rate float64) serve.Observation {
	const interval = 10.0
	reqs := uint64(rate * interval)
	return serve.Observation{
		Device:      device,
		Interval:    interval,
		Requests:    reqs,
		DataReads:   uint64(float64(reqs) * 1.2),
		IndexHits:   700,
		IndexMisses: 300,
		MetaHits:    650,
		MetaMisses:  350,
		DataHits:    500,
		DataMisses:  500,
	}
}

func ingestBatch(devices int) []serve.Observation {
	batch := make([]serve.Observation, devices)
	for d := range batch {
		batch[d] = obsAtRate(d, 40+10*float64(d))
	}
	return batch
}

func postJSON(t *testing.T, url string, body, out any) int {
	t.Helper()
	payload, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	} else {
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
	}
	return resp.StatusCode
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	} else {
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
	}
	return resp.StatusCode
}

func ingestTier(t *testing.T, tr *tier, devices int) {
	t.Helper()
	if code := postJSON(t, tr.routerSrv.URL+"/ingest",
		serve.IngestRequest{Observations: ingestBatch(devices)}, nil); code != http.StatusOK {
		t.Fatalf("ingest status %d", code)
	}
}

// TestRouterPredictMatchesSingleEngine: the merged cluster prediction is
// identical (to float rounding) to one engine holding every device — the
// sharding is invisible when healthy, with and without PUT traffic in the
// window (the shards' frontend must carry the writes a single engine's
// does).
func TestRouterPredictMatchesSingleEngine(t *testing.T) {
	const devices = 4
	withWrites := ingestBatch(devices)
	for d := range withWrites {
		withWrites[d].Writes = withWrites[d].Requests / 10
		withWrites[d].WriteChunks = withWrites[d].Writes
	}
	for name, batch := range map[string][]serve.Observation{
		"reads":  ingestBatch(devices),
		"writes": withWrites,
	} {
		t.Run(name, func(t *testing.T) {
			tr := newTier(t, 3, devices)
			if code := postJSON(t, tr.routerSrv.URL+"/ingest", serve.IngestRequest{Observations: batch}, nil); code != http.StatusOK {
				t.Fatalf("ingest status %d", code)
			}
			ref, err := serve.NewEngine(serve.DefaultConfig(testProps(), devices))
			if err != nil {
				t.Fatal(err)
			}
			if err := ref.Ingest(batch); err != nil {
				t.Fatal(err)
			}
			want, err := ref.Predict(nil)
			if err != nil {
				t.Fatal(err)
			}

			var got PredictResponse
			if code := getJSON(t, tr.routerSrv.URL+"/predict", &got); code != http.StatusOK {
				t.Fatalf("predict status %d", code)
			}
			if got.Degraded || len(got.LostDevices) != 0 {
				t.Fatalf("healthy tier answered degraded: %+v", got)
			}
			if len(got.Predictions) != len(want) {
				t.Fatalf("got %d predictions, want %d", len(got.Predictions), len(want))
			}
			for i, p := range got.Predictions {
				if math.Abs(p.MeetRatio-want[i].MeetRatio) > 1e-9 {
					t.Errorf("sla %v: cluster %v, single engine %v", p.SLA, p.MeetRatio, want[i].MeetRatio)
				}
				if p.Low != p.MeetRatio || p.High != p.MeetRatio {
					t.Errorf("healthy bounds must collapse: %+v", p)
				}
			}
		})
	}
}

// TestRouterSaturatedAnswersZero: a tier with an overloaded device answers
// like a single engine — the target will not be met at all — instead of
// renormalizing over the slices that still have a steady state.
func TestRouterSaturatedAnswersZero(t *testing.T) {
	const devices = 4
	tr := newTier(t, 3, devices)
	batch := ingestBatch(devices)
	batch[0] = obsAtRate(0, 5000)
	if code := postJSON(t, tr.routerSrv.URL+"/ingest", serve.IngestRequest{Observations: batch}, nil); code != http.StatusOK {
		t.Fatalf("ingest status %d", code)
	}
	ref, err := serve.NewEngine(serve.DefaultConfig(testProps(), devices))
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Ingest(batch); err != nil {
		t.Fatal(err)
	}
	want, err := ref.Predict(nil)
	if err != nil {
		t.Fatal(err)
	}
	var got PredictResponse
	if code := getJSON(t, tr.routerSrv.URL+"/predict", &got); code != http.StatusOK {
		t.Fatalf("predict status %d", code)
	}
	if !got.Saturated {
		t.Fatalf("overloaded tier not flagged saturated: %+v", got)
	}
	for i, p := range got.Predictions {
		if !want[i].Saturated || want[i].MeetRatio != 0 {
			t.Fatalf("fixture error: single engine answered %+v", want[i])
		}
		if p.MeetRatio != 0 || p.Low != 0 || p.High != 0 || !p.Saturated {
			t.Errorf("sla %v: saturated tier answered %+v, want 0 like the single engine", p.SLA, p)
		}
	}
	var adv AdviceResponse
	if code := getJSON(t, tr.routerSrv.URL+"/advise?sla=0.05&target=0.9", &adv); code != http.StatusOK {
		t.Fatalf("advise status %d", code)
	}
	if !adv.Saturated || adv.CurrentMeetRatio != 0 || adv.Admit {
		t.Errorf("saturated tier advice %+v, want saturated with meet ratio 0", adv)
	}
}

// TestRouterSurvivesShardLoss is the tentpole: kill a shard node mid-run
// and the router keeps serving /predict from the warm standby — the answers
// are IDENTICAL (the standby was dual-written), flagged degraded, and the
// node rejoins after recovery without any restart.
func TestRouterSurvivesShardLoss(t *testing.T) {
	const devices = 4
	tr := newTier(t, 3, devices)
	ingestTier(t, tr, devices)

	var baseline PredictResponse
	if code := getJSON(t, tr.routerSrv.URL+"/predict", &baseline); code != http.StatusOK {
		t.Fatalf("baseline predict status %d", code)
	}

	tr.gates[0].set(true) // kill node 0

	var degraded PredictResponse
	if code := getJSON(t, tr.routerSrv.URL+"/predict", &degraded); code != http.StatusOK {
		t.Fatalf("predict with a dead shard: status %d", code)
	}
	if !degraded.Degraded {
		t.Error("response with a dead shard not flagged degraded")
	}
	if len(degraded.LostDevices) != 0 {
		t.Errorf("replicas=2 with one node down lost devices %v", degraded.LostDevices)
	}
	for i, p := range degraded.Predictions {
		if math.Abs(p.MeetRatio-baseline.Predictions[i].MeetRatio) > 1e-9 {
			t.Errorf("sla %v: standby answered %v, baseline %v — the dual-written standby must hold identical state",
				p.SLA, p.MeetRatio, baseline.Predictions[i].MeetRatio)
		}
	}
	if v := tr.router.failovers.Value(); v == 0 {
		t.Error("no failover counted despite a dead preferred replica")
	}

	// Recovery: flip the gate back up, re-probe, and the tier is healthy
	// again — no restart, no state transfer.
	tr.gates[0].set(false)
	tr.router.ProbeOnce(context.Background())
	var recovered PredictResponse
	if code := getJSON(t, tr.routerSrv.URL+"/predict", &recovered); code != http.StatusOK {
		t.Fatalf("predict after recovery: status %d", code)
	}
	if recovered.Degraded {
		t.Error("recovered tier still answers degraded")
	}
}

// TestRouterLostDevicesWidenBounds: when a device's whole replica chain is
// down the router still answers from the survivors, renormalized, with the
// lost devices named and the confidence bracket widened over their rate.
func TestRouterLostDevicesWidenBounds(t *testing.T) {
	const devices = 8
	tr := newTier(t, 3, devices)
	// Devices 4..7 repeat the rates of devices 0..3: ingestBatch's ramp
	// puts them at 80..110 req/s, where a device saturates and the whole
	// tier answers 0 with collapsed bounds.
	batch := ingestBatch(devices)
	for d := range batch {
		batch[d] = obsAtRate(d, 40+10*float64(d%4))
	}
	if code := postJSON(t, tr.routerSrv.URL+"/ingest", serve.IngestRequest{Observations: batch}, nil); code != http.StatusOK {
		t.Fatalf("ingest status %d", code)
	}

	// Kill both replicas of device 0's chain: device 0 is unreachable.
	for _, n := range tr.router.topo.ChainFor(0) {
		tr.gates[n].set(true)
	}
	var resp PredictResponse
	if code := getJSON(t, tr.routerSrv.URL+"/predict", &resp); code != http.StatusOK {
		t.Fatalf("predict with a lost device: status %d", code)
	}
	if !resp.Degraded {
		t.Error("lost device not flagged degraded")
	}
	found := false
	for _, d := range resp.LostDevices {
		if d == 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("device 0 not reported lost: %v", resp.LostDevices)
	}
	if !(resp.LiveRate < resp.TotalRate) {
		t.Errorf("live rate %v not below total %v despite losses", resp.LiveRate, resp.TotalRate)
	}
	for _, p := range resp.Predictions {
		if !(p.Low < p.High) {
			t.Errorf("sla %v: bounds [%v,%v] did not widen over the lost rate", p.SLA, p.Low, p.High)
		}
		if p.MeetRatio < p.Low-1e-12 || p.MeetRatio > p.High+1e-12 {
			t.Errorf("sla %v: estimate %v outside [%v,%v]", p.SLA, p.MeetRatio, p.Low, p.High)
		}
	}
}

// TestRouterNoQuorum: every shard down answers 503 with Retry-After, not a
// hang or a 500.
func TestRouterNoQuorum(t *testing.T) {
	const devices = 4
	tr := newTier(t, 3, devices)
	ingestTier(t, tr, devices)
	for _, g := range tr.gates {
		g.set(true)
	}
	resp, err := http.Get(tr.routerSrv.URL + "/predict")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("all shards down: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}
}

// TestRouterIngestRejectedWhenChainDown: an observation whose whole chain
// is unreachable must fail loudly (502), not vanish.
func TestRouterIngestRejectedWhenChainDown(t *testing.T) {
	const devices = 4
	tr := newTier(t, 3, devices)
	for _, g := range tr.gates {
		g.set(true)
	}
	code := postJSON(t, tr.routerSrv.URL+"/ingest",
		serve.IngestRequest{Observations: ingestBatch(devices)}, nil)
	if code != http.StatusBadGateway {
		t.Fatalf("ingest with all shards down: status %d, want 502", code)
	}
}

// TestRouterRejectsCoded: the order-statistic coded CDF does not decompose
// across shards; the router must refuse rather than merge wrongly.
func TestRouterRejectsCoded(t *testing.T) {
	const devices = 4
	tr := newTier(t, 3, devices)
	ingestTier(t, tr, devices)
	if code := getJSON(t, tr.routerSrv.URL+"/predict?codedN=6&codedK=4", nil); code != http.StatusBadRequest {
		t.Errorf("GET coded predict: status %d, want 400", code)
	}
	code := postJSON(t, tr.routerSrv.URL+"/predict",
		serve.PredictRequest{Coded: &serve.CodedReadSpec{N: 6, K: 4}}, nil)
	if code != http.StatusBadRequest {
		t.Errorf("POST coded predict: status %d, want 400", code)
	}
	if code := getJSON(t, tr.routerSrv.URL+"/advise?sla=0.05&target=0.9&codedN=6&codedK=4", nil); code != http.StatusBadRequest {
		t.Errorf("GET coded advise: status %d, want 400", code)
	}
	// Quorum writes are order statistics too, and tenant state lives on
	// the shards: every query but a plain read is refused.
	for _, path := range []string{
		"/predict?writeN=3&writeW=2&tenant=gold",
		"/predict?writeN=3&writeW=2",
		"/predict?tenant=gold",
		"/advise?sla=0.05&target=0.9&tenants=gold:3,bronze:1",
		"/advise?sla=0.05&target=0.9&tenant=gold",
	} {
		if code := getJSON(t, tr.routerSrv.URL+path, nil); code != http.StatusBadRequest {
			t.Errorf("GET %s: status %d, want 400", path, code)
		}
	}
	if code := postJSON(t, tr.routerSrv.URL+"/predict",
		serve.PredictRequest{Write: &serve.WriteSpec{N: 3, W: 2}}, nil); code != http.StatusBadRequest {
		t.Errorf("POST write predict: status %d, want 400", code)
	}
	if code := postJSON(t, tr.routerSrv.URL+"/advise",
		serve.AdviseRequest{SLA: 0.05, Target: 0.9, Tenants: map[string]float64{"gold": 3}}, nil); code != http.StatusBadRequest {
		t.Errorf("POST tenant advise: status %d, want 400", code)
	}
	// A plain read still answers.
	if code := getJSON(t, tr.routerSrv.URL+"/predict?sla=0.05", nil); code != http.StatusOK {
		t.Errorf("GET plain predict: status %d, want 200", code)
	}
}

// TestRouterAdviseMatchesSingleEngine: merged admission control agrees with
// the single-engine answer on the same state (small tolerance: the two
// paths quantize probe points independently).
func TestRouterAdviseMatchesSingleEngine(t *testing.T) {
	const devices = 4
	tr := newTier(t, 3, devices)
	ingestTier(t, tr, devices)

	ref, err := serve.NewEngine(serve.DefaultConfig(testProps(), devices))
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Ingest(ingestBatch(devices)); err != nil {
		t.Fatal(err)
	}
	const sla, target = 0.100, 0.5
	want, err := ref.Advise(sla, target)
	if err != nil {
		t.Fatal(err)
	}
	var got AdviceResponse
	code := getJSON(t, fmt.Sprintf("%s/advise?sla=%v&target=%v", tr.routerSrv.URL, sla, target), &got)
	if code != http.StatusOK {
		t.Fatalf("advise status %d", code)
	}
	if got.Degraded {
		t.Error("healthy advise flagged degraded")
	}
	if math.Abs(got.CurrentMeetRatio-want.CurrentMeetRatio) > 1e-6 {
		t.Errorf("current meet ratio %v, single engine %v", got.CurrentMeetRatio, want.CurrentMeetRatio)
	}
	if got.Admit != want.Admit {
		t.Errorf("admit %v, single engine %v", got.Admit, want.Admit)
	}
	if want.MaxAdmissibleRate > 0 {
		rel := math.Abs(got.MaxAdmissibleRate-want.MaxAdmissibleRate) / want.MaxAdmissibleRate
		if rel > 0.05 {
			t.Errorf("max admissible rate %v, single engine %v (rel %.3f)",
				got.MaxAdmissibleRate, want.MaxAdmissibleRate, rel)
		}
	}
}

// TestRouterHedgesSlowPrimary: a primary that answers slower than the hedge
// delay gets raced by the standby and the client still wins quickly.
func TestRouterHedgesSlowPrimary(t *testing.T) {
	const devices = 4
	tr := newTier(t, 3, devices)
	ingestTier(t, tr, devices)
	// Warm every shard's cache first so the hedged race measures transport,
	// not a cold transform inversion.
	if code := getJSON(t, tr.routerSrv.URL+"/predict", nil); code != http.StatusOK {
		t.Fatalf("warm predict status %d", code)
	}
	for _, g := range tr.gates {
		g.setDelay(300 * time.Millisecond)
	}
	// With every node slow, hedges must fire (delay 20ms << 300ms).
	if code := getJSON(t, tr.routerSrv.URL+"/predict", nil); code != http.StatusOK {
		t.Fatalf("slow predict status %d", code)
	}
	if tr.router.hedges.Value() == 0 {
		t.Error("no hedge fired against a slow primary")
	}
}

// TestGenerationGossipConverges: a recalibration (cache-generation bump) on
// one shard propagates to every other node through the probe round's
// gossip, so no replica keeps serving pre-recalibration cache entries.
func TestGenerationGossipConverges(t *testing.T) {
	const devices = 4
	tr := newTier(t, 3, devices)
	ingestTier(t, tr, devices)
	tr.shards[1].Engine().InvalidateCache()
	tr.shards[1].Engine().InvalidateCache()
	want := tr.shards[1].Engine().CacheGeneration()
	if want == 0 {
		t.Fatal("invalidate did not bump the generation")
	}
	tr.router.ProbeOnce(context.Background())
	for i, s := range tr.shards {
		if got := s.Engine().CacheGeneration(); got < want {
			t.Errorf("node %d generation %d lags the gossiped %d", i, got, want)
		}
	}
	// A second round must be stable (no ping-pong).
	tr.router.ProbeOnce(context.Background())
	for i, s := range tr.shards {
		if got := s.Engine().CacheGeneration(); got != want {
			t.Errorf("node %d generation %d drifted after a stable round (want %d)", i, got, want)
		}
	}
}

// TestRouterHealthz: per-shard components reflect liveness.
func TestRouterHealthz(t *testing.T) {
	const devices = 4
	tr := newTier(t, 3, devices)
	var h serve.HealthResponse
	if code := getJSON(t, tr.routerSrv.URL+"/healthz", &h); code != http.StatusOK {
		t.Fatalf("healthz status %d", code)
	}
	if h.Ready {
		t.Error("ready before any ingest")
	}
	ingestTier(t, tr, devices)
	tr.gates[2].set(true)
	tr.router.ProbeOnce(context.Background())
	if code := getJSON(t, tr.routerSrv.URL+"/healthz", &h); code != http.StatusOK {
		t.Fatalf("healthz status %d", code)
	}
	if h.Status != "degraded" {
		t.Errorf("status %q with a dead shard, want degraded", h.Status)
	}
	if !h.Ready {
		t.Error("not ready despite live shards and ingested state")
	}
	if c, ok := h.Components["shard-2"]; !ok || c.Status != "degraded" {
		t.Errorf("shard-2 component %+v, want degraded", h.Components["shard-2"])
	}
	if c, ok := h.Components["shard-0"]; !ok || c.Status != "ok" {
		t.Errorf("shard-0 component %+v, want ok", h.Components["shard-0"])
	}
}

// TestRouterFlagsEmptyRejoinedShard: a replica that restarts with an empty
// store answers /shard/partial authoritatively at rate 0 for its devices —
// it is up, so coverage sees nothing lost. The router must notice the live
// partials under-reporting the ingest tracker's total rate, fold the gap
// into the lost-rate term (widened bounds) and flag the answer degraded,
// rather than silently renormalizing over the surviving traffic.
func TestRouterFlagsEmptyRejoinedShard(t *testing.T) {
	const devices = 4
	tr := newTier(t, 3, devices)
	ingestTier(t, tr, devices)

	var healthy PredictResponse
	if code := getJSON(t, tr.routerSrv.URL+"/predict", &healthy); code != http.StatusOK {
		t.Fatalf("healthy predict: status %d", code)
	}
	if healthy.Degraded {
		t.Fatal("tier degraded before the restart")
	}

	// "Restart" the primary of device 0's chain: same address, empty state.
	node := tr.router.topo.ChainFor(0)[0]
	cfg := serve.DefaultConfig(testProps(), devices)
	cfg.ShardMode = true
	fresh, err := serve.NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr.gates[node].setNext(fresh.Handler())

	var pr PredictResponse
	if code := getJSON(t, tr.routerSrv.URL+"/predict", &pr); code != http.StatusOK {
		t.Fatalf("predict with an empty rejoined shard: status %d", code)
	}
	if !pr.Degraded {
		t.Error("under-reporting shard not flagged degraded")
	}
	if len(pr.LostDevices) != 0 {
		t.Errorf("lost devices %v; the shard is up, just empty", pr.LostDevices)
	}
	if pr.LiveRate >= pr.TotalRate {
		t.Errorf("live rate %.2f not below total %.2f despite an empty shard",
			pr.LiveRate, pr.TotalRate)
	}
	for i, p := range pr.Predictions {
		if !(p.Low < p.High) {
			t.Errorf("sla %.3f: bounds [%v, %v] did not widen", p.SLA, p.Low, p.High)
		}
		if p.Low > p.MeetRatio+1e-12 || p.MeetRatio > p.High+1e-12 {
			t.Errorf("sla %.3f: estimate %v outside [%v, %v]", p.SLA, p.MeetRatio, p.Low, p.High)
		}
		_ = i
	}
}

package serve

import (
	"bytes"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"cosmodel/internal/calib"
	"cosmodel/internal/ingest"
)

// sampledBatch is one observation per device carrying 8 raw disk samples
// per class and no disk counters, so the controller derives each window's
// disk mean from the raw samples themselves.
func sampledBatch(rng *rand.Rand, devices int) []Observation {
	draw := func(mean float64) []float64 {
		out := make([]float64, 8)
		for i := range out {
			out[i] = math.Round(rng.ExpFloat64()*mean*1e6) / 1e6
		}
		return out
	}
	batch := make([]Observation, devices)
	for d := range batch {
		o := obsAtRate(d, 40+20*rng.Float64())
		o.Class = []string{"gold", "bronze"}[rng.Intn(2)]
		o.DiskIndexLat, o.DiskMetaLat, o.DiskDataLat = draw(9e-3), draw(6e-3), draw(8e-3)
		batch[d] = o
	}
	return batch
}

// feederGate blocks the calibration feeder inside its first Observe call:
// the controller is configured so that every window with raw samples flags
// a shape drift, and the first transition hook waits until released.
type feederGate struct {
	once    sync.Once
	entered chan struct{}
	release chan struct{}
}

func newGatedEngine(t *testing.T, cfg Config) (*Server, *feederGate) {
	t.Helper()
	g := &feederGate{entered: make(chan struct{}), release: make(chan struct{})}
	cc := calib.DefaultConfig(cfg.Devices)
	cc.MinKSSamples, cc.KSFactor = 2, 1e-9
	cc.OnTransition = func(int, calib.DeviceState, calib.DeviceState) {
		g.once.Do(func() {
			close(g.entered)
			<-g.release
		})
	}
	cfg.Calib = &cc
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s, g
}

// postNDJSON sends one NDJSON /ingest request through the handler and
// returns once the handler has returned.
func postNDJSON(t *testing.T, h http.Handler, body string) {
	t.Helper()
	r := httptest.NewRequest(http.MethodPost, "/ingest", bytes.NewReader([]byte(body)))
	r.Header.Set("Content-Type", ingest.ContentTypeNDJSON)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	if w.Code != http.StatusOK {
		t.Fatalf("ingest answered %d: %s", w.Code, w.Body)
	}
}

// calibState is a controller status without its wall-clock ages.
func calibState(t *testing.T, e *Engine) calib.Status {
	t.Helper()
	st, ok := e.CalibrationStatus()
	if !ok {
		t.Fatal("calibration subsystem disabled")
	}
	st.LastRecalibrationAge = 0
	for i := range st.Devices {
		st.Devices[i].LastDriftAge, st.Devices[i].LastRecalibrationAge = 0, 0
	}
	return st
}

// TestQueuedCalibrationOwnsItsSamples pins the hand-off's ownership rule:
// with the feeder blocked, two different NDJSON bodies are ingested back to
// back through the handler, so the second decode reuses the first one's
// pooled sample arena while the first batch still waits in the queue. Once
// released, the controller must reach exactly the state of a reference
// controller fed private copies of the same windows: every window's
// sample-derived disk mean and K-S statistic enter that state, so a queued
// batch that still pointed into a reused arena would diverge.
func TestQueuedCalibrationOwnsItsSamples(t *testing.T) {
	cfg := testConfig()
	s, g := newGatedEngine(t, cfg)
	rng := rand.New(rand.NewSource(7))
	primer, a, b := sampledBatch(rng, cfg.Devices), sampledBatch(rng, cfg.Devices), sampledBatch(rng, cfg.Devices)
	bodyA, bodyB := ndjsonFor(t, a), ndjsonFor(t, b)

	e := s.Engine()
	if err := e.IngestQueued(primer); err != nil {
		t.Fatal(err)
	}
	<-g.entered
	h := s.Handler()
	postNDJSON(t, h, bodyA)
	postNDJSON(t, h, bodyB)
	if n := e.calibQ.Len(); n != 2 {
		t.Fatalf("%d batches queued behind the blocked feeder, want 2", n)
	}
	close(g.release)
	if !e.WaitCalibrationIdle(5 * time.Second) {
		t.Fatal("calibration queue did not drain")
	}

	ref, rg := newGatedEngine(t, cfg)
	close(rg.release) // the reference feeds synchronously: never block it
	for _, batch := range [][]Observation{primer, a, b} {
		if err := ref.Engine().Ingest(batch); err != nil {
			t.Fatal(err)
		}
	}
	got, want := calibState(t, e), calibState(t, ref.Engine())
	if got.Windows != uint64(3*cfg.Devices) {
		t.Fatalf("controller observed %d windows, want %d", got.Windows, 3*cfg.Devices)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("queued calibration diverged from a private-copy reference:\n got %+v\nwant %+v", got, want)
	}
}

// TestCalibrationDropRecyclesBatch pins the full-ring drop path: a batch
// the hand-off ring refuses is counted as dropped and its memory goes
// straight back to the free list, emptied, for the next ingest to reuse.
func TestCalibrationDropRecyclesBatch(t *testing.T) {
	cfg := testConfig()
	cfg.IngestQueue = 1
	s, g := newGatedEngine(t, cfg)
	e := s.Engine()
	rng := rand.New(rand.NewSource(8))
	if err := e.IngestQueued(sampledBatch(rng, cfg.Devices)); err != nil {
		t.Fatal(err)
	}
	<-g.entered // the feeder holds the primer; the ring is empty
	if err := e.IngestQueued(sampledBatch(rng, cfg.Devices)); err != nil {
		t.Fatal(err)
	}
	if n := len(e.calibFree); n != 0 {
		t.Fatalf("free list holds %d batches before the drop, want 0", n)
	}
	dropped := sampledBatch(rng, cfg.Devices)
	if err := e.IngestQueued(dropped); err != nil {
		t.Fatal(err)
	}
	if got := e.Stats().CalibQueueDropped; got != uint64(len(dropped)) {
		t.Fatalf("dropped %d observations, want %d", got, len(dropped))
	}
	if n := len(e.calibFree); n != 1 {
		t.Fatalf("free list holds %d batches after the drop, want the dropped one", n)
	}
	b := <-e.calibFree
	if len(b.obs) != 0 || len(b.floats) != 0 || cap(b.obs) < len(dropped) || cap(b.floats) < 24*len(dropped) {
		t.Fatalf("recycled batch holds %d/%d observations and %d/%d samples, want empty with the dropped batch's capacity",
			len(b.obs), cap(b.obs), len(b.floats), cap(b.floats))
	}
	e.putCalibBatch(b)
	close(g.release)
	if !e.WaitCalibrationIdle(5 * time.Second) {
		t.Fatal("calibration queue did not drain")
	}
}

// resettableBody is a request body that can be replayed without
// allocating.
type resettableBody struct{ bytes.Reader }

func (*resettableBody) Close() error { return nil }

// TestIngestNDJSONRouteAllocs pins the allocation count of a steady-state
// NDJSON POST /ingest through the whole route with calibration on: the
// labelled, sample-carrying batch is decoded into the pooled arena, lands
// in the aggregate and tenant tables, is copied into a recycled queued
// batch and fed to the controller (each run waits for the feeder, so its
// work is counted too). Nothing is allocated per observation or per
// sample; the three allocations left are the request's body limit reader,
// its media-type parse and the response's Content-Type header.
func TestIngestNDJSONRouteAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector; alloc counts are not meaningful")
	}
	cfg := testConfig()
	cc := calib.DefaultConfig(cfg.Devices)
	cfg.Calib = &cc
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h := s.Handler()
	payload := []byte(ndjsonFor(t, sampledBatch(rand.New(rand.NewSource(9)), cfg.Devices)))
	body := &resettableBody{}
	r := httptest.NewRequest(http.MethodPost, "/ingest", nil)
	r.Header.Set("Content-Type", ingest.ContentTypeNDJSON)
	w := &discardWriter{h: http.Header{}}
	run := func() {
		body.Reset(payload)
		r.Body = body
		h.ServeHTTP(w, r)
		if w.status != http.StatusOK {
			t.Fatalf("ingest answered %d", w.status)
		}
		if !s.Engine().WaitCalibrationIdle(5 * time.Second) {
			t.Fatal("calibration queue did not drain")
		}
	}
	for i := 0; i < 32; i++ {
		run()
	}
	if allocs := testing.AllocsPerRun(100, run); allocs > 3 {
		t.Errorf("steady-state NDJSON /ingest allocates %v objects per request, want ≤ 3", allocs)
	}
}

package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cosmodel/internal/serve"
)

// purge forgets every memoized answer, so a test's next request fans out.
func (m *answerMemo) purge() {
	m.mu.Lock()
	clear(m.entries)
	m.mu.Unlock()
}

// memoized reports whether the memo holds an answer for the grid, at any
// epoch.
func (m *answerMemo) memoized(slas []float64) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, ok := m.entries[string(appendGridKey(nil, slas))]
	return ok
}

// partialCalls counts the /shard/partial requests that reached the tier's
// shards.
func (tr *tier) partialCalls() int64 {
	var n int64
	for _, g := range tr.gates {
		n += g.partials.Load()
	}
	return n
}

// gridURL is the /predict URL of an SLA grid.
func gridURL(base string, slas []float64) string {
	parts := make([]string, len(slas))
	for i, s := range slas {
		parts[i] = strconv.FormatFloat(s, 'g', -1, 64)
	}
	return base + "/predict?sla=" + strings.Join(parts, ",")
}

// TestRouterMemoHitMakesNoShardCalls: a repeated /predict is answered from
// the memo with the miss's exact bytes and no shard call; an ingest moves
// the epoch and the next request fans out again.
func TestRouterMemoHitMakesNoShardCalls(t *testing.T) {
	const devices = 8
	tr := newTier(t, 3, devices)
	ingestTier(t, tr, devices)

	const url = "/predict?sla=0.02,0.05,0.1"
	code, miss := getBody(t, tr.routerSrv.URL+url)
	if code != http.StatusOK {
		t.Fatalf("predict status %d: %s", code, miss)
	}
	fanned := tr.partialCalls()
	if fanned == 0 {
		t.Fatal("the first predict made no shard call")
	}
	for i := 0; i < 5; i++ {
		code, hit := getBody(t, tr.routerSrv.URL+url)
		if code != http.StatusOK || !bytes.Equal(hit, miss) {
			t.Fatalf("hit %d: status %d\n%s\nthe miss answered\n%s", i, code, hit, miss)
		}
	}
	// The same grid asked through POST is the same key.
	var post PredictResponse
	if code := postJSON(t, tr.routerSrv.URL+"/predict",
		serve.PredictRequest{SLAs: []float64{0.02, 0.05, 0.1}}, &post); code != http.StatusOK {
		t.Fatalf("POST predict status %d", code)
	}
	if n := tr.partialCalls(); n != fanned {
		t.Fatalf("memo hits made %d shard calls", n-fanned)
	}
	if h, m := tr.router.memoHits.Value(), tr.router.memoMisses.Value(); h != 6 || m != 1 {
		t.Errorf("memo hits %d, misses %d; want 6 and 1", h, m)
	}
	var prom bytes.Buffer
	if err := tr.router.Registry().WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"cosrouter_predict_memo_hits_total 6", "cosrouter_predict_memo_misses_total 1"} {
		if !strings.Contains(prom.String(), name) {
			t.Errorf("/metrics/prom lacks %q", name)
		}
	}

	ingestTier(t, tr, devices)
	if code, _ := getBody(t, tr.routerSrv.URL+url); code != http.StatusOK {
		t.Fatalf("predict after ingest: status %d", code)
	}
	if tr.partialCalls() == fanned {
		t.Fatal("a predict after an ingest was answered from the memo")
	}
}

// TestRouterMemoSkipsDegraded: answers served with a node down, a hedge
// won by the standby, a failover, lost devices or an under-reporting shard
// are never memoized — the next request fans out again.
func TestRouterMemoSkipsDegraded(t *testing.T) {
	const devices = 8
	slas := []float64{0.02, 0.05, 0.1}
	ask := func(t *testing.T, tr *tier) PredictResponse {
		t.Helper()
		var pr PredictResponse
		if code := getJSON(t, gridURL(tr.routerSrv.URL, slas), &pr); code != http.StatusOK {
			t.Fatalf("predict status %d", code)
		}
		return pr
	}
	for name, breakTier := range map[string]func(tr *tier){
		"failover": func(tr *tier) { tr.gates[0].set(true) },
		"hedge":    func(tr *tier) { tr.gates[0].setDelay(300 * time.Millisecond) },
		"node down": func(tr *tier) {
			tr.gates[0].set(true)
			tr.router.ProbeOnce(context.Background())
		},
		"lost devices": func(tr *tier) {
			for _, n := range tr.router.topo.ChainFor(0) {
				tr.gates[n].set(true)
			}
		},
		"under-report": func(tr *tier) {
			cfg := serve.DefaultConfig(testProps(), devices)
			cfg.ShardMode = true
			fresh, err := serve.NewServer(cfg)
			if err != nil {
				t.Fatal(err)
			}
			tr.gates[tr.router.topo.ChainFor(0)[0]].setNext(fresh.Handler())
			tr.router.ProbeOnce(context.Background())
		},
	} {
		t.Run(name, func(t *testing.T) {
			tr := newTier(t, 3, devices)
			ingestTier(t, tr, devices)
			if ask(t, tr).Degraded || !tr.router.memo.memoized(slas) {
				t.Fatal("fixture: the healthy answer was degraded or not memoized")
			}
			breakTier(tr)
			tr.router.memo.purge()
			for i := 0; i < 2; i++ {
				before := tr.partialCalls()
				if pr := ask(t, tr); !pr.Degraded {
					t.Fatalf("request %d answered healthy: %+v", i, pr)
				}
				if tr.router.memo.memoized(slas) {
					t.Fatalf("request %d: a degraded answer was memoized", i)
				}
				if tr.partialCalls() == before {
					t.Fatalf("request %d made no shard call", i)
				}
			}
			if name == "hedge" && tr.router.hedges.Value() < 2 {
				t.Fatalf("%d hedges fired over two requests", tr.router.hedges.Value())
			}
		})
	}
}

// TestRouterMemoReadsItsWrites: a predict issued after an ingest's 200
// reflects that ingest, and equals one engine fed the same batches.
func TestRouterMemoReadsItsWrites(t *testing.T) {
	const devices = 4
	tr := newTier(t, 3, devices)
	ref, err := serve.NewEngine(serve.DefaultConfig(testProps(), devices))
	if err != nil {
		t.Fatal(err)
	}
	var last []byte
	for i, rate := range []float64{20, 35, 50} {
		batch := make([]serve.Observation, devices)
		for d := range batch {
			batch[d] = obsAtRate(d, rate+float64(d))
		}
		if code := postJSON(t, tr.routerSrv.URL+"/ingest", serve.IngestRequest{Observations: batch}, nil); code != http.StatusOK {
			t.Fatalf("ingest %d status %d", i, code)
		}
		if err := ref.Ingest(batch); err != nil {
			t.Fatal(err)
		}
		code, body := getBody(t, tr.routerSrv.URL+"/predict")
		if code != http.StatusOK {
			t.Fatalf("predict %d status %d", i, code)
		}
		if bytes.Equal(body, last) {
			t.Fatalf("predict %d after an ingest repeated the previous answer", i)
		}
		last = body
		if err := matchEngine(body, ref, nil); err != nil {
			t.Fatalf("predict %d: %v", i, err)
		}
	}
}

// matchEngine requires a router /predict body to match the reference
// engine's answer for slas within 1e-9.
func matchEngine(body []byte, ref *serve.Engine, slas []float64) error {
	var got PredictResponse
	if err := json.Unmarshal(body, &got); err != nil {
		return err
	}
	want, err := ref.Predict(slas)
	if err != nil {
		return err
	}
	if len(got.Predictions) != len(want) || len(got.LostDevices) != 0 {
		return fmt.Errorf("router answered %s, engine %+v", body, want)
	}
	for i, p := range got.Predictions {
		if p.SLA != want[i].SLA || math.Abs(p.MeetRatio-want[i].MeetRatio) > 1e-9 {
			return fmt.Errorf("sla %v: router %v, engine %v (%s)", p.SLA, p.MeetRatio, want[i].MeetRatio, body)
		}
	}
	return nil
}

// TestRouterMemoRandomizedReadYourWrites: router ingests of random batches
// interleave with concurrent predicts over a few grids, which keep the
// memo filled with answers racing every ingest. After each ingest's 200
// every grid must answer exactly what one engine fed the same batches
// answers, whether it is a hit or a miss.
func TestRouterMemoRandomizedReadYourWrites(t *testing.T) {
	const devices = 8
	tr := newTier(t, 3, devices)
	ref, err := serve.NewEngine(serve.DefaultConfig(testProps(), devices))
	if err != nil {
		t.Fatal(err)
	}
	grids := [][]float64{nil, {0.02, 0.05}, {0.01, 0.03, 0.1}}
	rng := rand.New(rand.NewSource(29))
	batch := func(all bool) []serve.Observation {
		var b []serve.Observation
		for d := 0; d < devices; d++ {
			if all || rng.Intn(2) == 0 {
				b = append(b, obsAtRate(d, 15+40*rng.Float64()))
			}
		}
		if len(b) == 0 {
			b = append(b, obsAtRate(rng.Intn(devices), 15+40*rng.Float64()))
		}
		return b
	}
	ingest := func(b []serve.Observation) {
		t.Helper()
		if code := postJSON(t, tr.routerSrv.URL+"/ingest", serve.IngestRequest{Observations: b}, nil); code != http.StatusOK {
			t.Fatalf("ingest status %d", code)
		}
		if err := ref.Ingest(b); err != nil {
			t.Fatal(err)
		}
	}
	ingest(batch(true))

	var stop atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; !stop.Load(); i++ {
				code, body, err := fetch(gridURL(tr.routerSrv.URL, grids[i%len(grids)]))
				if err != nil || code != http.StatusOK {
					errs <- fmt.Errorf("concurrent predict: status %d, %v: %s", code, err, body)
					return
				}
			}
		}(g)
	}
	for step := 0; step < 25; step++ {
		ingest(batch(false))
		for _, i := range rng.Perm(len(grids)) {
			for rep := 0; rep < 1+rng.Intn(2); rep++ {
				code, body := getBody(t, gridURL(tr.routerSrv.URL, grids[i]))
				if code != http.StatusOK {
					t.Fatalf("step %d: predict status %d: %s", step, code, body)
				}
				if err := matchEngine(body, ref, grids[i]); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
			}
		}
		time.Sleep(time.Duration(rng.Intn(2000)) * time.Microsecond)
	}
	stop.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if tr.router.memoHits.Value() == 0 {
		t.Error("no request was a memo hit: the property ran without the memo")
	}
}

// TestRouterMemoSeesDirectShardIngest: a batch sent straight to a shard,
// bypassing the router, reaches the answer within one probe round — the
// shard's table revision moved, and that moves the router epoch.
func TestRouterMemoSeesDirectShardIngest(t *testing.T) {
	const devices = 4
	tr := newTier(t, 3, devices)
	ingestTier(t, tr, devices)
	tr.router.ProbeOnce(context.Background())
	code, before := getBody(t, tr.routerSrv.URL+"/predict")
	if code != http.StatusOK {
		t.Fatalf("predict status %d", code)
	}
	node := tr.router.topo.ChainFor(0)[0]
	if code := postJSON(t, tr.router.cfg.Nodes[node]+"/ingest",
		serve.IngestRequest{Observations: []serve.Observation{obsAtRate(0, 70)}}, nil); code != http.StatusOK {
		t.Fatalf("direct shard ingest status %d", code)
	}
	tr.router.ProbeOnce(context.Background())
	code, after := getBody(t, tr.routerSrv.URL+"/predict")
	if code != http.StatusOK {
		t.Fatalf("predict status %d", code)
	}
	if bytes.Equal(after, before) {
		t.Fatalf("the router still answers its pre-ingest answer after a probe round:\n%s", after)
	}
}

// TestRouterMemoEpochMoves: each change a merged answer can see moves the
// epoch, and a quiet probe round does not.
func TestRouterMemoEpochMoves(t *testing.T) {
	const devices = 4
	tr := newTier(t, 3, devices)
	r := tr.router
	ctx := context.Background()
	moves := func(what string, want bool, f func()) {
		t.Helper()
		before := r.memo.epoch.Load()
		f()
		if moved := r.memo.epoch.Load() != before; moved != want {
			t.Errorf("%s: epoch moved %v, want %v", what, moved, want)
		}
	}
	moves("ingest", true, func() { ingestTier(t, tr, devices) })
	moves("first probe round", true, func() { r.ProbeOnce(ctx) })
	moves("quiet probe round", false, func() { r.ProbeOnce(ctx) })
	moves("restarted shard", true, func() {
		// Same generation (0), table revision back to zero: a drop is a
		// change as much as a rise is.
		cfg := serve.DefaultConfig(testProps(), devices)
		cfg.ShardMode = true
		fresh, err := serve.NewServer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		tr.gates[1].setNext(fresh.Handler())
		r.ProbeOnce(ctx)
	})
	moves("same generation", false, func() { r.prober.observeGeneration(1, r.prober.snapshot()[1].gen) })
	moves("new generation", true, func() { r.prober.observeGeneration(1, r.prober.snapshot()[1].gen+1) })
	moves("live set", true, func() { r.prober.noteFailure(2) })
	moves("same live set", false, func() { r.prober.noteFailure(2) })
	moves("rejoin", true, func() { r.prober.noteSuccess(2) })
	tr.gates[0].set(true)
	moves("failed ingest", true, func() {
		if code := postJSON(t, tr.routerSrv.URL+"/ingest",
			serve.IngestRequest{Observations: ingestBatch(devices)}, nil); code != http.StatusOK {
			t.Fatalf("ingest with one replica down: status %d", code)
		}
	})
	tr.gates[0].set(false)

	// A batch no replica accepted (502) may still have reached a shard:
	// it moves the epoch even when the live set stays put.
	strict := newTierCfg(t, 3, devices,
		func() serve.Config { return serve.DefaultConfig(testProps(), devices) },
		func(c *Config) { c.FailThreshold = 1000 })
	for _, g := range strict.gates {
		g.set(true)
	}
	before := strict.router.memo.epoch.Load()
	if code := postJSON(t, strict.routerSrv.URL+"/ingest",
		serve.IngestRequest{Observations: ingestBatch(devices)}, nil); code != http.StatusBadGateway {
		t.Fatalf("ingest with every shard down: status %d, want 502", code)
	}
	if strict.router.memo.epoch.Load() == before {
		t.Error("a 502 ingest did not move the epoch")
	}

	restarted, err := NewRouter(r.cfg)
	if err != nil {
		t.Fatal(err)
	}
	before = restarted.memo.epoch.Load()
	if restarted.WarmupOnce(ctx) == 0 || restarted.memo.epoch.Load() == before {
		t.Error("a warmup seed did not move the epoch")
	}
	before = restarted.memo.epoch.Load()
	if restarted.WarmupOnce(ctx) != 0 || restarted.memo.epoch.Load() != before {
		t.Error("a no-op warmup moved the epoch")
	}
}

// TestRouterMemoBounded: the memo keeps at most memoEntries answers, drops
// the oldest epochs first and never lets an older answer replace a newer.
func TestRouterMemoBounded(t *testing.T) {
	var m answerMemo
	key := func(i int) []byte { return appendGridKey(nil, []float64{float64(i + 1)}) }
	for i := 0; i < memoEntries; i++ {
		m.put(key(i), 1, []byte{byte(i)})
	}
	m.put(key(memoEntries), 2, []byte("new"))
	if len(m.entries) > memoEntries {
		t.Fatalf("memo grew to %d entries", len(m.entries))
	}
	if b, ok := m.get(key(memoEntries), 2); !ok || string(b) != "new" {
		t.Fatal("the newest answer was not kept")
	}
	m.put(key(memoEntries), 1, []byte("old"))
	if b, _ := m.get(key(memoEntries), 2); string(b) != "new" {
		t.Fatal("an older epoch's answer replaced a newer one")
	}
	if _, ok := m.get(key(memoEntries), 3); ok {
		t.Fatal("an answer was served at a later epoch")
	}
	for i := 0; i < 2*memoEntries; i++ {
		m.put(key(i), 0, nil)
	}
	if len(m.entries) > memoEntries {
		t.Fatalf("stale puts grew the memo to %d entries", len(m.entries))
	}
}

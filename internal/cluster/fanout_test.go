package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cosmodel/internal/serve"
)

// getBody fetches url and returns the status and body.
func getBody(t *testing.T, url string) (int, []byte) {
	t.Helper()
	code, body, err := fetch(url)
	if err != nil {
		t.Fatal(err)
	}
	return code, body
}

// fetch is getBody for goroutines other than the test's own.
func fetch(url string) (int, []byte, error) {
	resp, err := http.Get(url)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// concurrently runs f on n goroutines and returns their errors once all
// have returned.
func concurrently(n int, f func() error) []error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = f()
		}(i)
	}
	wg.Wait()
	return errs
}

// TestCoverageMemo: the fan-out plan is computed once per set of live
// nodes. A hit allocates nothing, a transition replaces the plan, and a
// node coming back restores the original grouping.
func TestCoverageMemo(t *testing.T) {
	tr := newTier(t, 3, 8)
	r := tr.router
	healthy := r.coverage()
	if healthy.anyDown || len(healthy.lost) != 0 {
		t.Fatalf("healthy plan: anyDown %v, lost %v", healthy.anyDown, healthy.lost)
	}
	if allocs := testing.AllocsPerRun(100, func() { r.coverage() }); allocs != 0 {
		t.Errorf("coverage memo hit allocates %v objects, want 0", allocs)
	}
	if r.coverage() != healthy {
		t.Fatal("stable liveness recomputed the plan")
	}
	r.prober.noteFailure(0) // threshold 1: node 0 is down
	down := r.coverage()
	if down == healthy || !down.anyDown {
		t.Fatal("a node going down kept the healthy plan")
	}
	for _, g := range down.groups {
		for _, n := range g.Chain {
			if n == 0 {
				t.Errorf("down node 0 in live chain %v", g.Chain)
			}
		}
	}
	r.prober.noteSuccess(0)
	back := r.coverage()
	if back == down || back.anyDown {
		t.Fatal("a node coming back kept the degraded plan")
	}
	want, _ := r.topo.Coverage(8, func(int) bool { return true })
	if len(back.groups) != len(want) {
		t.Fatalf("%d groups after rejoin, want %d", len(back.groups), len(want))
	}
	for i := range want {
		if !slicesEqual(back.groups[i].Chain, want[i].Chain) || !slicesEqual(back.groups[i].Devices, want[i].Devices) {
			t.Errorf("group %d after rejoin %+v, want %+v", i, back.groups[i], want[i])
		}
	}
}

func slicesEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestRouterPredictBitReproducible: partials merge in coverage-group order,
// not arrival order, so identical predicts give identical bytes however
// the shards' answers interleave.
func TestRouterPredictBitReproducible(t *testing.T) {
	const devices = 8
	tr := newTierCfg(t, 3, devices,
		func() serve.Config { return serve.DefaultConfig(testProps(), devices) },
		func(c *Config) { c.HedgeDelay = 0 }) // delays reorder answers, never hedge
	batch := ingestBatch(devices)
	for d := range batch {
		batch[d] = obsAtRate(d, 20+7*float64(d))
	}
	if code := postJSON(t, tr.routerSrv.URL+"/ingest", serve.IngestRequest{Observations: batch}, nil); code != http.StatusOK {
		t.Fatalf("ingest status %d", code)
	}
	const url = "/predict?sla=0.01,0.02,0.05,0.1"
	code, first := getBody(t, tr.routerSrv.URL+url)
	if code != http.StatusOK {
		t.Fatalf("predict status %d: %s", code, first)
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 50; i++ {
		for _, g := range tr.gates {
			g.setDelay(time.Duration(rng.Intn(3000)) * time.Microsecond)
		}
		tr.router.memo.purge() // compare fan-outs, not memo hits
		code, body := getBody(t, tr.routerSrv.URL+url)
		if code != http.StatusOK {
			t.Fatalf("predict %d: status %d: %s", i, code, body)
		}
		if string(body) != string(first) {
			t.Fatalf("predict %d answered\n%s\nthe first answered\n%s", i, body, first)
		}
	}
}

// TestRouterPredictDuringLivenessFlaps: predicts keep answering the
// healthy estimate while a node flips down and up under them, each flip
// replacing the memoized fan-out plan.
func TestRouterPredictDuringLivenessFlaps(t *testing.T) {
	const devices = 8
	tr := newTier(t, 3, devices)
	ingestTier(t, tr, devices)
	var want PredictResponse
	if code := getJSON(t, tr.routerSrv.URL+"/predict", &want); code != http.StatusOK {
		t.Fatalf("baseline predict status %d", code)
	}
	var flapping atomic.Bool
	flapping.Store(true)
	done := make(chan []error)
	go func() {
		done <- concurrently(4, func() error {
			for flapping.Load() {
				code, body, err := fetch(tr.routerSrv.URL + "/predict")
				if err != nil || code != http.StatusOK {
					return fmt.Errorf("predict during a flap: status %d, %v", code, err)
				}
				var got PredictResponse
				if err := json.Unmarshal(body, &got); err != nil {
					return err
				}
				for i, p := range got.Predictions {
					if len(got.LostDevices) != 0 || math.Abs(p.MeetRatio-want.Predictions[i].MeetRatio) > 1e-9 {
						return fmt.Errorf("a flap changed the answer or lost devices: %s", body)
					}
				}
			}
			return nil
		})
	}()
	ctx := context.Background()
	for i := 0; i < 20; i++ {
		tr.gates[1].set(true)
		tr.router.ProbeOnce(ctx)
		if tr.router.prober.up(1) {
			t.Error("probe missed the down node")
		}
		tr.gates[1].set(false)
		tr.router.ProbeOnce(ctx)
	}
	flapping.Store(false)
	for _, err := range <-done {
		if err != nil {
			t.Error(err)
		}
	}
}

// TestRouterHungShardsBoundedByDeadline: with every replica hung, the
// fan-out gives up at its deadline (the client's timeout) and answers 503.
func TestRouterHungShardsBoundedByDeadline(t *testing.T) {
	const devices = 4
	const timeout = 300 * time.Millisecond
	tr := newTierCfg(t, 3, devices,
		func() serve.Config { return serve.DefaultConfig(testProps(), devices) },
		func(c *Config) { c.Client = &http.Client{Timeout: timeout} })
	ingestTier(t, tr, devices)
	for _, g := range tr.gates {
		g.setDelay(time.Minute)
	}
	start := time.Now()
	code, body := getBody(t, tr.routerSrv.URL+"/predict")
	took := time.Since(start)
	if code != http.StatusServiceUnavailable {
		t.Errorf("hung tier answered %d (%s), want 503", code, body)
	}
	if took < timeout || took > timeout+2*time.Second {
		t.Errorf("hung fan-out returned after %v, want about its %v deadline", took, timeout)
	}
}

// TestRouterHedgeLoserExits: after a hedged fan-out returns, the attempts
// that lost to the standby are cancelled and their goroutines finish,
// although the slow primary would hold them for a minute.
func TestRouterHedgeLoserExits(t *testing.T) {
	const devices = 8
	tr := newTier(t, 3, devices)
	const slow = 0
	var armed atomic.Bool
	done := make(chan error, 16) // room for every attempt on the slow node: one per group at most
	tr.router.client.onAttemptDone = func(node int, err error) {
		if node == slow && armed.Load() {
			done <- err
		}
	}
	ingestTier(t, tr, devices)
	if code := getJSON(t, tr.routerSrv.URL+"/predict", nil); code != http.StatusOK {
		t.Fatalf("warm predict status %d", code)
	}
	hedges := tr.router.hedges.Value()
	losers := 0
	for _, g := range tr.router.coverage().groups {
		if g.Chain[0] == slow && len(g.Chain) > 1 {
			losers++
		}
	}
	if losers == 0 {
		t.Fatal("fixture: node 0 leads no replicated group")
	}
	tr.gates[slow].setDelay(time.Minute)
	tr.router.memo.purge() // the warm answer is memoized: fan out again
	armed.Store(true)
	if code := getJSON(t, tr.routerSrv.URL+"/predict", nil); code != http.StatusOK {
		t.Fatalf("hedged predict status %d", code)
	}
	if tr.router.hedges.Value() < hedges+uint64(losers) {
		t.Fatalf("%d hedges fired against the slow primary, want %d", tr.router.hedges.Value()-hedges, losers)
	}
	for i := 0; i < losers; i++ {
		select {
		case err := <-done:
			if !errors.Is(err, context.Canceled) {
				t.Errorf("losing attempt ended with %v, want a cancellation", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%d of %d losing attempts still running after the fan-out returned", losers-i, losers)
		}
	}
}

// TestShardClientReusesConnections: under concurrent fan-outs and ingest
// forwards the default client keeps its shard connections alive instead of
// dialing per burst.
func TestShardClientReusesConnections(t *testing.T) {
	const devices = 16
	// No hedging: a cancelled losing attempt closes its connection, which
	// is not what this test measures.
	tr := newTierCfg(t, 3, devices,
		func() serve.Config { return serve.DefaultConfig(testProps(), devices) },
		func(c *Config) { c.HedgeDelay = 0 })
	tp, ok := tr.router.client.hc.Transport.(*http.Transport)
	if !ok {
		t.Fatalf("default client transport %T, want *http.Transport", tr.router.client.hc.Transport)
	}
	var dials atomic.Int64
	var d net.Dialer
	tp.DialContext = func(ctx context.Context, network, addr string) (net.Conn, error) {
		dials.Add(1)
		return d.DialContext(ctx, network, addr)
	}
	ingestTier(t, tr, devices)
	const predicts = 100
	var ingesting atomic.Bool
	ingesting.Store(true)
	batch, err := json.Marshal(serve.IngestRequest{Observations: ingestBatch(devices)})
	if err != nil {
		t.Fatal(err)
	}
	ingested := make(chan []error)
	go func() {
		ingested <- concurrently(1, func() error {
			for ingesting.Load() {
				resp, err := http.Post(tr.routerSrv.URL+"/ingest", "application/json", bytes.NewReader(batch))
				if err != nil {
					return err
				}
				io.Copy(io.Discard, resp.Body) //nolint:errcheck
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					return fmt.Errorf("ingest status %d", resp.StatusCode)
				}
			}
			return nil
		})
	}()
	errs := concurrently(4, func() error {
		for i := 0; i < predicts; i++ {
			if code, body, err := fetch(tr.routerSrv.URL + "/predict"); err != nil || code != http.StatusOK {
				return fmt.Errorf("predict: status %d, %v: %s", code, err, body)
			}
		}
		return nil
	})
	ingesting.Store(false)
	for _, err := range append(errs, <-ingested...) {
		if err != nil {
			t.Error(err)
		}
	}
	// Each node needs at most one connection per concurrent call: four
	// fan-outs of up to two groups per node plus one ingest forward.
	if n := dials.Load(); n > 3*9 {
		t.Errorf("%d dials over %d predicts, want at most %d", n, 4*predicts, 3*9)
	}
}

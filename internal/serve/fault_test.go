package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cosmodel/internal/dist"
	"cosmodel/internal/numeric"
	"cosmodel/internal/retry"
)

// ---------------------------------------------------------------------------
// Fault-injection inverters (test doubles for the numeric layer).

// slowInverter delays every inversion — each node set it hands out —
// before delegating, turning each model evaluation into a request that
// takes real wall-clock time.
type slowInverter struct {
	d     time.Duration
	inner numeric.Inverter
}

func (s slowInverter) AppendNodes(sk, wk []complex128, t float64) ([]complex128, []complex128) {
	time.Sleep(s.d)
	return s.inner.AppendNodes(sk, wk, t)
}
func (s slowInverter) Name() string { return "slow-" + s.inner.Name() }

// nanInverter poisons every inversion: its one node carries a NaN weight.
type nanInverter struct{}

func (nanInverter) AppendNodes(s, w []complex128, t float64) ([]complex128, []complex128) {
	if t <= 0 {
		return s, w
	}
	return append(s, 1), append(w, complex(math.NaN(), 0))
}
func (nanInverter) Name() string { return "nan" }

// panicLST is a device distribution whose transform blows up off the real
// axis. Building a model evaluates transforms only at real points (moment
// estimates); the complex inversion nodes are evaluated inside the engine's
// pooled per-group fan-out, so the panic fires there.
type panicLST struct{ dist.Distribution }

func (p panicLST) LST(s complex128) complex128 {
	if imag(s) != 0 {
		panic("device transform exploded")
	}
	return p.Distribution.LST(s)
}

// waitMetrics polls /metrics until cond is satisfied or the deadline passes,
// returning the last snapshot either way. The polling schedule rides the
// shared retry helper (constant delay, context-bounded) instead of a
// hand-rolled sleep loop.
func waitMetrics(t *testing.T, base string, cond func(MetricsResponse) bool) MetricsResponse {
	t.Helper()
	var m MetricsResponse
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	p := retry.Policy{MaxAttempts: 500, BaseDelay: 10 * time.Millisecond}
	p.Do(ctx, func(context.Context) error { //nolint:errcheck — last snapshot is returned either way
		getJSON(t, base+"/metrics", &m)
		if cond(m) {
			return nil
		}
		return errNotYet
	})
	return m
}

// errNotYet is waitMetrics' retryable "condition not met" sentinel.
var errNotYet = errors.New("condition not met")

// ---------------------------------------------------------------------------
// Client cancellation.

// TestClientCancelAbortsEvaluation is the headline robustness criterion: a
// client that gives up after 50ms on a query whose uncancelled evaluation
// would take seconds (dozens of sequential ~50ms bisection probes) gets its
// error immediately, the server-side evaluation stops within one inversion of
// the hangup instead of grinding on, and the hangup is accounted as a 499.
func TestClientCancelAbortsEvaluation(t *testing.T) {
	cfg := testConfig()
	cfg.Opts.Inverter = slowInverter{d: 50 * time.Millisecond, inner: numeric.NewEuler()}
	_, ts := newTestServer(t, cfg)
	ingestHTTP(t, ts.URL, 50, 4, nil)

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/advise?sla=0.05&target=0.9", nil)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	resp, err := http.DefaultClient.Do(req)
	if err == nil {
		resp.Body.Close()
		t.Fatalf("request succeeded in %v; the slow inverter should have outlived the client", time.Since(start))
	}
	if el := time.Since(start); el > time.Second {
		t.Errorf("cancelled client waited %v, want ≈50ms", el)
	}

	// The abandoned handler must notice, abort the bisection, account the
	// hangup and release its in-flight slot.
	m := waitMetrics(t, ts.URL, func(m MetricsResponse) bool {
		return m.ClientGone >= 1 && m.Inflight == 0
	})
	if m.ClientGone < 1 {
		t.Errorf("clientClosedRequests = %d, want ≥1", m.ClientGone)
	}
	if m.Inflight != 0 {
		t.Errorf("inflight = %d after the client hung up", m.Inflight)
	}
}

// TestEvalTimeoutReturns503 drives a patient client into the per-call
// evaluation budget: the server answers 503 + Retry-After well before the
// uncancelled evaluation would finish, and counts the timeout.
func TestEvalTimeoutReturns503(t *testing.T) {
	cfg := testConfig()
	cfg.Opts.Inverter = slowInverter{d: 50 * time.Millisecond, inner: numeric.NewEuler()}
	cfg.Opts.EvalTimeout = 20 * time.Millisecond
	_, ts := newTestServer(t, cfg)
	ingestHTTP(t, ts.URL, 50, 4, nil)

	resp := getJSON(t, ts.URL+"/predict", nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}
	var m MetricsResponse
	getJSON(t, ts.URL+"/metrics", &m)
	if m.Timeouts < 1 {
		t.Errorf("evaluationTimeouts = %d, want ≥1", m.Timeouts)
	}
	if m.ClientGone != 0 {
		t.Errorf("a server-side budget expiry was misaccounted as a client hangup (%d)", m.ClientGone)
	}
}

// TestEvalTimeoutBoundsDedupedWaiters sends identical /predict misses at
// once: one computes, the rest wait on it. When the computation runs out of
// budget every client must get its 503 within about one budget; a waiter
// must not take over and run a budget of its own after the owner's, which
// would make the last of n clients wait n budgets.
func TestEvalTimeoutBoundsDedupedWaiters(t *testing.T) {
	const (
		clients = 6
		budget  = 100 * time.Millisecond
	)
	cfg := testConfig()
	// An evaluation runs two rounds of inversions, 160ms: past the budget.
	cfg.Opts.Inverter = slowInverter{d: budget * 4 / 5, inner: numeric.NewEuler()}
	cfg.Opts.EvalTimeout = budget
	_, ts := newTestServer(t, cfg)
	ingestHTTP(t, ts.URL, 50, 4, nil)

	type result struct {
		status  int
		elapsed time.Duration
	}
	results := make(chan result, clients)
	for i := 0; i < clients; i++ {
		go func() {
			start := time.Now()
			resp, err := http.Get(ts.URL + "/predict?sla=0.02,0.04")
			if err != nil {
				results <- result{status: -1, elapsed: time.Since(start)}
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			results <- result{status: resp.StatusCode, elapsed: time.Since(start)}
		}()
	}
	for i := 0; i < clients; i++ {
		r := <-results
		if r.status != http.StatusServiceUnavailable {
			t.Errorf("status %d, want 503", r.status)
		}
		// One budget plus one in-flight inversion and scheduling slack; a
		// serialized takeover would need clients×budget.
		if r.elapsed > 3*budget {
			t.Errorf("a client waited %v for its 503, want ≈%v", r.elapsed, budget)
		}
	}
	var m MetricsResponse
	getJSON(t, ts.URL+"/metrics", &m)
	if m.Shed != 0 {
		t.Errorf("%d requests shed; the 503s must come from the budget", m.Shed)
	}
}

// ---------------------------------------------------------------------------
// Numerical poisoning.

// TestNumericalFailureReturns500 injects an inverter that yields NaN with
// fallbacks disabled: the answer must be a structured 500 JSON error naming
// the failure, never a 200 carrying NaN.
func TestNumericalFailureReturns500(t *testing.T) {
	cfg := testConfig()
	cfg.Opts.Inverter = nanInverter{}
	cfg.Opts.Fallbacks = []numeric.Inverter{} // non-nil empty: disabled
	_, ts := newTestServer(t, cfg)
	ingestHTTP(t, ts.URL, 50, 4, nil)

	resp, err := http.Get(ts.URL + "/predict")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500 (body %s)", resp.StatusCode, body)
	}
	var eb errorBody
	if err := json.Unmarshal(body, &eb); err != nil {
		t.Fatalf("500 body %q is not the structured error payload: %v", body, err)
	}
	if !strings.Contains(eb.Error, "invert") && !strings.Contains(eb.Error, "numeric") {
		t.Errorf("error %q does not describe the numerical failure", eb.Error)
	}
	var m MetricsResponse
	getJSON(t, ts.URL+"/metrics", &m)
	if m.NumericalFails < 1 {
		t.Errorf("numericalFailures = %d, want ≥1", m.NumericalFails)
	}

	// Health stays "ok": nothing was recovered by a fallback, the failure
	// was surfaced instead.
	var h HealthResponse
	getJSON(t, ts.URL+"/healthz", &h)
	if h.Status != "ok" {
		t.Errorf("healthz %q", h.Status)
	}
}

// TestFallbackRecoversAndDegradesHealth leaves the default fallback chain in
// place behind the poisoned primary: predictions keep flowing (200 with a
// sane value), the fallback is counted, and /healthz flips to "degraded".
func TestFallbackRecoversAndDegradesHealth(t *testing.T) {
	cfg := testConfig()
	cfg.Opts.Inverter = nanInverter{}
	_, ts := newTestServer(t, cfg)
	ingestHTTP(t, ts.URL, 50, 4, nil)

	var pr PredictResponse
	if resp := getJSON(t, ts.URL+"/predict?sla=0.05", &pr); resp.StatusCode != http.StatusOK {
		t.Fatalf("predict with fallbacks available: %d", resp.StatusCode)
	}
	if len(pr.Predictions) != 1 {
		t.Fatalf("predictions %+v", pr.Predictions)
	}
	if v := pr.Predictions[0].MeetRatio; !(v > 0 && v <= 1) {
		t.Errorf("recovered meet ratio %v outside (0,1]", v)
	}

	var m MetricsResponse
	getJSON(t, ts.URL+"/metrics", &m)
	if m.Fallbacks < 1 {
		t.Errorf("inverterFallbacks = %d, want ≥1", m.Fallbacks)
	}
	if m.LastFallbackAge < 0 {
		t.Errorf("lastFallbackAgeSeconds = %v, want ≥0", m.LastFallbackAge)
	}
	var h HealthResponse
	getJSON(t, ts.URL+"/healthz", &h)
	if h.Status != "degraded" {
		t.Errorf("healthz %q after an inverter fallback, want degraded", h.Status)
	}
}

// ---------------------------------------------------------------------------
// Panics.

// TestPanicInEvaluationRecovered injects a device transform that panics
// inside the pooled evaluation: every request gets a structured 500, the
// panic is counted, and — the actual point — no in-flight slot or pool
// worker leaks, so the server keeps answering at full capacity afterwards.
func TestPanicInEvaluationRecovered(t *testing.T) {
	cfg := testConfig()
	cfg.Props.ParseBE = panicLST{cfg.Props.ParseBE}
	s, ts := newTestServer(t, cfg)
	ingestHTTP(t, ts.URL, 50, 4, nil)

	for i := 0; i < 8; i++ {
		resp, err := http.Get(fmt.Sprintf("%s/predict?sla=%g", ts.URL, 0.05+float64(i)*1e-3))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("request %d: status %d (body %s), want 500", i, resp.StatusCode, body)
		}
		var eb errorBody
		if err := json.Unmarshal(body, &eb); err != nil {
			t.Fatalf("request %d: body %q not structured: %v", i, body, err)
		}
		if !strings.Contains(eb.Error, "task panicked") {
			t.Errorf("request %d: error %q is not the pool's recovered panic", i, eb.Error)
		}
	}
	var m MetricsResponse
	getJSON(t, ts.URL+"/metrics", &m)
	if m.PanicsRecov < 8 {
		t.Errorf("panicsRecovered = %d, want ≥8", m.PanicsRecov)
	}
	if m.Inflight != 0 || len(s.sem) != 0 {
		t.Errorf("slot leak after panics: inflight=%d sem=%d", m.Inflight, len(s.sem))
	}
	if m.Shed != 0 {
		t.Errorf("sequential requests were shed (%d): slots leaked", m.Shed)
	}
	// The process is still healthy: liveness holds and ingest still works.
	var h HealthResponse
	if resp := getJSON(t, ts.URL+"/healthz", &h); resp.StatusCode != http.StatusOK {
		t.Errorf("healthz %d after panics", resp.StatusCode)
	}
	ingestHTTP(t, ts.URL, 60, 4, nil)
}

// TestRecoverMiddleware exercises the handler-level recovery directly: a
// panicking handler becomes a logged, counted 500; http.ErrAbortHandler is
// re-raised untouched (net/http's sanctioned abort).
func TestRecoverMiddleware(t *testing.T) {
	var mu sync.Mutex
	var logged []string
	cfg := testConfig()
	cfg.Logf = func(format string, args ...any) {
		mu.Lock()
		logged = append(logged, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}

	h := s.recoverMiddleware(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic("handler exploded")
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/predict", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Errorf("status %d, want 500", rec.Code)
	}
	var eb errorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil || !strings.Contains(eb.Error, "panic") {
		t.Errorf("body %q (%v)", rec.Body.String(), err)
	}
	if s.panics.Value() != 1 {
		t.Errorf("panics counter %d, want 1", s.panics.Value())
	}
	mu.Lock()
	nlogs := len(logged)
	stack := nlogs > 0 && strings.Contains(logged[0], "handler exploded") && strings.Contains(logged[0], "goroutine")
	mu.Unlock()
	if nlogs == 0 || !stack {
		t.Errorf("panic not logged with its stack: %q", logged)
	}

	abort := s.recoverMiddleware(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic(http.ErrAbortHandler)
	}))
	func() {
		defer func() {
			if r := recover(); r == nil {
				t.Error("ErrAbortHandler was swallowed; net/http needs it re-raised")
			}
		}()
		abort.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/x", nil))
	}()
}

// ---------------------------------------------------------------------------
// Load shedding under concurrent pressure.

// TestLoadShedHammer hammers a MaxInflight=2 server with distinct slow
// queries from many goroutines: every answer is a clean 200 or a 503 with
// Retry-After, both actually occur, the shed counter matches, and afterwards
// the in-flight gauge and the slot pool are exactly empty.
func TestLoadShedHammer(t *testing.T) {
	cfg := testConfig()
	cfg.MaxInflight = 2
	cfg.Opts.Inverter = slowInverter{d: 10 * time.Millisecond, inner: numeric.NewEuler()}
	s, ts := newTestServer(t, cfg)
	ingestHTTP(t, ts.URL, 50, 4, nil)

	const (
		clients = 16
		iters   = 4
	)
	var ok, shed, retryAfterMissing atomic.Uint64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				// Distinct SLA per request defeats the memo cache, forcing
				// each 200 to hold its slot for a real evaluation.
				sla := 0.010 + float64(c*iters+i)*1e-4
				resp, err := http.Get(fmt.Sprintf("%s/predict?sla=%g", ts.URL, sla))
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body) //nolint:errcheck
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusOK:
					ok.Add(1)
				case http.StatusServiceUnavailable:
					shed.Add(1)
					if resp.Header.Get("Retry-After") == "" {
						retryAfterMissing.Add(1)
					}
				default:
					t.Errorf("status %d", resp.StatusCode)
				}
			}
		}(c)
	}
	wg.Wait()

	if ok.Load() == 0 || shed.Load() == 0 {
		t.Errorf("hammer saw %d OK / %d shed; want both under MaxInflight=2", ok.Load(), shed.Load())
	}
	if retryAfterMissing.Load() != 0 {
		t.Errorf("%d sheds lacked Retry-After", retryAfterMissing.Load())
	}
	var m MetricsResponse
	getJSON(t, ts.URL+"/metrics", &m)
	if m.Shed != shed.Load() {
		t.Errorf("shed counter %d, clients observed %d", m.Shed, shed.Load())
	}
	if m.Inflight != 0 || len(s.sem) != 0 {
		t.Errorf("after drain: inflight=%d sem=%d, want 0/0", m.Inflight, len(s.sem))
	}
}

// ---------------------------------------------------------------------------
// Oversized bodies.

// TestOversizedBodyRejected413 posts an ingest body past the 1 MiB cap: the
// request dies with 413 (not 400, not an unbounded read), is counted, and a
// normal request still works afterwards.
func TestOversizedBodyRejected413(t *testing.T) {
	_, ts := newTestServer(t, testConfig())

	// A structurally valid payload whose latencies array alone exceeds the
	// cap, so the limit — not the JSON syntax — is what kills it. The excess
	// stays under net/http's post-handler drain allowance (256 KiB) so the
	// client reliably reads the 413 instead of racing a connection reset.
	huge := `{"observations":[{"device":0,"interval":1,"latencies":[` +
		strings.Repeat("0.001,", 200_000) + `0.001]}]}`
	if len(huge) <= maxBodyBytes || len(huge) > maxBodyBytes+200_000 {
		t.Fatalf("test body %d bytes, want just over the %d cap", len(huge), maxBodyBytes)
	}
	resp, err := http.Post(ts.URL+"/ingest", "application/json", strings.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d (body %s), want 413", resp.StatusCode, body)
	}
	var m MetricsResponse
	getJSON(t, ts.URL+"/metrics", &m)
	if m.TooLarge != 1 {
		t.Errorf("oversizedBodies = %d, want 1", m.TooLarge)
	}
	if m.BadRequests != 0 {
		t.Errorf("oversized body was double-counted as a bad request (%d)", m.BadRequests)
	}
	// The server is unharmed: a sane ingest succeeds.
	ingestHTTP(t, ts.URL, 50, 4, nil)
}

// ---------------------------------------------------------------------------
// Transport hardening: slow loris and graceful shutdown.

// serveOnLoopback starts srv via ServeGraceful on an ephemeral loopback
// listener and returns the address, the cancel that initiates shutdown, and
// a channel carrying ServeGraceful's result.
func serveOnLoopback(t *testing.T, srv *http.Server, grace time.Duration) (string, context.CancelFunc, <-chan error) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- ServeGraceful(ctx, srv, ln, grace) }()
	t.Cleanup(func() {
		cancel()
		srv.Close() //nolint:errcheck // teardown: the drain result, if any, was read by the test body
	})
	return ln.Addr().String(), cancel, done
}

// TestSlowLorisConnectionReaped dials the hardened server and dribbles an
// eternally incomplete header: the ReadHeaderTimeout must reap the
// connection instead of letting it pin a goroutine forever.
func TestSlowLorisConnectionReaped(t *testing.T) {
	srv := NewHTTPServer("", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	}), HTTPTimeouts{
		ReadHeader: 100 * time.Millisecond,
		Read:       200 * time.Millisecond,
		Write:      time.Second,
		Idle:       time.Second,
	})
	addr, _, _ := serveOnLoopback(t, srv, time.Second)

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("GET /healthz HTTP/1.1\r\nHost: x\r\nX-Drib")); err != nil {
		t.Fatal(err)
	}
	// Never finish the header; the server must reap the connection — either
	// silently or with a 4xx error (net/http answers a timed-out partial
	// header with 408 or 400) — and must never serve the request.
	conn.SetReadDeadline(time.Now().Add(3 * time.Second)) //nolint:errcheck
	start := time.Now()
	reply, err := io.ReadAll(conn)
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatal("server never reaped the slow-loris connection")
	}
	if len(reply) > 0 && !strings.Contains(string(reply), " 408 ") && !strings.Contains(string(reply), " 400 ") {
		t.Fatalf("incomplete header answered with %q, want nothing or a 4xx reap", reply)
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Errorf("connection reaped only after %v", el)
	}
}

// TestGracefulShutdownDrains cancels the serve context while a request is in
// flight: the in-flight response completes, ServeGraceful returns nil (clean
// drain), and the listener stops accepting new connections.
func TestGracefulShutdownDrains(t *testing.T) {
	started := make(chan struct{})
	srv := NewHTTPServer("", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(started)
		time.Sleep(300 * time.Millisecond)
		io.WriteString(w, "drained") //nolint:errcheck
	}), HTTPTimeouts{})
	addr, cancel, done := serveOnLoopback(t, srv, 5*time.Second)

	type result struct {
		body string
		err  error
	}
	got := make(chan result, 1)
	go func() {
		resp, err := http.Get("http://" + addr + "/")
		if err != nil {
			got <- result{err: err}
			return
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		got <- result{body: string(body), err: err}
	}()
	<-started
	cancel() // shutdown begins with the request still running

	select {
	case r := <-got:
		if r.err != nil || r.body != "drained" {
			t.Fatalf("in-flight request: %q, %v", r.body, r.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight request never completed")
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("clean drain returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ServeGraceful did not return after the drain")
	}
	if _, err := net.DialTimeout("tcp", addr, 500*time.Millisecond); err == nil {
		t.Error("listener still accepting after shutdown")
	}
}

// TestGracefulShutdownGraceExpires pins the other edge: a handler that will
// not finish within the grace forces ServeGraceful to give up with
// context.DeadlineExceeded instead of hanging forever.
func TestGracefulShutdownGraceExpires(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{})
	srv := NewHTTPServer("", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(started)
		select {
		case <-release:
		case <-time.After(10 * time.Second):
		}
	}), HTTPTimeouts{})
	t.Cleanup(func() { close(release) })
	addr, cancel, done := serveOnLoopback(t, srv, 50*time.Millisecond)

	go func() {
		resp, err := http.Get("http://" + addr + "/")
		if err == nil {
			resp.Body.Close()
		}
	}()
	<-started
	cancel()

	select {
	case err := <-done:
		if err == nil || !isContextErr(err) {
			t.Fatalf("expired grace returned %v, want a deadline error", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ServeGraceful hung past its grace")
	}
}

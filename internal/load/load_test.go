package load

import (
	"context"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"cosmodel/internal/core"
	"cosmodel/internal/dist"
	"cosmodel/internal/ingest"
	"cosmodel/internal/serve"
	"cosmodel/internal/trace"
)

func testProps() core.DeviceProperties {
	return core.DeviceProperties{
		IndexDisk: dist.NewGammaMeanSCV(9e-3, 0.45),
		MetaDisk:  dist.NewGammaMeanSCV(6e-3, 0.50),
		DataDisk:  dist.NewGammaMeanSCV(8e-3, 0.40),
		ParseFE:   dist.Degenerate{Value: 300e-6},
		ParseBE:   dist.Degenerate{Value: 500e-6},
	}
}

func testServer(t *testing.T, devices int) *httptest.Server {
	t.Helper()
	cfg := serve.DefaultConfig(testProps(), devices)
	srv, err := serve.NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// TestConfigValidate pins the rejection matrix.
func TestConfigValidate(t *testing.T) {
	good := Config{
		Target:   "http://x",
		Devices:  2,
		Schedule: trace.Schedule{{Rate: 10, Duration: 1, Label: "rate=10"}},
	}
	if err := good.validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	for name, mutate := range map[string]func(*Config){
		"no target":         func(c *Config) { c.Target = "" },
		"blank target list": func(c *Config) { c.Targets = []string{"http://a", " "} },
		"no devices":        func(c *Config) { c.Devices = 0 },
		"bad mode":          func(c *Config) { c.Mode = "xml" },
		"neg predict":       func(c *Config) { c.PredictRate = -1 },
		"neg inflight":      func(c *Config) { c.MaxInflight = -1 },
		"empty schedule":    func(c *Config) { c.Schedule = nil },
	} {
		c := good
		mutate(&c)
		if err := c.validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestRunAgainstServe drives a real in-process serving instance with both
// streams and cross-checks the client-side accounting against the engine:
// every observation the client counted as accepted must be in the state
// table — the zero-silent-drops contract, end to end.
func TestRunAgainstServe(t *testing.T) {
	const devices = 3
	cfg := serve.DefaultConfig(testProps(), devices)
	srv, err := serve.NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, mode := range []string{ModeJSON, ModeNDJSON} {
		t.Run(mode, func(t *testing.T) {
			before := srv.Engine().Stats().Ingested
			rep, err := Run(context.Background(), Config{
				Target:  ts.URL,
				Devices: devices,
				Mode:    mode,
				Schedule: trace.Schedule{
					{Rate: 300, Duration: 0.1, Label: "warmup"},
					{Rate: 300, Duration: 0.4, Label: "rate=300"},
				},
				PredictRate: 100,
				Seed:        7,
				Logf:        t.Logf,
			})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Ingest.OK == 0 {
				t.Fatalf("no successful ingests: %+v", rep.Ingest)
			}
			if rep.Ingest.Errors != 0 || rep.Ingest.Dropped != 0 {
				t.Fatalf("lossless run saw errors/drops: %+v", rep.Ingest)
			}
			if rep.Predict.OK == 0 {
				t.Fatalf("no successful predicts: %+v", rep.Predict)
			}
			if rep.Observations != rep.Ingest.OK*uint64(devices) {
				t.Fatalf("observations %d, want %d acks x %d devices",
					rep.Observations, rep.Ingest.OK, devices)
			}
			// Measured-window accepted counts are a lower bound on the
			// engine's total (warmup batches land too, uncounted).
			delta := srv.Engine().Stats().Ingested - before
			if delta < rep.Observations {
				t.Fatalf("engine absorbed %d, client counted %d accepted", delta, rep.Observations)
			}
			if rep.ObsPerSec <= 0 || rep.PredictQPS <= 0 {
				t.Fatalf("throughput not reported: %+v", rep)
			}
			if rep.Ingest.P99 < rep.Ingest.P50 {
				t.Fatalf("percentiles inverted: %+v", rep.Ingest)
			}
			if rep.MeasuredSeconds < 0.35 || rep.MeasuredSeconds > 2 {
				t.Fatalf("measured window %.3fs, want ~0.4s", rep.MeasuredSeconds)
			}
			var arrivals uint64
			for _, p := range rep.Phases {
				if strings.HasPrefix(p.Label, "rate=") {
					arrivals += p.Arrivals
				}
			}
			if arrivals != rep.Ingest.Sent+rep.Ingest.Dropped {
				t.Fatalf("arrival accounting: %d arrivals vs %d sent + %d dropped",
					arrivals, rep.Ingest.Sent, rep.Ingest.Dropped)
			}
		})
	}
}

// TestOpenLoopDrops pins the open-loop contract: with one in-flight slot
// and a slow server, arrivals overflow and are counted, never blocked on.
func TestOpenLoopDrops(t *testing.T) {
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(50 * time.Millisecond)
		w.Write([]byte(`{"accepted":1}`)) //nolint:errcheck
	}))
	defer slow.Close()

	start := time.Now()
	rep, err := Run(context.Background(), Config{
		Target:      slow.URL,
		Devices:     1,
		MaxInflight: 1,
		Schedule:    trace.Schedule{{Rate: 400, Duration: 0.25, Label: "rate=400"}},
		Seed:        3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ingest.Dropped == 0 {
		t.Fatalf("saturated run dropped nothing: %+v", rep.Ingest)
	}
	if rep.Ingest.Sent+rep.Ingest.Dropped < 50 {
		t.Fatalf("offered load collapsed — closed-loop behavior? %+v", rep.Ingest)
	}
	// Open-loop: the schedule finishes on time (plus request drain), not
	// stretched by the server's latency.
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("run took %v; generator blocked on the slow server", elapsed)
	}
}

// TestOpenLoopKeepsSchedule: arrivals keep their Poisson schedule however
// long building a batch takes — every arrival due in the phase is offered
// (sent or dropped), the late ones at once.
func TestOpenLoopKeepsSchedule(t *testing.T) {
	const rate, seconds, seed = 400.0, 0.25, 7
	due := 0
	rng := rand.New(rand.NewSource(seed)) //nolint:gosec // mirrors the generator's draws
	for at := rng.ExpFloat64() / rate; at <= seconds; at += rng.ExpFloat64() / rate {
		due++
	}
	ts := testServer(t, 1)
	rep, err := Run(context.Background(), Config{
		Target:      ts.URL,
		Devices:     1,
		MaxInflight: 4,
		Schedule:    trace.Schedule{{Rate: rate, Duration: seconds, Label: "rate=400"}},
		Seed:        seed,
		MakeBatch: func(seq int) []ingest.Observation {
			time.Sleep(3 * time.Millisecond) // a costly batch builder
			return SyntheticSource(1)(seq)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Phases[0].Arrivals; got != uint64(due) {
		t.Fatalf("offered %d arrivals, %d were due", got, due)
	}
	if got := rep.Ingest.Sent + rep.Ingest.Dropped; got != uint64(due) {
		t.Fatalf("sent %d + dropped %d, want the %d due", rep.Ingest.Sent, rep.Ingest.Dropped, due)
	}
}

// TestMultiTargetFanOut pins the round-robin fan-out contract: arrivals
// alternate over the target list, each target has its own in-flight slot
// pool, and a saturated target's drops are charged to it alone — the
// healthy target keeps its full share of the offered load.
func TestMultiTargetFanOut(t *testing.T) {
	fast := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"accepted":1}`)) //nolint:errcheck
	}))
	defer fast.Close()
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(100 * time.Millisecond)
		w.Write([]byte(`{"accepted":1}`)) //nolint:errcheck
	}))
	defer slow.Close()

	// Eight slots per target: the fast target's round trip would have to
	// stall for eight of its arrivals before it dropped one, while the
	// slow one serves at most 80/s of the ~200/s it is offered.
	rep, err := Run(context.Background(), Config{
		Targets:     []string{fast.URL, slow.URL},
		Devices:     1,
		MaxInflight: 8,
		Schedule:    trace.Schedule{{Rate: 400, Duration: 0.25, Label: "rate=400"}},
		Seed:        5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Targets) != 2 {
		t.Fatalf("want 2 target reports, got %+v", rep.Targets)
	}
	ft, st := rep.Targets[0], rep.Targets[1]
	if ft.Target != fast.URL || st.Target != slow.URL {
		t.Fatalf("target order not preserved: %+v", rep.Targets)
	}
	if ft.IngestOK == 0 || st.IngestOK == 0 {
		t.Fatalf("round-robin starved a target: fast %+v slow %+v", ft, st)
	}
	// The slow shard must drop heavily (8 slots, 100ms service, ~200/s
	// offered) while the fast one sees at most transient overlap — its slot
	// pool is independent, so the saturation cannot spill over.
	if st.IngestDropped < 10 {
		t.Fatalf("saturated target dropped almost nothing: %+v", st)
	}
	if ft.IngestDropped*5 >= st.IngestDropped {
		t.Fatalf("drops not isolated to the slow target: fast %+v slow %+v", ft, st)
	}
	// Per-target accounting must tile the stream totals exactly.
	if got := ft.IngestOK + st.IngestOK; got != rep.Ingest.OK {
		t.Fatalf("per-target OK %d != stream OK %d", got, rep.Ingest.OK)
	}
	if got := ft.IngestDropped + st.IngestDropped; got != rep.Ingest.Dropped {
		t.Fatalf("per-target dropped %d != stream dropped %d", got, rep.Ingest.Dropped)
	}
	if got := ft.IngestErrors + st.IngestErrors; got != rep.Ingest.Errors {
		t.Fatalf("per-target errors %d != stream errors %d", got, rep.Ingest.Errors)
	}

	var b strings.Builder
	if err := rep.Render(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), slow.URL) {
		t.Fatalf("multi-target summary missing per-target lines:\n%s", b.String())
	}
}

// TestRunContextCancel returns the partial report promptly.
func TestRunContextCancel(t *testing.T) {
	ts := testServer(t, 2)
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	rep, err := Run(ctx, Config{
		Target:   ts.URL,
		Devices:  2,
		Schedule: trace.Schedule{{Rate: 50, Duration: 30, Label: "rate=50"}},
	})
	if err == nil {
		t.Fatal("cancelled run reported no error")
	}
	if rep == nil {
		t.Fatal("cancelled run returned no partial report")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
}

// TestRenderReport smoke-tests the human summary.
func TestRenderReport(t *testing.T) {
	ts := testServer(t, 2)
	rep, err := Run(context.Background(), Config{
		Target:      ts.URL,
		Devices:     2,
		Schedule:    trace.Schedule{{Rate: 100, Duration: 0.2, Label: "rate=100"}},
		PredictRate: 50,
	})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := rep.Render(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"rate=100", "ingest", "predict", "obs/s"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
}

// Package load is the open-loop client driver for the serving tier: it
// replays a trace.Schedule of arrival rates against a cosserve or cosrouter
// endpoint, posting observation batches (JSON array or streaming NDJSON)
// and predict probes on independent Poisson processes.
//
// Open-loop means arrivals never wait for responses: each arrival either
// claims an in-flight slot or is dropped and counted, so a saturated
// service sees the offered rate — not a rate throttled by its own latency —
// exactly the arrival discipline the paper's percentile claims are stated
// under. Phases labelled "warmup" or "transition" run at full rate but are
// excluded from the measured report.
package load

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cosmodel/internal/ingest"
	"cosmodel/internal/serve"
	"cosmodel/internal/stats"
	"cosmodel/internal/trace"
)

// ErrBadConfig reports an unusable generator configuration.
var ErrBadConfig = errors.New("load: bad config")

// Config describes one open-loop run.
type Config struct {
	// Target is the base URL of the service under test (cosserve or
	// cosrouter — both speak the same /ingest and /predict surface).
	Target string

	// Targets, when non-empty, fans the run out over several base URLs
	// round-robin (arrival i goes to target i mod len(Targets)), so a
	// sharded tier saturates symmetrically instead of hammering one node.
	// Overrides Target. Each target gets its own in-flight slot pool and
	// its own drop accounting: one slow shard exhausts only its own slots
	// and shows up in the per-target report, never throttling (or hiding
	// behind) the healthy ones.
	Targets []string

	// Schedule drives the ingest stream: each phase offers Poisson batch
	// arrivals at Phase.Rate per second for Phase.Duration seconds. Phases
	// labelled "warmup" or "transition" are generated but not measured.
	Schedule trace.Schedule

	// Devices is the deployment size observations are generated for.
	Devices int

	// MakeBatch produces the observations carried by the seq-th ingest
	// arrival. Nil selects SyntheticSource(Devices). Implementations are
	// called from a single goroutine, in arrival order.
	MakeBatch func(seq int) []ingest.Observation

	// Mode selects the ingest wire format: "json" (array envelope) or
	// "ndjson" (streaming). Empty defaults to NDJSON — the batch path.
	Mode string

	// PredictRate adds an independent Poisson stream of /predict probes at
	// this rate for the whole schedule. Zero disables the stream.
	PredictRate float64

	// MaxInflight caps concurrently outstanding requests per target across
	// both streams. An arrival finding no free slot on its target is
	// dropped and counted against that target — the generator never
	// blocks, and a saturated target cannot starve the others' slots.
	// Zero defaults to 256.
	MaxInflight int

	// Seed fixes the arrival processes. Zero means seed 1.
	Seed int64

	// Client overrides the HTTP client (tests, custom timeouts).
	Client *http.Client

	// Logf, when set, receives phase-transition progress lines.
	Logf func(format string, args ...any)
}

func (c *Config) validate() error {
	for _, t := range c.Targets {
		if strings.TrimSpace(t) == "" {
			return fmt.Errorf("%w: empty entry in target list", ErrBadConfig)
		}
	}
	switch {
	case c.Target == "" && len(c.Targets) == 0:
		return fmt.Errorf("%w: empty target", ErrBadConfig)
	case c.Devices <= 0:
		return fmt.Errorf("%w: devices %d", ErrBadConfig, c.Devices)
	case c.Mode != "" && c.Mode != ModeJSON && c.Mode != ModeNDJSON:
		return fmt.Errorf("%w: mode %q (want %q or %q)", ErrBadConfig, c.Mode, ModeJSON, ModeNDJSON)
	case c.PredictRate < 0:
		return fmt.Errorf("%w: predict rate %v", ErrBadConfig, c.PredictRate)
	case c.MaxInflight < 0:
		return fmt.Errorf("%w: max inflight %d", ErrBadConfig, c.MaxInflight)
	}
	return c.Schedule.Validate()
}

// Ingest wire modes.
const (
	ModeJSON   = "json"
	ModeNDJSON = "ndjson"
)

// SyntheticSource returns a batch generator describing a steady storage
// workload: every device reports one interval at rate req/s with fixed
// cache ratios and two latency samples per observation. It is the default
// observation content when the run only cares about ingest throughput.
func SyntheticSource(devices int) func(seq int) []ingest.Observation {
	return func(seq int) []ingest.Observation {
		const interval, rate = 10.0, 50.0
		batch := make([]ingest.Observation, devices)
		for d := range batch {
			reqs := uint64(rate * interval)
			batch[d] = ingest.Observation{
				Device:      d,
				Interval:    interval,
				Requests:    reqs,
				DataReads:   reqs + reqs/5,
				IndexHits:   700,
				IndexMisses: 300,
				MetaHits:    650,
				MetaMisses:  350,
				DataHits:    500,
				DataMisses:  500,
				Latencies:   []float64{0.004, 0.009},
			}
		}
		return batch
	}
}

// StreamReport summarizes one request stream over the measured phases.
type StreamReport struct {
	// Sent counts requests issued, OK the 200 answers, Errors everything
	// else (non-200 status or transport failure). Dropped counts arrivals
	// that found no free in-flight slot — the open-loop overflow.
	Sent    uint64 `json:"sent"`
	OK      uint64 `json:"ok"`
	Errors  uint64 `json:"errors"`
	Dropped uint64 `json:"dropped"`
	// Statuses histograms HTTP status codes (0 = transport error).
	Statuses map[int]uint64 `json:"statuses,omitempty"`
	// Client-observed request latency percentiles, seconds.
	P50  float64 `json:"p50"`
	P90  float64 `json:"p90"`
	P99  float64 `json:"p99"`
	Max  float64 `json:"max"`
	Mean float64 `json:"mean"`
	// Rate is the achieved completed-OK rate per measured second.
	Rate float64 `json:"rate"`
}

// PhaseReport is the per-phase arrival accounting (all phases, including
// the unmeasured warmup and transition).
type PhaseReport struct {
	Label      string  `json:"label"`
	TargetRate float64 `json:"targetRate"`
	Duration   float64 `json:"duration"`
	Arrivals   uint64  `json:"arrivals"`
	Dropped    uint64  `json:"dropped"`
}

// TargetReport is one target's slice of a measured run: completed and
// failed requests plus the open-loop drops charged to that target's own
// in-flight slot pool.
type TargetReport struct {
	Target         string `json:"target"`
	IngestOK       uint64 `json:"ingestOK"`
	IngestErrors   uint64 `json:"ingestErrors"`
	IngestDropped  uint64 `json:"ingestDropped"`
	PredictOK      uint64 `json:"predictOK"`
	PredictErrors  uint64 `json:"predictErrors"`
	PredictDropped uint64 `json:"predictDropped"`
}

// Report is the outcome of one run. Stream and throughput numbers cover
// only the benchmark phases; Phases covers everything.
type Report struct {
	Phases []PhaseReport `json:"phases"`
	// MeasuredSeconds is the wall time spent inside benchmark phases.
	MeasuredSeconds float64 `json:"measuredSeconds"`

	Ingest  StreamReport `json:"ingest"`
	Predict StreamReport `json:"predict"`

	// Targets breaks the measured streams down per fan-out target (one
	// entry even in the single-target case, preserving the accounting).
	Targets []TargetReport `json:"targets,omitempty"`

	// Observations counts observations acknowledged by the service during
	// the measured phases (summed from ingest acks — what the server
	// admits, not what the client offered).
	Observations uint64 `json:"observations"`
	// ObsPerSec is the sustained accepted-observation throughput and
	// PredictQPS the completed predict-probe rate, both over the
	// measured window.
	ObsPerSec  float64 `json:"obsPerSec"`
	PredictQPS float64 `json:"predictQPS"`
}

// streamStats accumulates one stream's counters; latencies go to a
// concurrent histogram so request goroutines never serialize on a report
// lock.
type streamStats struct {
	sent, ok, errs, dropped atomic.Uint64
	observations            atomic.Uint64
	lat                     *stats.ConcurrentHistogram
	mu                      sync.Mutex
	statuses                map[int]uint64
}

func newStreamStats() *streamStats {
	return &streamStats{
		lat:      stats.NewConcurrentLatencyHistogram(),
		statuses: make(map[int]uint64),
	}
}

func (s *streamStats) status(code int) {
	s.mu.Lock()
	s.statuses[code]++
	s.mu.Unlock()
}

func (s *streamStats) report(measured float64) StreamReport {
	r := StreamReport{
		Sent:    s.sent.Load(),
		OK:      s.ok.Load(),
		Errors:  s.errs.Load(),
		Dropped: s.dropped.Load(),
	}
	s.mu.Lock()
	if len(s.statuses) > 0 {
		r.Statuses = make(map[int]uint64, len(s.statuses))
		for k, v := range s.statuses {
			r.Statuses[k] = v
		}
	}
	s.mu.Unlock()
	if s.lat.Count() > 0 {
		r.P50 = s.lat.Quantile(0.50)
		r.P90 = s.lat.Quantile(0.90)
		r.P99 = s.lat.Quantile(0.99)
		r.Max = s.lat.Max()
		r.Mean = s.lat.Mean()
	}
	if measured > 0 {
		r.Rate = float64(r.OK) / measured
	}
	return r
}

// targetStats is the per-target accounting of one run: each target owns its
// own counters so a saturated shard is visible instead of averaged away.
type targetStats struct {
	ingestOK, ingestErrs, ingestDropped    atomic.Uint64
	predictOK, predictErrs, predictDropped atomic.Uint64
}

// runner is the shared state of one Run.
type runner struct {
	cfg     Config
	client  *http.Client
	targets []string
	// slots holds one in-flight pool per target: slot exhaustion on one
	// target drops only that target's arrivals.
	slots  []chan struct{}
	tstats []*targetStats
	wg     sync.WaitGroup

	measuring atomic.Bool
	ingest    *streamStats
	predict   *streamStats
}

// Run executes the configured schedule and blocks until every phase has
// elapsed and all in-flight requests finished. ctx cancellation stops the
// run early; the partial report is still returned.
func Run(ctx context.Context, cfg Config) (*Report, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Mode == "" {
		cfg.Mode = ModeNDJSON
	}
	if cfg.MaxInflight == 0 {
		cfg.MaxInflight = 256
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.MakeBatch == nil {
		cfg.MakeBatch = SyntheticSource(cfg.Devices)
	}
	targets := cfg.Targets
	if len(targets) == 0 {
		targets = []string{cfg.Target}
	}
	r := &runner{
		cfg:     cfg,
		client:  cfg.Client,
		targets: targets,
		slots:   make([]chan struct{}, len(targets)),
		tstats:  make([]*targetStats, len(targets)),
		ingest:  newStreamStats(),
		predict: newStreamStats(),
	}
	for i := range targets {
		r.slots[i] = make(chan struct{}, cfg.MaxInflight)
		r.tstats[i] = &targetStats{}
	}
	if r.client == nil {
		r.client = &http.Client{Timeout: 30 * time.Second}
	}

	// The predict stream runs for the whole schedule and stops when the
	// ingest stream (the phase owner) finishes.
	done := make(chan struct{})
	var predictWG sync.WaitGroup
	if cfg.PredictRate > 0 {
		predictWG.Add(1)
		go func() {
			defer predictWG.Done()
			r.predictLoop(ctx, done)
		}()
	}

	report := &Report{}
	measured := r.ingestLoop(ctx, report)
	close(done)
	predictWG.Wait()
	r.wg.Wait() // in-flight requests drain before percentiles are read

	report.MeasuredSeconds = measured
	report.Ingest = r.ingest.report(measured)
	report.Predict = r.predict.report(measured)
	for i, t := range r.targets {
		ts := r.tstats[i]
		report.Targets = append(report.Targets, TargetReport{
			Target:         t,
			IngestOK:       ts.ingestOK.Load(),
			IngestErrors:   ts.ingestErrs.Load(),
			IngestDropped:  ts.ingestDropped.Load(),
			PredictOK:      ts.predictOK.Load(),
			PredictErrors:  ts.predictErrs.Load(),
			PredictDropped: ts.predictDropped.Load(),
		})
	}
	report.Observations = r.ingest.observations.Load()
	if measured > 0 {
		report.ObsPerSec = float64(report.Observations) / measured
		report.PredictQPS = report.Predict.Rate
	}
	if ctx.Err() != nil {
		return report, ctx.Err()
	}
	return report, nil
}

// ingestLoop walks the schedule, emitting Poisson batch arrivals at each
// phase's rate and toggling the measurement flag around benchmark phases.
// Arrival times are drawn from the phase start, not from the previous
// launch: building a batch or a late timer delays that one arrival, and
// the ones that fell due meanwhile go out at once, so the offered rate is
// the phase's. Returns the wall seconds spent measuring.
func (r *runner) ingestLoop(ctx context.Context, report *Report) float64 {
	rng := rand.New(rand.NewSource(r.cfg.Seed)) //nolint:gosec // load generation, not crypto
	benchmark := make(map[int]bool)
	for _, i := range r.cfg.Schedule.BenchmarkPhases() {
		benchmark[i] = true
	}
	seq := 0
	var measuredNS int64
	for pi, phase := range r.cfg.Schedule {
		pr := PhaseReport{Label: phase.Label, TargetRate: phase.Rate, Duration: phase.Duration}
		r.measuring.Store(benchmark[pi])
		if r.cfg.Logf != nil {
			r.cfg.Logf("load: phase %d %q rate %.1f/s for %.2fs (measured=%v)",
				pi, phase.Label, phase.Rate, phase.Duration, benchmark[pi])
		}
		start := time.Now()
		deadline := start.Add(time.Duration(phase.Duration * float64(time.Second)))
		next := start
		for {
			next = next.Add(time.Duration(rng.ExpFloat64() / phase.Rate * float64(time.Second)))
			if next.After(deadline) {
				sleepUntil(ctx, deadline)
				break
			}
			sleepUntil(ctx, next)
			if ctx.Err() != nil {
				break
			}
			pr.Arrivals++
			batch := r.cfg.MakeBatch(seq)
			ti := seq % len(r.targets)
			seq++
			if !r.launch(ti, func(measured bool) { r.postIngest(ctx, ti, batch, measured) },
				r.ingest, &r.tstats[ti].ingestDropped) {
				pr.Dropped++
			}
		}
		if benchmark[pi] {
			measuredNS += int64(time.Since(start))
		}
		report.Phases = append(report.Phases, pr)
		if ctx.Err() != nil {
			r.measuring.Store(false)
			break
		}
	}
	r.measuring.Store(false)
	return time.Duration(measuredNS).Seconds()
}

// predictLoop issues the constant-rate probe stream until done closes,
// round-robining probes over the fan-out targets on its own counter.
// Like ingestLoop it draws arrival times from its start.
func (r *runner) predictLoop(ctx context.Context, done <-chan struct{}) {
	rng := rand.New(rand.NewSource(r.cfg.Seed + 1)) //nolint:gosec // load generation
	seq := 0
	next := time.Now()
	for {
		next = next.Add(time.Duration(rng.ExpFloat64() / r.cfg.PredictRate * float64(time.Second)))
		t := time.NewTimer(time.Until(next))
		select {
		case <-done:
			t.Stop()
			return
		case <-ctx.Done():
			t.Stop()
			return
		case <-t.C:
		}
		ti := seq % len(r.targets)
		seq++
		r.launch(ti, func(measured bool) { r.getPredict(ctx, ti, measured) },
			r.predict, &r.tstats[ti].predictDropped)
	}
}

// launch claims an in-flight slot on target ti and runs fn on its own
// goroutine. A full slot pool means the arrival is dropped (counted when
// measuring, against both the stream and the target) — the open-loop
// contract. Reports whether the request was launched.
func (r *runner) launch(ti int, fn func(measured bool), st *streamStats, targetDropped *atomic.Uint64) bool {
	measured := r.measuring.Load()
	select {
	case r.slots[ti] <- struct{}{}:
	default:
		if measured {
			st.dropped.Add(1)
			targetDropped.Add(1)
		}
		return false
	}
	if measured {
		st.sent.Add(1)
	}
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		defer func() { <-r.slots[ti] }()
		fn(measured)
	}()
	return true
}

func (r *runner) postIngest(ctx context.Context, ti int, batch []ingest.Observation, measured bool) {
	ts := r.tstats[ti]
	var body bytes.Buffer
	contentType := ingest.ContentTypeJSON
	if r.cfg.Mode == ModeNDJSON {
		contentType = ingest.ContentTypeNDJSON
		if err := ingest.EncodeNDJSON(&body, batch); err != nil {
			r.fail(r.ingest, &ts.ingestErrs, measured, 0)
			return
		}
	} else if err := json.NewEncoder(&body).Encode(serve.IngestRequest{Observations: batch}); err != nil {
		r.fail(r.ingest, &ts.ingestErrs, measured, 0)
		return
	}
	start := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, r.targets[ti]+"/ingest", &body)
	if err != nil {
		r.fail(r.ingest, &ts.ingestErrs, measured, 0)
		return
	}
	req.Header.Set("Content-Type", contentType)
	resp, err := r.client.Do(req)
	if err != nil {
		r.fail(r.ingest, &ts.ingestErrs, measured, 0)
		return
	}
	defer resp.Body.Close()
	var ack serve.IngestResponse
	decodeErr := json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&ack)
	io.Copy(io.Discard, resp.Body) //nolint:errcheck // drain for connection reuse
	if !measured {
		return
	}
	r.ingest.status(resp.StatusCode)
	if resp.StatusCode != http.StatusOK || decodeErr != nil {
		r.ingest.errs.Add(1)
		ts.ingestErrs.Add(1)
		return
	}
	r.ingest.ok.Add(1)
	ts.ingestOK.Add(1)
	r.ingest.observations.Add(uint64(ack.Accepted))
	r.ingest.lat.Observe(time.Since(start).Seconds())
}

func (r *runner) getPredict(ctx context.Context, ti int, measured bool) {
	ts := r.tstats[ti]
	start := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.targets[ti]+"/predict", nil)
	if err != nil {
		r.fail(r.predict, &ts.predictErrs, measured, 0)
		return
	}
	resp, err := r.client.Do(req)
	if err != nil {
		r.fail(r.predict, &ts.predictErrs, measured, 0)
		return
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck // drain for connection reuse
	resp.Body.Close()
	if !measured {
		return
	}
	r.predict.status(resp.StatusCode)
	if resp.StatusCode != http.StatusOK {
		r.predict.errs.Add(1)
		ts.predictErrs.Add(1)
		return
	}
	r.predict.ok.Add(1)
	ts.predictOK.Add(1)
	r.predict.lat.Observe(time.Since(start).Seconds())
}

// fail records a transport-level failure (status 0) on a measured request,
// charging both the stream and the target it was bound for.
func (r *runner) fail(st *streamStats, targetErrs *atomic.Uint64, measured bool, code int) {
	if !measured {
		return
	}
	st.status(code)
	st.errs.Add(1)
	targetErrs.Add(1)
}

// sleepUntil sleeps until t or ctx cancellation, whichever first.
func sleepUntil(ctx context.Context, t time.Time) {
	d := time.Until(t)
	if d <= 0 {
		return
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
	case <-ctx.Done():
	}
}

// Render writes the human-readable run summary.
func (rep *Report) Render(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "phases (measured window %.2fs):\n", rep.MeasuredSeconds)
	for _, p := range rep.Phases {
		fmt.Fprintf(&b, "  %-14s target %8.1f/s  %6.2fs  arrivals %6d  dropped %d\n",
			p.Label, p.TargetRate, p.Duration, p.Arrivals, p.Dropped)
	}
	stream := func(name string, s StreamReport) {
		fmt.Fprintf(&b, "%s: sent %d ok %d errors %d dropped %d", name, s.Sent, s.OK, s.Errors, s.Dropped)
		if s.OK > 0 {
			fmt.Fprintf(&b, "  p50 %.1fms p90 %.1fms p99 %.1fms max %.1fms",
				s.P50*1e3, s.P90*1e3, s.P99*1e3, s.Max*1e3)
		}
		fmt.Fprintln(&b)
	}
	stream("ingest ", rep.Ingest)
	stream("predict", rep.Predict)
	if len(rep.Targets) > 1 {
		for _, t := range rep.Targets {
			fmt.Fprintf(&b, "  %-28s ingest ok %d err %d drop %d  predict ok %d err %d drop %d\n",
				t.Target, t.IngestOK, t.IngestErrors, t.IngestDropped,
				t.PredictOK, t.PredictErrors, t.PredictDropped)
		}
	}
	fmt.Fprintf(&b, "sustained: %.0f obs/s accepted, %.1f predict QPS\n",
		rep.ObsPerSec, rep.PredictQPS)
	_, err := io.WriteString(w, b.String())
	return err
}

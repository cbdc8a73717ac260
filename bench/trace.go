package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"cosmodel/internal/cluster"
	"cosmodel/internal/core"
	"cosmodel/internal/ingest"
	"cosmodel/internal/serve"
)

// perLayer lists the per-layer metrics of a traced run, in report order.
// README.md maps each to the end-to-end metric it should move and the
// workload it is defined on.
var perLayer = []metricDef{
	{"http.rtt_us.p50", "us"},
	{"http.overhead_us.p50", "us"},
	{"http.resp_bytes.mean", "bytes"},
	{"serve.predict_us.p50", "us"},
	{"serve.predict_us.p99", "us"},
	{"serve.predict_self_us.p50", "us"},
	{"serve.advise_us.p50", "us"},
	{"serve.ingest_us.p50", "us"},
	{"serve.ingest_us.p99", "us"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.shed_ratio", "ratio"},
	{"core.build_us.p50", "us"},
	{"core.cdf_batch_us.p50", "us"},
	{"core.write_batch_us.p50", "us"},
	{"core.coded_batch_us.p50", "us"},
	{"core.advise_probes.mean", "count"},
	{"core.groups.mean", "count"},
	{"core.fallbacks", "count"},
	{"ingest.decode_ns_per_obs", "ns"},
	{"ingest.table_ns_per_obs", "ns"},
	{"ingest.snapshot_us.p50", "us"},
	{"ingest.calib_drop_ratio", "ratio"},
	{"calib.queue_depth.max", "count"},
	{"calib.drain_ms", "ms"},
	{"calib.recalibrations", "count"},
	{"cluster.predict_us.p50", "us"},
	{"cluster.predict_us.p99", "us"},
	{"cluster.partial_us.p50", "us"},
	{"cluster.partial_calls_per_predict", "count"},
	{"cluster.hedge_ratio", "ratio"},
	{"cluster.merge_us.p50", "us"},
	{"cluster.ingest_us.p50", "us"},
	{"trace.overhead", "ratio"},
}

// span is one timed interval at a layer boundary. Spans of one client
// request share a trace id; parent is the innermost enclosing span of that
// trace (0 for a root). Times are nanoseconds from the run's epoch.
type span struct {
	Trace  int    `json:"trace"`
	Span   int    `json:"span"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Groups int    `json:"groups,omitempty"` // mixture groups of a core span
	Bytes  int    `json:"bytes,omitempty"`  // response size of a client span
}

func (s *span) dur() float64 { return float64(s.End-s.Start) / 1e3 } // µs

// recorder collects spans in memory; they are written out when the run ends.
type recorder struct {
	epoch    time.Time
	mu       sync.Mutex
	spans    []span
	partials []timedPartial
}

// timedPartial is a shard's /shard/partial answer with the time it ended,
// kept to time cluster.MergePartials on real partials.
type timedPartial struct {
	end int64
	p   cluster.Partial
}

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

func (r *recorder) since(t time.Time) int64 { return int64(t.Sub(r.epoch)) }

// observe records one core evaluation span (core.Options.Observer).
func (r *recorder) observe(ev core.EvalEvent) {
	end := time.Now()
	r.add(span{Name: "core " + ev.Op, Start: r.since(end.Add(-ev.Duration)), End: r.since(end), Groups: ev.Groups})
}

// teeWriter keeps a copy of a response body.
type teeWriter struct {
	http.ResponseWriter
	buf bytes.Buffer
}

func (t *teeWriter) Write(b []byte) (int, error) {
	t.buf.Write(b)
	return t.ResponseWriter.Write(b)
}

// wrap times every request a handler serves; shard partial answers are
// also kept for the merge timing.
func (r *recorder) wrap(role string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		start := time.Now()
		if role == "shard" && req.URL.Path == "/shard/partial" {
			tw := &teeWriter{ResponseWriter: w}
			h.ServeHTTP(tw, req)
			end := time.Now()
			var resp serve.PartialResponse
			if json.Unmarshal(tw.buf.Bytes(), &resp) == nil {
				r.mu.Lock()
				r.partials = append(r.partials, timedPartial{end: r.since(end), p: cluster.Partial{
					WeightedSums: resp.WeightedSums, Rate: resp.Rate, Saturated: resp.Saturated}})
				r.mu.Unlock()
			}
			r.add(span{Name: role + " " + req.URL.Path, Start: r.since(start), End: r.since(end)})
			return
		}
		h.ServeHTTP(w, req)
		r.add(span{Name: role + " " + req.URL.Path, Start: r.since(start), End: r.since(time.Now())})
	})
}

// traceConfig splits a traced run's time: the workload under test is driven
// untraced and then traced for a quarter of the time each, and every other
// workload traced for a sixth, so that a layer the workload does not use
// is still measured on the workload it is defined on.
const (
	ownShare   = 0.25
	otherShare = 1.0 / 6
)

// segment is one closed-loop pass of a workload's request sequence over a
// single connection, so that every span nests by time inside its request.
type segment struct {
	w        *workload
	seed     int64
	rec      *recorder // nil for an untraced segment
	sent     int
	failed   int
	rtts     []float64 // primary client round trips, µs
	counts   counts    // counter increments over the pass
	queueMax int
	drainMS  float64
}

// driveClosed sends the workload's arrival sequence back to back over one
// connection until limit requests (when > 0) or d elapse.
func driveClosed(ctx context.Context, w *workload, dep *deployment, seed int64, limit int, d time.Duration, rec *recorder, each func()) (sent, failed int, rtts []float64) {
	primary, background := w.inputs(seed)
	g := newGenerator(dep.target, &primary, &background, 1, seed)
	defer g.close()
	client := g.clients[0]
	var buf bytes.Buffer
	deadline := time.Now().Add(d)
	var arrivals []arrival
	for ctx.Err() == nil && (limit > 0 && sent < limit || limit == 0 && time.Now().Before(deadline)) {
		if len(arrivals) == 0 {
			// The order of a second of open-loop arrivals, sent back to back.
			arrivals = g.schedule(w.mixRate, bgRate, time.Second)
		}
		a := &arrivals[0]
		arrivals = arrivals[1:]
		var o outcome
		start := time.Now()
		g.send(ctx, client, a, &o, &buf)
		end := time.Now()
		sent++
		if !o.ok() {
			failed++
		}
		stream := "primary"
		if a.stream == backgroundStream {
			stream = "background"
		} else {
			rtts = append(rtts, float64(end.Sub(start))/1e3)
		}
		if rec != nil {
			r := g.streams[a.stream].at(int(a.idx))
			path, _, _ := strings.Cut(r.path, "?")
			rec.add(span{Name: "client:" + stream + " " + path, Start: rec.since(start), End: rec.since(end), Bytes: o.bytes})
		}
		if each != nil {
			each()
		}
	}
	return sent, failed, rtts
}

// counts are the engine, server and router counters a traced pass reads.
type counts struct {
	hits, misses, fallbacks, recals, ingested, dropped float64 // Engine.Stats()
	shed, served                                       float64 // /metrics
	hedges                                             float64 // Router.Registry()
}

func readCounts(d *deployment) (counts, error) {
	var c counts
	for _, s := range d.servers {
		st := s.Engine().Stats()
		c.hits += float64(st.CacheHits)
		c.misses += float64(st.CacheMisses)
		c.fallbacks += float64(st.Fallbacks)
		c.recals += float64(st.Recalibrations)
		c.ingested += float64(st.Ingested)
		c.dropped += float64(st.CalibQueueDropped)
	}
	for _, u := range d.serverURLs {
		b, err := fetch(http.MethodGet, u+"/metrics", nil)
		if err != nil {
			return c, err
		}
		var m serve.MetricsResponse
		if err := json.Unmarshal(b, &m); err != nil {
			return c, fmt.Errorf("%s/metrics: %w", u, err)
		}
		c.shed += float64(m.Shed)
		c.served += float64(m.QueriesServed)
	}
	if d.router != nil {
		c.hedges = float64(d.router.Registry().Counter("cosrouter_hedges_total",
			"Partial evaluations raced to a standby after the hedge delay.", nil).Value())
	}
	return c, nil
}

func (c counts) since(b counts) counts {
	return counts{
		hits: c.hits - b.hits, misses: c.misses - b.misses, fallbacks: c.fallbacks - b.fallbacks,
		recals: c.recals - b.recals, ingested: c.ingested - b.ingested, dropped: c.dropped - b.dropped,
		shed: c.shed - b.shed, served: c.served - b.served, hedges: c.hedges - b.hedges,
	}
}

// runSegment sets up an in-process deployment of w, warmed and gated, with
// rec (nil: untraced) on every layer boundary, drives one pass and collects
// its counters.
func runSegment(ctx context.Context, w *workload, cfg runConfig, rec *recorder, limit int, d time.Duration) (*segment, error) {
	gold, err := loadGolden(cfg.goldenDir, w.name)
	if err != nil {
		return nil, err
	}
	cfg.start = func(w *workload) (*deployment, error) { return startInProcess(w, nil, nil) }
	if rec != nil {
		cfg.start = func(w *workload) (*deployment, error) { return startInProcess(w, rec.wrap, rec.observe) }
	}
	dep, _, err := setUp(w, cfg, gold)
	if err != nil {
		return nil, err
	}
	defer dep.stop()
	seg := &segment{w: w, seed: cfg.seed, rec: rec}
	before, err := readCounts(dep)
	if err != nil {
		return nil, err
	}
	if rec != nil {
		// Set-up traffic (warm ingest, gate) is not part of the segment.
		rec.mu.Lock()
		rec.spans, rec.partials = nil, nil
		rec.mu.Unlock()
	}
	sample := func() {
		if w.calib {
			seg.queueMax = max(seg.queueMax, dep.servers[0].Engine().Stats().CalibQueueDepth)
		}
	}
	seg.sent, seg.failed, seg.rtts = driveClosed(ctx, w, dep, cfg.seed, limit, d, rec, sample)
	if w.calib {
		t0 := time.Now()
		if !dep.servers[0].Engine().WaitCalibrationIdle(10 * time.Second) {
			return nil, fmt.Errorf("%s: calibration feeder did not drain in 10s", w.name)
		}
		seg.drainMS = float64(time.Since(t0)) / 1e6
	}
	after, err := readCounts(dep)
	if err != nil {
		return nil, err
	}
	seg.counts = after.since(before)
	if rec != nil {
		rec.mu.Lock()
		nest(rec.spans)
		rec.mu.Unlock()
	}
	return seg, ctx.Err()
}

// traceWorkload is the -trace 1 run: per-layer metrics of w, with every
// layer w does not exercise measured on the workload it is defined on.
func traceWorkload(ctx context.Context, w *workload, cfg runConfig, spanDir string, out io.Writer) (summary, error) {
	sum := summary{Metrics: map[string]metricValue{}}
	own := time.Duration(cfg.seconds * ownShare * float64(time.Second))
	other := time.Duration(cfg.seconds * otherShare * float64(time.Second))

	plain, err := runSegment(ctx, w, cfg, nil, 0, own)
	if err != nil {
		return sum, err
	}
	epoch := time.Now()
	mine, err := runSegment(ctx, w, cfg, &recorder{epoch: epoch}, plain.sent, 0)
	if err != nil {
		return sum, err
	}
	values := layerMetrics(mine)
	values["trace.overhead"] = median(mine.rtts) / median(plain.rtts)
	source := map[string]string{}
	for k := range values {
		source[k] = w.name
	}
	segments := []*segment{plain, mine}
	for _, ow := range workloads {
		if ow == w {
			continue
		}
		seg, err := runSegment(ctx, ow, cfg, &recorder{epoch: epoch}, 0, other)
		if err != nil {
			return sum, err
		}
		segments = append(segments, seg)
		for k, v := range layerMetrics(seg) {
			if _, ok := values[k]; !ok {
				values[k], source[k] = v, ow.name
			}
		}
	}
	for _, s := range segments {
		sum.Attempted += s.sent
		sum.Failed += s.failed
	}
	sum.Correct = sum.Failed == 0
	path := filepath.Join(spanDir, "spans-"+w.name+".json")
	if err := writeSpans(path, segments[1:]); err != nil {
		return sum, err
	}
	fmt.Fprintf(out, "traced %s: %d requests (%d failed), spans in %s\n", w.name, sum.Attempted, sum.Failed, path)
	for _, m := range perLayer {
		v, ok := values[m.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return sum, fmt.Errorf("per-layer metric %s was not measured", m.name)
		}
		sum.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
		fmt.Fprintf(out, "  %-34s %14.4f %-6s (on %s)\n", m.name, v, m.unit, source[m.name])
	}
	return sum, nil
}

// nest assigns trace ids and parents. Client spans are the roots: one
// connection sends one request at a time, so a span belongs to the request
// whose interval contains its start, and its parent is the innermost span
// of that request containing it. Spans outside every request (health
// probes) stay unattached.
func nest(spans []span) {
	sort.SliceStable(spans, func(i, j int) bool {
		if spans[i].Start != spans[j].Start {
			return spans[i].Start < spans[j].Start
		}
		return spans[i].End > spans[j].End
	})
	for i := range spans {
		spans[i].Span = i + 1
	}
	var stack []*span
	trace := 0
	for i := range spans {
		s := &spans[i]
		if strings.HasPrefix(s.Name, "client:") {
			trace++
			s.Trace = trace
			stack = append(stack[:0], s)
			continue
		}
		for len(stack) > 0 && stack[len(stack)-1].End < s.End {
			stack = stack[:len(stack)-1]
		}
		if len(stack) == 0 {
			continue
		}
		s.Trace = stack[0].Trace
		s.Parent = stack[len(stack)-1].Span
		stack = append(stack, s)
	}
}

// selfTime is a span's duration minus the time its children cover, µs.
func selfTime(s *span, children []*span) float64 {
	covered := int64(0)
	cur := s.Start
	sort.Slice(children, func(i, j int) bool { return children[i].Start < children[j].Start })
	for _, c := range children {
		lo, hi := max(c.Start, cur), min(c.End, s.End)
		if hi > lo {
			covered += hi - lo
			cur = hi
		}
	}
	return float64(s.End-s.Start-covered) / 1e3
}

// layerMetrics derives every per-layer metric the segment's traffic and
// direct calls produce; metrics without samples are left out.
func layerMetrics(seg *segment) map[string]float64 {
	out := map[string]float64{}
	spans := seg.rec.spans
	byID := map[int]*span{}
	children := map[int][]*span{}
	for i := range spans {
		byID[spans[i].Span] = &spans[i]
	}
	for i := range spans {
		if p := spans[i].Parent; p != 0 {
			children[p] = append(children[p], &spans[i])
		}
	}
	durs := map[string][]float64{}
	var overhead, bytesOut, self, probes, groups []float64
	for i := range spans {
		s := &spans[i]
		if s.Trace == 0 {
			continue // not caused by a request of the segment (health probes)
		}
		durs[s.Name] = append(durs[s.Name], s.dur())
		switch {
		case strings.HasPrefix(s.Name, "client:primary "):
			bytesOut = append(bytesOut, float64(s.Bytes))
			path := strings.TrimPrefix(s.Name, "client:primary ")
			for _, c := range children[s.Span] {
				if c.Name == "serve "+path || c.Name == "router "+path {
					overhead = append(overhead, s.dur()-c.dur())
				}
			}
		case s.Name == "serve /predict":
			self = append(self, selfTime(s, children[s.Span]))
		case s.Name == "serve /advise":
			n := 0
			for _, c := range children[s.Span] {
				if c.Name == "core cdf" {
					n++
				}
			}
			probes = append(probes, float64(n))
		case s.Name == "core cdf_batch":
			groups = append(groups, float64(s.Groups))
		}
	}
	set := func(name string, xs []float64, f func([]float64) float64) {
		if len(xs) > 0 {
			out[name] = f(xs)
		}
	}
	p50 := func(xs []float64) float64 { return quantile(xs, 0.5) }
	p99 := func(xs []float64) float64 { return quantile(xs, 0.99) }
	set("http.rtt_us.p50", seg.rtts, p50)
	set("http.overhead_us.p50", overhead, p50)
	set("http.resp_bytes.mean", bytesOut, mean)
	set("serve.predict_us.p50", durs["serve /predict"], p50)
	set("serve.predict_us.p99", durs["serve /predict"], p99)
	set("serve.predict_self_us.p50", self, p50)
	set("serve.advise_us.p50", durs["serve /advise"], p50)
	ingests := append(append([]float64(nil), durs["serve /ingest"]...), durs["shard /ingest"]...)
	set("serve.ingest_us.p50", ingests, p50)
	set("serve.ingest_us.p99", ingests, p99)
	c := seg.counts
	if lookups := c.hits + c.misses; lookups > 0 {
		out["serve.cache_hit_ratio"] = c.hits / lookups
	}
	if asked := c.served + c.shed; asked > 0 {
		out["serve.shed_ratio"] = c.shed / asked
	}
	set("core.cdf_batch_us.p50", durs["core cdf_batch"], p50)
	set("core.write_batch_us.p50", durs["core write_cdf_batch"], p50)
	set("core.coded_batch_us.p50", durs["core coded_cdf_batch"], p50)
	set("core.advise_probes.mean", probes, mean)
	set("core.groups.mean", groups, mean)
	out["core.fallbacks"] = c.fallbacks
	if seg.w.calib {
		if c.ingested > 0 {
			out["ingest.calib_drop_ratio"] = c.dropped / c.ingested
		}
		out["calib.queue_depth.max"] = float64(seg.queueMax)
		out["calib.drain_ms"] = seg.drainMS
		out["calib.recalibrations"] = c.recals
	}
	if seg.w.cluster {
		predicts := float64(len(durs["router /predict"]))
		set("cluster.predict_us.p50", durs["router /predict"], p50)
		set("cluster.predict_us.p99", durs["router /predict"], p99)
		set("cluster.partial_us.p50", durs["shard /shard/partial"], p50)
		partials := 0.0
		for i := range spans {
			if p := byID[spans[i].Parent]; spans[i].Name == "shard /shard/partial" && p != nil && p.Name == "router /predict" {
				partials++
			}
		}
		if predicts > 0 {
			out["cluster.partial_calls_per_predict"] = partials / predicts
		}
		if partials > 0 {
			out["cluster.hedge_ratio"] = c.hedges / partials
		}
		set("cluster.ingest_us.p50", durs["router /ingest"], p50)
	}
	for k, v := range directMetrics(seg, spans) {
		out[k] = v
	}
	return out
}

// writeSpans writes the traced segments' spans as one JSON array, with
// trace and span ids renumbered to stay unique across segments.
func writeSpans(path string, segs []*segment) error {
	var all []span
	traces, ids := 0, 0
	for _, seg := range segs {
		maxTrace := 0
		for _, s := range seg.rec.spans {
			maxTrace = max(maxTrace, s.Trace)
			if s.Trace != 0 {
				s.Trace += traces
			}
			if s.Parent != 0 {
				s.Parent += ids
			}
			s.Span += ids
			all = append(all, s)
		}
		traces += maxTrace
		ids += len(seg.rec.spans)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(all)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// directBudget bounds each direct-call timing loop.
const directBudget = 150 * time.Millisecond

// timeLoop calls f until budget elapses (at least three times) and returns
// the per-call durations in µs.
func timeLoop(f func()) []float64 {
	var out []float64
	deadline := time.Now().Add(directBudget)
	for len(out) < 3 || time.Now().Before(deadline) {
		t0 := time.Now()
		f()
		out = append(out, float64(time.Since(t0))/1e3)
	}
	return out
}

// directMetrics times direct calls into the ingest, core and cluster
// layers' public functions on the segment's own inputs.
func directMetrics(seg *segment, spans []span) map[string]float64 {
	out := map[string]float64{}
	w := seg.w
	primary, background := w.inputs(seg.seed)
	var bodies []request
	for _, s := range []stream{primary, background} {
		for i := range s.pool {
			if s.pool[i].kind == kIngest {
				bodies = append(bodies, s.pool[i])
			}
		}
	}
	var batches [][]ingest.Observation
	obs := 0
	for _, b := range bodies {
		var batch []ingest.Observation
		_, err := ingest.DecodeNDJSON(bytes.NewReader(b.body), w.devices, 0, func(chunk []ingest.Observation) error {
			batch = append(batch, chunk...)
			return nil
		})
		if err != nil {
			continue
		}
		batches = append(batches, batch)
		obs += len(batch)
	}
	if obs == 0 {
		return out
	}
	decode := timeLoop(func() {
		for _, b := range bodies {
			ingest.DecodeNDJSON(bytes.NewReader(b.body), w.devices, 0, func([]ingest.Observation) error { return nil }) //nolint:errcheck // decoded once above
		}
	})
	out["ingest.decode_ns_per_obs"] = median(decode) * 1e3 / float64(obs)
	cfg := serveConfig(w, false)
	tab, err := ingest.NewTable(ingest.Config{Devices: w.devices, Window: cfg.Window, MaxEntries: cfg.MaxObservations, Procs: cfg.ProcsPerDevice})
	if err != nil {
		return out
	}
	for _, batch := range w.warm() {
		tab.Ingest(batch, time.Now()) //nolint:errcheck // the gate already accepted these batches
	}
	table := timeLoop(func() {
		for _, batch := range batches {
			tab.Ingest(batch, time.Now()) //nolint:errcheck // decoded batches are valid
		}
	})
	out["ingest.table_ns_per_obs"] = median(table) * 1e3 / float64(obs)
	var ms []core.OnlineMetrics
	snap := timeLoop(func() { ms = tab.Snapshot() })
	out["ingest.snapshot_us.p50"] = median(snap)

	props := serverProps()
	build := timeLoop(func() {
		built := map[core.OnlineMetrics]*core.DeviceModel{}
		devs := make([]*core.DeviceModel, 0, len(ms))
		total := 0.0
		for _, m := range ms {
			dm := built[m]
			if dm == nil {
				var err error
				if dm, err = core.NewDeviceModel(props, m, cfg.Opts); err != nil {
					return
				}
				built[m] = dm
			}
			devs = append(devs, dm)
			total += m.Rate + m.WriteRate
		}
		fe, err := core.NewFrontendModel(total, cfg.FrontendProcs, props.ParseFE)
		if err != nil {
			return
		}
		core.NewSystemModel(fe, devs, cfg.Opts) //nolint:errcheck // a build failure only shortens the timing
	})
	out["core.build_us.p50"] = median(build)

	if w.cluster {
		// Partials grouped by the router predict whose interval holds them.
		var sets [][]cluster.Partial
		parts := seg.rec.partials
		for i := range spans {
			s := &spans[i]
			if s.Name != "router /predict" {
				continue
			}
			var set []cluster.Partial
			for _, p := range parts {
				if p.end >= s.Start && p.end <= s.End {
					set = append(set, p.p)
				}
			}
			if len(set) > 0 {
				sets = append(sets, set)
			}
		}
		if len(sets) > 0 {
			k := 0
			merge := timeLoop(func() {
				set := sets[k%len(sets)]
				k++
				cluster.MergePartials(set, 0, len(set[0].WeightedSums)) //nolint:errcheck // timing only
			})
			out["cluster.merge_us.p50"] = median(merge)
		}
	}
	return out
}

package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cosmodel/internal/calib"
	"cosmodel/internal/core"
	"cosmodel/internal/ingest"
	"cosmodel/internal/numeric"
	"cosmodel/internal/obs"
	"cosmodel/internal/parallel"
)

// defaultIngestQueue is the calibration hand-off ring capacity (batches)
// when Config.IngestQueue is zero.
const defaultIngestQueue = 256

// Engine is the concurrent prediction engine: it derives the current
// operating point from the ingest state and answers prediction and
// admission queries through the memoizing model cache.
type Engine struct {
	cfg   Config
	state *stateTable
	cache *modelCache

	// reg is the engine's metrics registry: every counter below, the
	// model-evaluation spans, pool and cache gauges, and — through the HTTP
	// layer — the server's own request-latency histograms all live here and
	// are rendered by /metrics/prom.
	reg *obs.Registry
	// pool is the evaluation worker pool the engine pins into Opts.Pool so
	// one bounded, meterable pool carries every model it builds (nil when
	// the configuration forces sequential evaluation).
	pool *parallel.Pool

	// props is the currently served device-properties calibration,
	// hot-swappable via Recalibrate without restarting the engine.
	props atomic.Pointer[core.DeviceProperties]
	// calibrator is the online drift-detection controller; nil when
	// Config.Calib is nil.
	calibrator *calib.Controller

	predictions *obs.Counter // SLA evaluations answered
	saturations *obs.Counter // evaluations that hit an overloaded point
	fallbacks   *obs.Counter // inversions recovered by a fallback inverter
	recals      *obs.Counter // property swaps applied via Recalibrate
	// lastFallbackNS is the cfg.now() timestamp (UnixNano) of the most
	// recent inverter fallback; 0 before any.
	lastFallbackNS atomic.Int64

	// calibQ decouples HTTP ingest from calibration work: IngestQueued
	// hands accepted batches to the feeder goroutine through this bounded
	// ring, so ingest latency never includes drift-detector processing.
	// When the ring is full the batch still lands in the state table but
	// its calibration feed is dropped — counted by calibDropped, never
	// silent.
	calibQ       *ingest.Ring[*[]Observation]
	calibDone    chan struct{}
	calibFed     atomic.Uint64 // batches the feeder finished processing
	calibDropped *obs.Counter  // observations dropped from the calibration feed
	closeOnce    sync.Once
}

// NewEngine validates the configuration and builds an engine.
func NewEngine(cfg Config) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	e := &Engine{cfg: cfg, reg: obs.NewRegistry()}
	e.predictions = e.reg.Counter("cosserve_predictions_total",
		"SLA evaluations answered (cached and computed).", nil)
	e.saturations = e.reg.Counter("cosserve_saturations_total",
		"Evaluations that hit an overloaded operating point.", nil)
	e.fallbacks = e.reg.Counter("cosserve_inverter_fallbacks_total",
		"Inversions recovered by a fallback inverter.", nil)
	e.recals = e.reg.Counter("cosserve_recalibrations_total",
		"Device-property swaps applied via Recalibrate.", nil)
	// Observe every inverter fallback the guarded evaluation engine
	// performs on our behalf, chaining any callback the embedder installed.
	user := e.cfg.Opts.OnFallback
	e.cfg.Opts.OnFallback = func(from, to string) {
		e.fallbacks.Inc()
		e.lastFallbackNS.Store(e.cfg.now().UnixNano())
		if user != nil {
			user(from, to)
		}
	}
	e.instrumentEvaluation()
	props := e.cfg.Props
	e.props.Store(&props)
	state, err := newStateTable(&e.cfg)
	if err != nil {
		return nil, err
	}
	e.state = state
	e.cache = newModelCache(cfg.CacheEntries)
	e.registerCacheMetrics()
	if cfg.Calib != nil {
		cc := *cfg.Calib
		cc.Devices = cfg.Devices
		if cc.Logf == nil {
			cc.Logf = e.cfg.Logf
		}
		e.instrumentCalibration(&cc)
		ctrl, err := calib.New(cc, props, e.Recalibrate)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadConfig, err)
		}
		e.calibrator = ctrl
	}
	qsize := cfg.IngestQueue
	if qsize == 0 {
		qsize = defaultIngestQueue
	}
	e.calibQ = ingest.NewRing[*[]Observation](qsize)
	e.calibDone = make(chan struct{})
	e.calibDropped = e.reg.Counter("cosserve_ingest_queue_dropped_total",
		"Observations whose calibration feed was dropped because the hand-off ring was full.", nil)
	e.reg.GaugeFunc("cosserve_ingest_queue_depth",
		"Batches queued for the calibration feeder.", nil,
		func() float64 { return float64(e.calibQ.Len()) })
	e.reg.GaugeFunc("cosserve_ingest_stripes",
		"Lock-stripe count of the observation state table.", nil,
		func() float64 { return float64(e.state.stripes()) })
	go e.calibrationFeeder()
	return e, nil
}

// Registry exposes the engine's metrics registry so embedders (and the HTTP
// layer) can attach their own metrics next to the engine's.
func (e *Engine) Registry() *obs.Registry { return e.reg }

// instrumentEvaluation chains a metrics-recording Observer in front of any
// user callback and pins a shared, meterable worker pool into Opts.Pool.
func (e *Engine) instrumentEvaluation() {
	const (
		opsName   = "cosserve_model_ops_total"
		opsHelp   = "Completed model-evaluation spans by operation."
		errsName  = "cosserve_model_op_errors_total"
		errsHelp  = "Model-evaluation spans that returned an error, by operation."
		secsName  = "cosserve_model_op_seconds"
		secsHelp  = "Wall time of model-evaluation spans by operation."
		probeName = "cosserve_model_probes_total"
		probeHelp = "Mixture thresholds evaluated by model spans (SLA grids, order-statistic probes, quantile and admission searches)."
	)
	probes := e.reg.Counter(probeName, probeHelp, nil)
	nodes := e.reg.Gauge("cosserve_model_inversion_nodes",
		"Quadrature node count of the configured transform inverter.", nil)
	userObs := e.cfg.Opts.Observer
	e.cfg.Opts.Observer = func(ev core.EvalEvent) {
		lbl := obs.Labels{"op": ev.Op}
		e.reg.Counter(opsName, opsHelp, lbl).Inc()
		if ev.Err != nil {
			e.reg.Counter(errsName, errsHelp, lbl).Inc()
		}
		e.reg.Histogram(secsName, secsHelp, lbl).Observe(ev.Duration.Seconds())
		if ev.Probes > 0 {
			probes.Add(uint64(ev.Probes))
		}
		if ev.Nodes > 0 {
			nodes.Set(float64(ev.Nodes))
		}
		if userObs != nil {
			userObs(ev)
		}
	}
	// Resolve the worker pool the model engine would pick (mirroring
	// core.Options) and inject it, so every model the engine builds shares
	// one bounded pool whose utilization the gauges below can read.
	pool := e.cfg.Opts.Pool
	if pool == nil {
		switch {
		case e.cfg.Opts.Workers > 1:
			pool = parallel.New(e.cfg.Opts.Workers)
		case e.cfg.Opts.Workers == 0:
			pool = parallel.Default()
		}
		e.cfg.Opts.Pool = pool
	}
	e.pool = pool
	e.reg.GaugeFunc("cosserve_pool_workers",
		"Concurrency bound of the evaluation worker pool, counting the caller.", nil,
		func() float64 { return float64(e.pool.Workers()) })
	e.reg.GaugeFunc("cosserve_pool_busy",
		"Goroutines currently executing a pooled evaluation task.", nil,
		func() float64 { return float64(e.pool.Busy()) })
	e.reg.GaugeFunc("cosserve_pool_helpers_in_use",
		"Helper goroutines currently live — the pool's instantaneous queue depth.", nil,
		func() float64 { return float64(e.pool.HelpersInUse()) })
	e.reg.GaugeFunc("cosserve_pool_tasks",
		"Cumulative iterations executed by the evaluation worker pool.", nil,
		func() float64 { return float64(e.pool.Tasks()) })
}

// registerCacheMetrics exposes the prediction cache's counters as
// scrape-time gauges.
func (e *Engine) registerCacheMetrics() {
	e.reg.GaugeFunc("cosserve_cache_hits",
		"Prediction-cache lookups served from memory or deduplicated onto an in-flight computation.", nil,
		func() float64 { return float64(e.cache.stats().Hits) })
	e.reg.GaugeFunc("cosserve_cache_misses",
		"Prediction-cache lookups that had to compute.", nil,
		func() float64 { return float64(e.cache.stats().Misses) })
	e.reg.GaugeFunc("cosserve_cache_entries",
		"Memoized predictions currently resident.", nil,
		func() float64 { return float64(e.cache.stats().Entries) })
	e.reg.GaugeFunc("cosserve_cache_generation",
		"Prediction-cache generation; a bump marks every prior entry stale.", nil,
		func() float64 { return float64(e.cache.stats().Generation) })
}

// instrumentCalibration counts drift-detector state transitions, chaining
// any hook the embedder installed on the calibration config.
func (e *Engine) instrumentCalibration(cc *calib.Config) {
	const (
		name = "cosserve_calibration_transitions_total"
		help = "Drift-detector device state transitions by from/to state."
	)
	userTr := cc.OnTransition
	cc.OnTransition = func(device int, from, to calib.DeviceState) {
		e.reg.Counter(name, help, obs.Labels{"from": from.String(), "to": to.String()}).Inc()
		if userTr != nil {
			userTr(device, from, to)
		}
	}
}

// Props returns the currently served device-properties calibration.
func (e *Engine) Props() core.DeviceProperties { return *e.props.Load() }

// Recalibrate atomically swaps the served device properties and starts a
// new cache generation, so every memoized prediction computed under the old
// calibration is stale. In-flight evaluations finish under whichever
// calibration they started with. This is the apply path of the online
// calibration controller, and is also available to embedders directly.
func (e *Engine) Recalibrate(props core.DeviceProperties) error {
	if err := props.Validate(); err != nil {
		return err
	}
	p := props
	e.props.Store(&p)
	e.recals.Inc()
	e.cache.invalidate()
	return nil
}

// RecentFallback reports whether an inverter fallback happened within the
// last window seconds — the "numerics degraded but recovering" health
// signal surfaced by /healthz.
func (e *Engine) RecentFallback(window float64) bool {
	ns := e.lastFallbackNS.Load()
	if ns == 0 {
		return false
	}
	return e.cfg.now().UnixNano()-ns <= int64(window*1e9)
}

// Config returns the engine's configuration.
func (e *Engine) Config() Config { return e.cfg }

// Ingest absorbs a batch of per-device observations (all-or-nothing). With
// online calibration enabled the accepted batch also feeds the drift
// detectors synchronously — embedders driving the engine directly get
// deterministic calibration state after every call; a recalibration failure
// does not reject the batch (the observations are sound — the swap is what
// failed) but is logged and counted in the calibration status. The HTTP
// ingest path uses IngestQueued instead.
func (e *Engine) Ingest(batch []Observation) error {
	if err := e.state.ingest(batch); err != nil {
		return err
	}
	e.feedCalibration(batch)
	return nil
}

// IngestQueued absorbs a batch like Ingest but hands the calibration feed to
// the feeder goroutine through the bounded ring: the caller pays only for
// validation and the striped window update, never for drift detection. When
// the ring is full (or the engine is closed) the batch still lands in the
// state table; the skipped calibration feed is counted per observation in
// cosserve_ingest_queue_dropped_total. The batch slice is copied before
// queueing, so callers may recycle it immediately (NDJSON chunks are pooled).
func (e *Engine) IngestQueued(batch []Observation) error {
	if err := e.state.ingest(batch); err != nil {
		return err
	}
	if e.calibrator == nil {
		return nil // nothing downstream consumes the feed
	}
	buf := ingest.GetBatch()
	*buf = append((*buf)[:0], batch...)
	if !e.calibQ.TryPush(buf) {
		ingest.PutBatch(buf)
		e.calibDropped.Add(uint64(len(batch)))
	}
	return nil
}

// calibrationFeeder drains the hand-off ring, feeding queued batches to the
// drift controller and recycling their pooled buffers. Each wakeup drains
// the whole backlog at once (Ring.PopAll) and coalesces it into a single
// batched feed — under a burst the feeder takes the ring lock once per
// backlog, not once per batch, so it catches up instead of ping-ponging with
// producers. calibFed advances only after the coalesced feed completed,
// preserving WaitCalibrationIdle's fed==pushed accounting. The feeder exits
// — after draining what is already queued — once Close closes the ring.
func (e *Engine) calibrationFeeder() {
	defer close(e.calibDone)
	var (
		bufs   []*[]Observation
		merged []Observation
	)
	for {
		var ok bool
		bufs, ok = e.calibQ.PopAll(bufs[:0])
		if len(bufs) > 0 {
			merged = merged[:0]
			for _, buf := range bufs {
				merged = append(merged, (*buf)...)
				ingest.PutBatch(buf)
			}
			e.feedCalibration(merged)
			e.calibFed.Add(uint64(len(bufs)))
		}
		if !ok {
			return
		}
	}
}

// Close stops the calibration feeder after it drains every queued batch and
// waits for it to exit. The engine keeps answering queries; batches arriving
// through IngestQueued afterwards still update the state table, with their
// calibration feed counted as dropped. Safe to call more than once.
func (e *Engine) Close() {
	e.closeOnce.Do(func() { e.calibQ.Close() })
	<-e.calibDone
}

// WaitCalibrationIdle blocks until the feeder has processed every batch
// queued so far, or the timeout expires; it reports whether the queue went
// idle. Tests use it to assert on calibration state after asynchronous
// ingest.
func (e *Engine) WaitCalibrationIdle(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		if e.calibFed.Load() == e.calibQ.Pushed() {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
}

// feedCalibration forwards accepted observations to the drift controller.
func (e *Engine) feedCalibration(batch []Observation) {
	if e.calibrator == nil {
		return
	}
	for _, o := range batch {
		ws := calib.WindowStats{
			Device:   o.Device,
			Interval: o.Interval,
			Index:    o.DiskIndexLat,
			Meta:     o.DiskMetaLat,
			Data:     o.DiskDataLat,
			Metrics:  o.Metrics(e.cfg.ProcsPerDevice),
		}
		if _, err := e.calibrator.Observe(ws); err != nil {
			e.cfg.logf("serve: calibration observe (device %d): %v", o.Device, err)
		}
	}
}

// CalibrationStatus reports the online-calibration subsystem's state; ok is
// false when the subsystem is disabled.
func (e *Engine) CalibrationStatus() (calib.Status, bool) {
	if e.calibrator == nil {
		return calib.Status{}, false
	}
	return e.calibrator.Status(), true
}

// Prediction is the answer for one SLA bound.
type Prediction struct {
	// SLA is the latency bound (seconds).
	SLA float64 `json:"sla"`
	// MeetRatio is the predicted fraction of requests with latency at
	// most SLA; 0 when Saturated.
	MeetRatio float64 `json:"meetRatio"`
	// Saturated marks an operating point with no steady state
	// (core.ErrOverload): the honest prediction is that the SLA target
	// will not be met at all.
	Saturated bool `json:"saturated"`
	// Cached reports whether the answer came from the memo cache.
	Cached bool `json:"cached"`
}

// Predict evaluates the predicted plain-read SLA-meeting fraction at the
// current operating point for each bound; see PredictContext.
func (e *Engine) Predict(slas []float64) ([]Prediction, error) {
	return e.PredictContext(context.Background(), core.Query{}, slas)
}

// PredictContext evaluates the fraction of q's requests meeting each bound
// at the current operating point — plain reads, (n,k) coded reads or w-of-n
// quorum writes alike. It returns ErrNotReady before any observations
// arrive (and, for a write query, while the window carries no writes) and
// ErrBadQuery for an invalid query or bound; saturation is not an error
// (see Prediction.Saturated). Cancellation and the configured
// Opts.EvalTimeout are observed inside the transform inversion itself
// (between mixture groups), so a hung or saturated evaluation stops
// burning CPU the moment the client gives up. A numerically poisoned
// inversion surfaces as an error wrapping numeric.ErrNumerical, never as a
// garbage prediction.
func (e *Engine) PredictContext(ctx context.Context, q core.Query, slas []float64) ([]Prediction, error) {
	if err := q.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadQuery, err)
	}
	if len(slas) == 0 {
		slas = e.cfg.SLAs
	}
	for _, s := range slas {
		if err := validSLA(s); err != nil {
			return nil, err
		}
	}
	ms, key, err := e.state.snapshotKeyed()
	if err != nil {
		return nil, err
	}
	ctx, cancel := e.cfg.Opts.EvalContext(ctx)
	defer cancel()
	v, cached, err := e.evaluate(ctx, ms, key, q, 1, slas)
	if err != nil {
		return nil, err
	}
	out := make([]Prediction, len(slas))
	for i, sla := range slas {
		out[i] = Prediction{SLA: sla, MeetRatio: v.ps[i], Saturated: v.saturated, Cached: cached}
	}
	return out, nil
}

func validSLA(s float64) error {
	if !(s > 0) || math.IsInf(s, 0) {
		return fmt.Errorf("%w: SLA %v must be positive and finite", ErrBadQuery, s)
	}
	return nil
}

// evaluate answers q at every SLA of the grid at the snapshot ms with every
// device's load scaled by factor (admission probes), through the memo
// cache: a miss builds the model once and evaluates the whole grid in one
// batched traversal of the device mixture. A saturated operating point
// caches an all-zero grid. A write query on a snapshot without writes —
// core.ErrBadParams from the write mixture — maps to ErrNotReady: the
// client asked a sound question the server has no write observations to
// answer yet. The prediction and saturation counters advance by the grid
// size.
func (e *Engine) evaluate(ctx context.Context, ms []core.OnlineMetrics, key string, q core.Query, factor float64, slas []float64) (cachedValue, bool, error) {
	v, cached, err := e.cache.do(ctx, cacheKey(key, q, factor, slas), func(ctx context.Context) (cachedValue, error) {
		sys, err := e.build(ms, q, factor, -1)
		if errors.Is(err, core.ErrOverload) {
			return cachedValue{saturated: true, ps: make([]float64, len(slas))}, nil
		}
		if err != nil {
			return cachedValue{}, err
		}
		ps, err := sys.Eval(ctx, slas, q)
		if err != nil {
			return cachedValue{}, err
		}
		return cachedValue{ps: ps[0]}, nil
	})
	if err != nil {
		if q.Op == core.OpWrite && errors.Is(err, core.ErrBadParams) {
			err = fmt.Errorf("%w: %v", ErrNotReady, err)
		}
		return v, cached, err
	}
	e.predictions.Add(uint64(len(slas)))
	if v.saturated {
		e.saturations.Add(uint64(len(slas)))
	}
	return v, cached, nil
}

// build assembles the system model answering q at the snapshot ms with
// every device's rates scaled by factor. The cold path (a cache miss)
// inherits cfg.Opts wholesale, so the model's device-parallel evaluation
// engine and its worker budget (core.Options.Workers) apply to every
// uncached prediction and admission probe. Devices with identical (scaled)
// metrics share one DeviceModel: the system mixture deduplicates by model
// pointer, so a fleet of N lookalike devices collapses to one evaluation
// group with N times the weight instead of N identical transform
// inversions.
//
// The frontend arrival rate is the scaled total of reads and writes,
// except for a coded read: the proxy parses each coded GET once before
// fanning it into N sub-reads, so its rate is the reported sub-read total
// divided by the stripe width (the sub-millisecond frontend term makes
// this approximation harmless even when hedging issues fewer than N). A
// non-negative feRate overrides it: a shard builds its device slice under
// the router's tier-wide rate, because the frontend sojourn factor depends
// only on the tier-wide total, so every shard's partial CDFs merge exactly
// into the full mixture.
func (e *Engine) build(ms []core.OnlineMetrics, q core.Query, factor, feRate float64) (*core.SystemModel, error) {
	props := e.Props()
	devs := make([]*core.DeviceModel, 0, len(ms))
	built := make(map[core.OnlineMetrics]*core.DeviceModel, len(ms))
	total, reads := 0.0, 0.0
	for _, m := range ms {
		// Admission probes scale the whole workload mix, writes included:
		// a tenant shedding decision that left write load fixed would
		// overstate read headroom (writes share the same disk queues).
		m.Rate *= factor
		m.DataRate *= factor
		m.WriteRate *= factor
		dm := built[m]
		if dm == nil {
			var err error
			dm, err = core.NewDeviceModel(props, m, e.cfg.Opts)
			if err != nil {
				return nil, err
			}
			built[m] = dm
		}
		devs = append(devs, dm)
		total += m.Rate + m.WriteRate
		reads += m.Rate
	}
	switch {
	case feRate >= 0:
		total = feRate
	case q.Op == core.OpRead && q.Spec.N > 1:
		total = reads / float64(q.Spec.N)
	}
	fe, err := core.NewFrontendModel(total, e.cfg.FrontendProcs, props.ParseFE)
	if err != nil {
		return nil, err
	}
	return core.NewSystemModel(fe, devs, e.cfg.Opts)
}

// Advice is the admission-control answer for one SLA constraint.
type Advice struct {
	// SLA and Target restate the constraint ("Target of requests within
	// SLA seconds").
	SLA    float64 `json:"sla"`
	Target float64 `json:"target"`
	// CurrentRate is the aggregate request rate of the current window.
	CurrentRate float64 `json:"currentRate"`
	// CurrentMeetRatio is the predicted compliance at the current point.
	CurrentMeetRatio float64 `json:"currentMeetRatio"`
	// Saturated marks the current operating point as overloaded.
	Saturated bool `json:"saturated"`
	// MaxAdmissibleRate is the highest aggregate rate (same workload mix,
	// proportionally scaled) still predicted to meet the target; 0 when
	// even minimal load misses it.
	MaxAdmissibleRate float64 `json:"maxAdmissibleRate"`
	// Headroom is MaxAdmissibleRate - CurrentRate (negative when the
	// system is already past the admission threshold).
	Headroom float64 `json:"headroom"`
	// Admit is the admission decision: the current rate is within the
	// threshold and the target is met.
	Admit bool `json:"admit"`
	// CodedRead echoes the stripe shape an /advise request named (rates
	// are then sub-read rates).
	CodedRead *CodedReadSpec `json:"codedRead,omitempty"`
}

// Advise answers the plain-read admission question; see AdviseContext.
func (e *Engine) Advise(sla, target float64) (Advice, error) {
	return e.AdviseContext(context.Background(), core.Query{}, sla, target)
}

// AdviseContext answers the admission-control question for q's requests
// "what fraction meets the SLA now, and how much more load fits before
// target breaks?" by searching a proportional scaling of the current
// per-device operating point. Rates are the devices' reported request
// rates (sub-read rates for a coded read). Every probe goes through the
// memo cache, so repeated advice at a stable operating point is nearly
// free. ctx and the configured Opts.EvalTimeout bound the entire search,
// observed before every probe and inside each probe's transform
// inversion. A probe that fails numerically or is cancelled aborts the
// search with the error; a probe at an overloaded point merely bounds it.
func (e *Engine) AdviseContext(ctx context.Context, q core.Query, sla, target float64) (Advice, error) {
	if err := q.Validate(); err != nil {
		return Advice{}, fmt.Errorf("%w: %v", ErrBadQuery, err)
	}
	if err := validSLA(sla); err != nil {
		return Advice{}, err
	}
	if !(target > 0) || target > 1 {
		return Advice{}, fmt.Errorf("%w: target %v outside (0,1]", ErrBadQuery, target)
	}
	ms, key, err := e.state.snapshotKeyed()
	if err != nil {
		return Advice{}, err
	}
	ctx, cancel := e.cfg.Opts.EvalContext(ctx)
	defer cancel()
	current := 0.0
	for _, m := range ms {
		current += m.Rate
	}
	slas := []float64{sla}
	cur, _, err := e.evaluate(ctx, ms, key, q, 1, slas)
	if err != nil {
		return Advice{}, err
	}
	adv := Advice{SLA: sla, Target: target, CurrentRate: current,
		CurrentMeetRatio: cur.ps[0], Saturated: cur.saturated}
	margin := func(ctx context.Context, rate float64) (float64, bool, error) {
		v, _, err := e.evaluate(ctx, ms, key, q, rate/current, slas)
		switch {
		case err == nil:
			if v.saturated {
				return 0, false, nil
			}
			return v.ps[0] - target, true, nil
		case isContextErr(err) || errors.Is(err, numeric.ErrNumerical):
			return 0, false, err
		default:
			// A model-construction failure at an extreme probe point
			// (ErrBadParams from a degenerate scaled rate) bounds the
			// search like overload does.
			return 0, false, nil
		}
	}
	// Resolve the threshold to ~0.5% of the current rate; quantization
	// below that would alias probe points anyway. The margin-aware search
	// interpolates on how far the prediction sits from the target, so a
	// smooth compliance curve needs far fewer probes than blind bisection.
	maxRate, err := core.MaxRateWhereValueContext(ctx, margin, current/64, current/200)
	if err != nil {
		return Advice{}, err
	}
	adv.MaxAdmissibleRate = maxRate
	adv.Headroom = adv.MaxAdmissibleRate - current
	adv.Admit = !adv.Saturated && cur.ps[0] >= target && adv.Headroom >= 0
	return adv, nil
}

// InvalidateCache starts a new cache generation: every memoized prediction
// becomes stale. Call after changing what the model would answer (e.g. a
// recalibration of device properties).
func (e *Engine) InvalidateCache() { e.cache.invalidate() }

// CacheGeneration returns the current prediction-cache generation — the
// token the cluster tier gossips so every replica of a shard serves
// predictions from the same calibration epoch.
func (e *Engine) CacheGeneration() uint64 { return e.cache.generation() }

// SyncGeneration raises the cache generation to at least gen (never
// backwards). The cluster router calls this on replicas whose generation
// lags the shard group's maximum, so a recalibration on one replica
// invalidates stale predictions cluster-wide.
func (e *Engine) SyncGeneration(gen uint64) { e.cache.invalidateTo(gen) }

// EngineStats is a point-in-time view of the engine's internal counters.
type EngineStats struct {
	Predictions uint64 `json:"predictions"`
	Saturations uint64 `json:"saturations"`
	// Fallbacks counts inversions recovered by a fallback inverter;
	// LastFallbackAge is the seconds since the most recent one (-1: never).
	Fallbacks       uint64  `json:"inverterFallbacks"`
	LastFallbackAge float64 `json:"lastFallbackAgeSeconds"`
	// Recalibrations counts device-property swaps applied via Recalibrate
	// (manually or by the online calibration controller).
	Recalibrations  uint64  `json:"recalibrations"`
	CacheHits       uint64  `json:"cacheHits"`
	CacheMisses     uint64  `json:"cacheMisses"`
	CacheHitRatio   float64 `json:"cacheHitRatio"`
	CacheEntries    int     `json:"cacheEntries"`
	CacheGeneration uint64  `json:"cacheGeneration"`
	Ingested        uint64  `json:"ingestedObservations"`
	Reporting       int     `json:"devicesReporting"`
	// CalibrationAge is the seconds since the last accepted ingest;
	// negative (-1) before any ingest.
	CalibrationAge float64 `json:"calibrationAgeSeconds"`
	TotalRate      float64 `json:"totalRate"`
	// TotalWriteRate is the aggregate PUT replica rate of the current
	// window and TenantClasses the number of tenant partitions registered.
	TotalWriteRate float64 `json:"totalWriteRate"`
	TenantClasses  int     `json:"tenantClasses"`
	// IngestStripes is the effective lock-stripe count of the state table.
	IngestStripes int `json:"ingestStripes"`
	// CalibQueueDepth is the current calibration hand-off backlog in
	// batches; CalibQueueDropped counts observations whose calibration feed
	// was dropped on a full ring (the state table still absorbed them).
	CalibQueueDepth   int    `json:"calibQueueDepth"`
	CalibQueueDropped uint64 `json:"calibQueueDroppedObservations"`
}

// Stats assembles the engine counters.
func (e *Engine) Stats() EngineStats {
	cs := e.cache.stats()
	ingested, reporting := e.state.stats()
	st := EngineStats{
		Predictions:     e.predictions.Value(),
		Saturations:     e.saturations.Value(),
		Fallbacks:       e.fallbacks.Value(),
		LastFallbackAge: -1,
		Recalibrations:  e.recals.Value(),
		CacheHits:       cs.Hits,
		CacheMisses:     cs.Misses,
		CacheHitRatio:   cs.hitRatio(),
		CacheEntries:    cs.Entries,
		CacheGeneration: cs.Generation,
		Ingested:        ingested,
		Reporting:       reporting,
		CalibrationAge:  -1,
		IngestStripes:   e.state.stripes(),
		CalibQueueDepth: e.calibQ.Len(),
	}
	st.CalibQueueDropped = e.calibDropped.Value()
	if age, ok := e.state.calibrationAge(); ok {
		st.CalibrationAge = age
	}
	if ns := e.lastFallbackNS.Load(); ns != 0 {
		st.LastFallbackAge = float64(e.cfg.now().UnixNano()-ns) / 1e9
	}
	if ms, err := e.state.snapshot(); err == nil {
		for _, m := range ms {
			st.TotalRate += m.Rate
			st.TotalWriteRate += m.WriteRate
		}
	}
	st.TenantClasses = len(e.state.tenantNames())
	return st
}

// ---------------------------------------------------------------------------
// Operating-point quantization.

// quantize rounds x to 3 significant decimal digits. Nearby operating
// points then share cache entries: a ≤0.5% perturbation of a rate or miss
// ratio moves the prediction far less than the model's own accuracy
// (mean absolute errors of a few percentage points, Table I), so serving
// the memoized neighbour is indistinguishable from recomputing.
func quantize(x float64) float64 {
	if x == 0 || math.IsNaN(x) || math.IsInf(x, 0) {
		return x
	}
	exp := math.Floor(math.Log10(math.Abs(x)))
	scale := math.Pow(10, exp-2)
	return math.Round(x/scale) * scale
}

func quantStr(x float64) string {
	return strconv.FormatFloat(quantize(x), 'g', -1, 64)
}

// opKey serializes a quantized operating point: every device's rates, miss
// ratios, process count and disk mean. Identical keys mean (up to
// quantization) identical model inputs.
func opKey(ms []core.OnlineMetrics) string {
	var b strings.Builder
	for i, m := range ms {
		if i > 0 {
			b.WriteByte(';')
		}
		b.WriteString(quantStr(m.Rate))
		b.WriteByte(',')
		b.WriteString(quantStr(m.DataRate))
		b.WriteByte(',')
		b.WriteString(quantStr(m.MissIndex))
		b.WriteByte(',')
		b.WriteString(quantStr(m.MissMeta))
		b.WriteByte(',')
		b.WriteString(quantStr(m.MissData))
		b.WriteByte(',')
		b.WriteString(strconv.Itoa(m.Procs))
		b.WriteByte(',')
		b.WriteString(quantStr(m.DiskMean))
		b.WriteByte(',')
		b.WriteString(quantStr(m.WriteRate))
		b.WriteByte(',')
		b.WriteString(quantStr(m.WriteChunks))
	}
	return b.String()
}

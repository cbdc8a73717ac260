package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"math"
	"mime"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"cosmodel/internal/core"
	"cosmodel/internal/ingest"
	"cosmodel/internal/obs"
	"cosmodel/internal/serve"
)

// Router is the stateless fan-out tier: it forwards ingest to every replica
// of a device's shard, answers /predict and /advise by merging per-shard
// partial CDFs, and keeps serving from warm standbys when shards die.
// "Stateless" means no model state: the router's only memory is the
// device-rate tracker (rebuilt from the ingest stream in one window), the
// health prober's verdicts and the answers of the current epoch — a
// restarted router is fully functional after one observation window, with
// no recovery protocol.
type Router struct {
	cfg    Config
	topo   *Topology
	client *shardClient
	prober *prober
	rates  *rateTracker

	reg   *obs.Registry
	sem   chan struct{}
	start time.Time

	// cov memoizes the fan-out plan for the prober's current live set.
	cov atomic.Pointer[coverage]
	// memo holds the /predict answers of the current router epoch.
	memo answerMemo

	served       *obs.Counter
	shed         *obs.Counter
	badRequests  *obs.Counter
	degraded     *obs.Counter
	forwardFails *obs.Counter
	hedges       *obs.Counter
	failovers    *obs.Counter
	retries      *obs.Counter
	memoHits     *obs.Counter
	memoMisses   *obs.Counter
}

// NewRouter validates the configuration and assembles the fan-out tier.
// Call Start to launch the health prober and Close to stop it.
func NewRouter(cfg Config) (*Router, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	topo, err := NewTopology(cfg)
	if err != nil {
		return nil, err
	}
	r := &Router{
		cfg:    cfg,
		topo:   topo,
		client: newShardClient(cfg),
		rates:  newRateTracker(cfg.Devices, cfg.Window),
		reg:    obs.NewRegistry(),
		sem:    make(chan struct{}, cfg.MaxInflight),
		start:  cfg.now(),
	}
	r.prober = newProber(cfg, r.client, r.memo.bump)
	r.served = r.reg.Counter("cosrouter_queries_served_total",
		"Prediction and advice queries answered successfully.", nil)
	r.shed = r.reg.Counter("cosrouter_shed_total",
		"Queries shed with 503 because the in-flight limit was reached.", nil)
	r.badRequests = r.reg.Counter("cosrouter_bad_requests_total",
		"Requests rejected as malformed (400).", nil)
	r.degraded = r.reg.Counter("cosrouter_degraded_responses_total",
		"Merged responses served with shards down or devices lost.", nil)
	r.forwardFails = r.reg.Counter("cosrouter_ingest_forward_failures_total",
		"Ingest forwards that failed on one replica (the batch may still be covered by another).", nil)
	r.hedges = r.reg.Counter("cosrouter_hedges_total",
		"Partial evaluations raced to a standby after the hedge delay.", nil)
	r.failovers = r.reg.Counter("cosrouter_failovers_total",
		"Partial evaluations failed over to the next replica after an error.", nil)
	r.retries = r.reg.Counter("cosrouter_shard_retries_total",
		"Shard calls retried on backoff or Retry-After.", nil)
	r.memoHits = r.reg.Counter("cosrouter_predict_memo_hits_total",
		"Predictions answered from the current epoch's memo, without a fan-out.", nil)
	r.memoMisses = r.reg.Counter("cosrouter_predict_memo_misses_total",
		"Predictions that fanned out to the shards.", nil)
	r.client.onHedge = func(int) { r.hedges.Inc() }
	r.client.onFailover = func(int) { r.failovers.Inc() }
	r.client.onRetry = func(int) { r.retries.Inc() }
	// A raced attempt that failed outright strikes the node with the health
	// tracker; past the threshold the fan-out stops dialing it (the standby
	// answers directly) until a probe or live success revives it.
	r.client.onAttemptError = func(node int, err error) { r.prober.noteFailure(node) }
	for n := range cfg.Nodes {
		node := n
		r.reg.GaugeFunc("cosrouter_shard_up",
			"Health prober verdict per shard node (1 = up).",
			obs.Labels{"node": strconv.Itoa(node)},
			func() float64 {
				if r.prober.up(node) {
					return 1
				}
				return 0
			})
	}
	r.reg.GaugeFunc("cosrouter_total_rate",
		"Tier-wide aggregate request rate from the router's ingest tracker.", nil,
		func() float64 { return r.rates.totalRate() })
	r.prober.onTransition = func(node int, up bool) {
		state := "down"
		if up {
			state = "up"
		}
		r.reg.Counter("cosrouter_shard_transitions_total",
			"Shard health transitions by node and new state.",
			obs.Labels{"node": strconv.Itoa(node), "state": state}).Inc()
		r.logf("cluster: shard node %d (%s) is %s", node, r.cfg.Nodes[node], state)
	}
	return r, nil
}

// Start launches the health prober (no-op with ProbeInterval 0) and warms
// the rate tracker from the shards' persisted windows, so a restarted
// router fronting warm shards serves /predict immediately instead of
// reporting zero ingest for a full observation window.
func (r *Router) Start() {
	r.prober.start()
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if n := r.WarmupOnce(ctx); n > 0 {
			r.logf("cluster: rate tracker warmed from shard state (%d devices)", n)
		}
	}()
}

// WarmupOnce rebuilds the rate tracker from every reachable shard's
// /shard/state device rates, taking each device's read and write rates from
// the replica reporting the highest read rate (dual-written replicas should
// agree; a lagging one under-reports). Only
// devices with no live entries are seeded — forwarded traffic that arrived
// before the warmup answer always wins. Returns the number of devices
// seeded; seeding any moves the router epoch. Safe to call at any time; a
// fully warm tracker makes it a no-op.
func (r *Router) WarmupOnce(ctx context.Context) int {
	best := make([]float64, r.cfg.Devices)
	bestWrites := make([]float64, r.cfg.Devices)
	for n := range r.cfg.Nodes {
		st, err := r.client.getState(ctx, n)
		if err != nil {
			r.logf("cluster: warmup state from node %d: %v", n, err)
			continue
		}
		for d, rate := range st.DeviceRates {
			if d < len(best) && rate > best[d] {
				best[d] = rate
				bestWrites[d] = 0
				if d < len(st.DeviceWriteRates) {
					bestWrites[d] = st.DeviceWriteRates[d]
				}
			}
		}
	}
	seeded := 0
	for d, rate := range best {
		if r.rates.seed(d, rate, bestWrites[d]) {
			seeded++
		}
	}
	if seeded > 0 {
		r.memo.bump()
	}
	return seeded
}

// Close stops the prober.
func (r *Router) Close() { r.prober.close() }

// Registry exposes the router's metrics registry.
func (r *Router) Registry() *obs.Registry { return r.reg }

// ProbeOnce runs one synchronous health-probe and gossip round — the
// test and cron entry point mirroring what Start does periodically.
func (r *Router) ProbeOnce(ctx context.Context) { r.prober.probeOnce(ctx) }

func (r *Router) logf(format string, args ...any) {
	if r.cfg.Logf != nil {
		r.cfg.Logf(format, args...)
		return
	}
	log.Printf(format, args...)
}

// ---------------------------------------------------------------------------
// Rate tracker: the router's only state.

// rateEntry is one forwarded observation's rate contribution.
type rateEntry struct {
	interval float64
	requests uint64
	writes   uint64
}

// rateTracker derives per-device request and PUT rates from the forwarded
// ingest stream over a sliding window — the source of the global frontend
// rate (reads plus writes, as a single engine builds it) every shard's
// partial evaluation is built at, and of the lost-rate term (reads, the
// mixture weights) that widens degraded confidence bounds.
type rateTracker struct {
	mu      sync.Mutex
	window  float64
	devices [][]rateEntry
	spans   []float64
}

const maxRateEntries = 256

func newRateTracker(devices int, window float64) *rateTracker {
	return &rateTracker{
		window:  window,
		devices: make([][]rateEntry, devices),
		spans:   make([]float64, devices),
	}
}

func (rt *rateTracker) add(o *serve.Observation) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	d := o.Device
	rt.devices[d] = append(rt.devices[d], rateEntry{interval: o.Interval, requests: o.Requests, writes: o.Writes})
	rt.spans[d] += o.Interval
	for len(rt.devices[d]) > 1 &&
		(rt.spans[d]-rt.devices[d][0].interval >= rt.window || len(rt.devices[d]) > maxRateEntries) {
		rt.spans[d] -= rt.devices[d][0].interval
		rt.devices[d] = rt.devices[d][1:]
	}
}

// seed installs a synthetic full-window entry for a device that has no live
// observations yet — the router-restart warm start. Live data always wins:
// a device that has already accumulated forwarded observations is left
// untouched, and the synthetic entry ages out of the window like any other
// as real traffic arrives. An invalid write rate seeds as read-only.
func (rt *rateTracker) seed(d int, rate, writeRate float64) bool {
	if !(rate > 0) || math.IsInf(rate, 0) {
		return false
	}
	if !(writeRate > 0) || math.IsInf(writeRate, 0) {
		writeRate = 0
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.spans[d] > 0 {
		return false
	}
	rt.devices[d] = append(rt.devices[d], rateEntry{
		interval: rt.window,
		requests: uint64(math.Round(rate * rt.window)),
		writes:   uint64(math.Round(writeRate * rt.window)),
	})
	rt.spans[d] += rt.window
	return true
}

// ratesLocked returns device d's windowed request and PUT rates.
func (rt *rateTracker) ratesLocked(d int) (reads, writes float64) {
	if rt.spans[d] <= 0 {
		return 0, 0
	}
	var reqs, puts uint64
	for _, e := range rt.devices[d] {
		reqs += e.requests
		puts += e.writes
	}
	return float64(reqs) / rt.spans[d], float64(puts) / rt.spans[d]
}

// rate returns device d's windowed request rate.
func (rt *rateTracker) rate(d int) float64 {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	reads, _ := rt.ratesLocked(d)
	return reads
}

// totals returns the tier-wide request rate and the frontend rate (requests
// plus PUTs).
func (rt *rateTracker) totals() (reads, frontend float64) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	for d := range rt.devices {
		r, w := rt.ratesLocked(d)
		reads += r
		frontend += r + w
	}
	return reads, frontend
}

// totalRate returns the tier-wide request rate.
func (rt *rateTracker) totalRate() float64 {
	reads, _ := rt.totals()
	return reads
}

// ---------------------------------------------------------------------------
// HTTP plumbing.

type errorBody struct {
	Error string `json:"error"`
}

func (r *Router) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		r.logf("cluster: writing %d response: %v", status, err)
	}
}

// writeBody writes an encoded 200 answer.
func (r *Router) writeBody(w http.ResponseWriter, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	if _, err := w.Write(body); err != nil {
		r.logf("cluster: writing 200 response: %v", err)
	}
}

func (r *Router) badRequest(w http.ResponseWriter, err error) {
	r.badRequests.Inc()
	r.writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
}

func (r *Router) acquire(w http.ResponseWriter) bool {
	select {
	case r.sem <- struct{}{}:
		return true
	default:
		r.shed.Inc()
		w.Header().Set("Retry-After", "1")
		r.writeJSON(w, http.StatusServiceUnavailable,
			errorBody{Error: "router queue full, load shed"})
		return false
	}
}

func (r *Router) release() { <-r.sem }

// queryError maps fan-out errors onto the serve tier's status taxonomy.
func (r *Router) queryError(w http.ResponseWriter, req *http.Request, err error) {
	switch {
	case errors.Is(err, serve.ErrBadQuery) || errors.Is(err, ErrBadConfig):
		r.badRequest(w, err)
	case errors.Is(err, serve.ErrNotReady):
		r.writeJSON(w, http.StatusConflict, errorBody{Error: err.Error()})
	case errors.Is(err, ErrNoQuorum):
		w.Header().Set("Retry-After", "1")
		r.writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: err.Error()})
	case errors.Is(err, context.Canceled) && req.Context().Err() != nil:
		r.writeJSON(w, 499, errorBody{Error: "client closed request"})
	case errors.Is(err, context.DeadlineExceeded):
		w.Header().Set("Retry-After", "1")
		r.writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: err.Error()})
	default:
		r.writeJSON(w, http.StatusInternalServerError, errorBody{Error: err.Error()})
	}
}

// Handler returns the router's route table:
//
//	POST /ingest   — dual-write observations to every replica of each shard
//	GET/POST /predict — merged cluster-wide percentile predictions
//	GET/POST /advise  — merged admission control
//	GET  /healthz  — per-shard health components
//	GET  /metrics/prom — router metrics in Prometheus text format
func (r *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/ingest", r.handleIngest)
	mux.HandleFunc("/predict", r.handlePredict)
	mux.HandleFunc("/advise", r.handleAdvise)
	mux.HandleFunc("/healthz", r.handleHealthz)
	mux.HandleFunc("/metrics/prom", r.handleMetricsProm)
	return mux
}

// ---------------------------------------------------------------------------
// /ingest: dual-write to the replica chain.

// decodeIngest negotiates the ingest payload encoding like the serve tier:
// a JSON-array envelope or an NDJSON stream, selected by content type (415
// for anything else). Unlike a shard, the router needs the complete batch
// before fanning out (the coverage check is batch-atomic), so NDJSON is
// collected rather than absorbed chunk by chunk: a bad line rejects the
// whole request with its line number and nothing is forwarded. The reply
// reports false after writing the error response.
func (r *Router) decodeIngest(w http.ResponseWriter, req *http.Request) ([]serve.Observation, bool) {
	mt := ingest.ContentTypeJSON
	if ct := req.Header.Get("Content-Type"); ct != "" {
		parsed, _, err := mime.ParseMediaType(ct)
		if err != nil {
			parsed = ct // unparsable: report the raw header in the 415
		}
		mt = parsed
	}
	switch mt {
	case ingest.ContentTypeJSON:
		var in serve.IngestRequest
		dec := json.NewDecoder(http.MaxBytesReader(w, req.Body, 1<<20))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&in); err != nil {
			var mbe *http.MaxBytesError
			if errors.As(err, &mbe) {
				r.writeJSON(w, http.StatusRequestEntityTooLarge,
					errorBody{Error: fmt.Sprintf("body exceeds %d bytes", mbe.Limit)})
				return nil, false
			}
			r.badRequest(w, fmt.Errorf("%w: %v", serve.ErrBadQuery, err))
			return nil, false
		}
		return in.Observations, true
	case ingest.ContentTypeNDJSON:
		var observations []serve.Observation
		_, err := ingest.DecodeNDJSON(http.MaxBytesReader(w, req.Body, 1<<20), r.cfg.Devices, 0,
			func(chunk []serve.Observation) error {
				// The chunk's sample arrays are the decoder's: copy them out.
				observations, _ = ingest.AppendOwned(observations, nil, chunk)
				return nil
			})
		if err != nil {
			var mbe *http.MaxBytesError
			if errors.As(err, &mbe) {
				r.writeJSON(w, http.StatusRequestEntityTooLarge,
					errorBody{Error: fmt.Sprintf("body exceeds %d bytes", mbe.Limit)})
				return nil, false
			}
			r.badRequest(w, fmt.Errorf("%w: %v", serve.ErrBadQuery, err))
			return nil, false
		}
		return observations, true
	default:
		r.badRequests.Inc()
		r.writeJSON(w, http.StatusUnsupportedMediaType, errorBody{
			Error: fmt.Sprintf("unsupported content type %q: use %s or %s",
				mt, ingest.ContentTypeJSON, ingest.ContentTypeNDJSON)})
		return nil, false
	}
}

func (r *Router) handleIngest(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodPost {
		r.writeJSON(w, http.StatusMethodNotAllowed, errorBody{Error: "POST required"})
		return
	}
	observations, ok := r.decodeIngest(w, req)
	if !ok {
		return
	}
	if len(observations) == 0 {
		r.badRequest(w, fmt.Errorf("%w: empty observation batch", serve.ErrBadQuery))
		return
	}
	// Slice the batch per node: an observation goes to EVERY replica of its
	// device's chain (dual-write), so warm standbys hold the same sliding
	// windows and calibration feed as their primaries.
	perNode := make(map[int][]serve.Observation)
	for i := range observations {
		o := &observations[i]
		if err := o.Validate(r.cfg.Devices); err != nil {
			r.badRequest(w, err)
			return
		}
		for _, n := range r.topo.ChainFor(o.Device) {
			perNode[n] = append(perNode[n], *o)
		}
	}
	type outcome struct {
		node int
		err  error
	}
	results := make(chan outcome, len(perNode))
	for n, batch := range perNode {
		go func(node int, batch []serve.Observation) {
			results <- outcome{node: node, err: r.client.postIngest(req.Context(), node, batch)}
		}(n, batch)
	}
	acked := make(map[int]bool, len(perNode))
	for range perNode {
		out := <-results
		if out.err != nil {
			r.forwardFails.Inc()
			r.prober.noteFailure(out.node)
			r.logf("cluster: ingest forward to node %d: %v", out.node, out.err)
			continue
		}
		r.prober.noteSuccess(out.node)
		acked[out.node] = true
	}
	// Coverage check: every observation must have landed on at least one
	// replica, else its device would silently vanish from the mixture.
	uncovered := -1
	for i := range observations {
		d := observations[i].Device
		covered := false
		for _, n := range r.topo.ChainFor(d) {
			if acked[n] {
				covered = true
				break
			}
		}
		if !covered {
			uncovered = d
			break
		}
	}
	if uncovered < 0 {
		for i := range observations {
			r.rates.add(&observations[i])
		}
	}
	// Every forward has returned, and any of them may have changed a shard
	// (a failed one too), so the epoch moves before the client hears back:
	// no answer fanned out before this batch is served after its ack.
	r.memo.bump()
	if uncovered >= 0 {
		r.writeJSON(w, http.StatusBadGateway, errorBody{
			Error: fmt.Sprintf("no replica of device %d's shard accepted the batch", uncovered)})
		return
	}
	r.writeJSON(w, http.StatusOK, serve.IngestResponse{Accepted: len(observations)})
}

// ---------------------------------------------------------------------------
// Fan-out and merge.

// fanResult is one merged fan-out outcome plus its provenance.
type fanResult struct {
	merged     Merged
	lost       []int // devices with no live (or answering) replica
	degraded   bool
	generation uint64
	totalRate  float64
}

// coverage is the fan-out plan for one set of live nodes. It is shared by
// every fan-out until the set changes, so it is read-only.
type coverage struct {
	live    *liveMask
	groups  []CoverageGroup
	lost    []int
	anyDown bool
}

// coverage returns the fan-out plan for the prober's current verdicts,
// recomputing it only when the set of live nodes changed.
func (r *Router) coverage() *coverage {
	live := r.prober.liveNodes()
	if c := r.cov.Load(); c != nil && c.live.equal(live) {
		return c
	}
	c := &coverage{live: live, anyDown: live.count < len(r.cfg.Nodes)}
	c.groups, c.lost = r.topo.Coverage(r.cfg.Devices, live.has)
	r.cov.Store(c)
	return c
}

// fanOut evaluates the SLA grid across every shard group at the given load
// factor and merges the partials in group order, so identical requests
// give bit-identical answers. Every shard call runs under one context
// whose deadline is the client's timeout. Groups whose entire live chain
// fails at call time are folded into the lost set for this answer (and
// reported to the prober), so a shard dying between probe rounds degrades
// the response instead of erroring it.
func (r *Router) fanOut(ctx context.Context, slas []float64, factor float64) (fanResult, error) {
	totalRate, feRate := r.rates.totals()
	if totalRate <= 0 {
		return fanResult{}, serve.ErrNotReady
	}
	cov := r.coverage()
	if len(cov.groups) == 0 {
		return fanResult{}, ErrNoQuorum
	}
	paths := make([]string, len(cov.groups))
	b := make([]byte, 0, 256)
	for i, g := range cov.groups {
		b = append(b[:0], "/shard/partial?"...)
		b = serve.AppendPartialQuery(b, serve.PartialRequest{
			Devices: g.Devices, SLAs: slas, TotalRate: feRate, Factor: factor})
		paths[i] = string(b)
	}
	callCtx, cancel := r.client.fanOutContext(ctx)
	defer cancel()
	calls := r.client.partials(callCtx, cov.groups, paths)
	res := fanResult{lost: cov.lost, totalRate: totalRate}
	partials := make([]Partial, 0, len(calls))
	notPrimary := false
	for i := range calls {
		c, g := &calls[i], &cov.groups[i]
		if c.err != nil {
			if ctx.Err() != nil {
				return fanResult{}, ctx.Err()
			}
			for _, n := range g.Chain {
				r.prober.noteFailure(n)
			}
			r.logf("cluster: partial fan-out to chain %v failed: %v", g.Chain, c.err)
			// The plan's lost list is shared: append to a copy.
			res.lost = append(slices.Clip(res.lost), g.Devices...)
			continue
		}
		r.prober.noteSuccess(c.node)
		r.prober.observeGeneration(c.node, c.resp.Generation)
		if c.resp.Generation > res.generation {
			res.generation = c.resp.Generation
		}
		if !g.Primary || c.node != g.Chain[0] {
			notPrimary = true
		}
		partials = append(partials, Partial{
			WeightedSums: c.resp.WeightedSums,
			Rate:         c.resp.Rate,
			Saturated:    c.resp.Saturated,
		})
	}
	if len(partials) == 0 {
		return fanResult{}, ErrNoQuorum
	}
	lostRate := 0.0
	for _, d := range res.lost {
		lostRate += r.rates.rate(d) * factor
	}
	// An up-and-answering replica can still hold less state than the tier has
	// ingested — typically one that restarted empty and resumed primary duty
	// before its window refilled. That shows up as live partials whose rates
	// don't add up to the tracker's total; the gap is traffic nobody
	// accounted for, the same epistemic state as a lost device, so it widens
	// the bounds and degrades the answer instead of silently renormalizing.
	liveSum := 0.0
	for _, p := range partials {
		liveSum += p.Rate
	}
	underReported := false
	if gap := totalRate*factor - lostRate - liveSum; gap > 1e-3*totalRate*factor {
		lostRate += gap
		underReported = true
	}
	merged, err := MergePartials(partials, lostRate, len(slas))
	if err != nil {
		return fanResult{}, err
	}
	if merged.Saturated {
		// Some slice of the tier has no steady state: like a single
		// engine, answer that the target will not be met at all rather
		// than renormalizing over the slices that still answered.
		for i := range merged.Estimates {
			merged.Estimates[i], merged.Low[i], merged.High[i] = 0, 0, 0
		}
	}
	res.merged = merged
	res.degraded = len(res.lost) > 0 || notPrimary || cov.anyDown || underReported
	if res.degraded {
		r.degraded.Inc()
	}
	return res, nil
}

// ---------------------------------------------------------------------------
// /predict

// Prediction is the cluster answer for one SLA bound: the merged estimate
// plus the degradation bracket (Low == High == MeetRatio when healthy).
type Prediction struct {
	SLA       float64 `json:"sla"`
	MeetRatio float64 `json:"meetRatio"`
	Low       float64 `json:"low"`
	High      float64 `json:"high"`
	Saturated bool    `json:"saturated"`
}

// PredictResponse is the merged /predict payload.
type PredictResponse struct {
	Predictions []Prediction `json:"predictions"`
	// Degraded reports that the answer did not come from the full,
	// healthy tier, for any of four causes: devices lost (no replica
	// answered for them), a shard node down, a standby replica answered in
	// place of the primary (also a hedge the standby won on a healthy
	// tier), or a shard under-reported its rate (a replica that restarted
	// empty). The estimate is then the answering slices' renormalized
	// truth, the Low/High brackets widen over any missing rate, and the
	// router does not memoize the answer.
	Degraded bool `json:"degraded"`
	// LostDevices are the devices with no reachable replica.
	LostDevices []int `json:"lostDevices,omitempty"`
	Saturated   bool  `json:"saturated"`
	// TotalRate is the tier-wide rate from the router's tracker; LiveRate
	// the portion the surviving shards answered for.
	TotalRate float64 `json:"totalRate"`
	LiveRate  float64 `json:"liveRate"`
	// Generation is the maximum shard cache generation seen in this answer.
	Generation uint64 `json:"generation"`
}

func (r *Router) handlePredict(w http.ResponseWriter, req *http.Request) {
	pr, err := serve.ParsePredict(w, req)
	if err != nil {
		r.parseError(w, err)
		return
	}
	if !pr.Plain() {
		r.badRequest(w, errNotPlain)
		return
	}
	slas := pr.SLAs
	if len(slas) == 0 {
		slas = r.cfg.SLAs
	}
	for _, s := range slas {
		if !(s > 0) || math.IsInf(s, 0) {
			r.badRequest(w, fmt.Errorf("%w: SLA %v must be positive and finite", serve.ErrBadQuery, s))
			return
		}
	}
	// The epoch is read before anything the answer depends on: an answer
	// fanned out at it is exact for as long as the epoch stays put.
	var kb [64]byte
	key := appendGridKey(kb[:0], slas)
	epoch := r.memo.epoch.Load()
	if body, ok := r.memo.get(key, epoch); ok {
		r.memoHits.Inc()
		r.served.Inc()
		r.writeBody(w, body)
		return
	}
	r.memoMisses.Inc()
	if !r.acquire(w) {
		return
	}
	defer r.release()
	res, err := r.fanOut(req.Context(), slas, 1)
	if err != nil {
		r.queryError(w, req, err)
		return
	}
	resp := PredictResponse{
		Predictions: make([]Prediction, len(slas)),
		Degraded:    res.degraded,
		LostDevices: res.lost,
		Saturated:   res.merged.Saturated,
		TotalRate:   res.totalRate,
		LiveRate:    res.merged.LiveRate,
		Generation:  res.generation,
	}
	for i, s := range slas {
		resp.Predictions[i] = Prediction{
			SLA:       s,
			MeetRatio: res.merged.Estimates[i],
			Low:       res.merged.Low[i],
			High:      res.merged.High[i],
			Saturated: res.merged.Saturated,
		}
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(resp); err != nil {
		r.queryError(w, req, err)
		return
	}
	// A degraded answer (devices lost, a standby answered, a shard
	// under-reported) is served once and fanned out again next time.
	if !res.degraded {
		r.memo.put(key, epoch, buf.Bytes())
	}
	r.served.Inc()
	r.writeBody(w, buf.Bytes())
}

// errNotPlain refuses every query but a plain read: a coded read or a
// quorum write is a k-of-n order statistic of the WHOLE mixture —
// nonlinear in the per-device partials — so a merged answer would be
// silently wrong, and tenant state lives on the shards. They remain
// single-engine features.
var errNotPlain = fmt.Errorf("%w: cluster mode answers plain reads only (coded and write order statistics do not decompose across shards; tenant queries need a single engine)", serve.ErrBadQuery)

// parseError answers a request serve's parser refused.
func (r *Router) parseError(w http.ResponseWriter, err error) {
	if errors.Is(err, serve.ErrMethodNotAllowed) {
		r.writeJSON(w, http.StatusMethodNotAllowed, errorBody{Error: "GET or POST required"})
		return
	}
	r.badRequest(w, err)
}

// ---------------------------------------------------------------------------
// /advise

// AdviceResponse is the merged admission answer: the single-engine Advice
// shape plus the cluster degradation flag.
type AdviceResponse struct {
	serve.Advice
	// Degraded reports that the current-rate answer did not come from the
	// full, healthy tier: devices lost, a shard node down, a standby
	// replica answered in place of the primary, or a shard under-reported
	// its rate (see PredictResponse.Degraded).
	Degraded bool `json:"degraded"`
}

func (r *Router) handleAdvise(w http.ResponseWriter, req *http.Request) {
	ar, err := serve.ParseAdvise(w, req)
	if err != nil {
		r.parseError(w, err)
		return
	}
	if !ar.Plain() {
		r.badRequest(w, errNotPlain)
		return
	}
	sla, target := ar.SLA, ar.Target
	if !(sla > 0) || math.IsInf(sla, 0) {
		r.badRequest(w, fmt.Errorf("%w: SLA %v must be positive and finite", serve.ErrBadQuery, sla))
		return
	}
	if !(target > 0) || target > 1 {
		r.badRequest(w, fmt.Errorf("%w: target %v outside (0,1]", serve.ErrBadQuery, target))
		return
	}
	if !r.acquire(w) {
		return
	}
	defer r.release()

	ctx := req.Context()
	current := r.rates.totalRate()
	if current <= 0 {
		r.queryError(w, req, serve.ErrNotReady)
		return
	}
	cur, err := r.fanOut(ctx, []float64{sla}, 1)
	if err != nil {
		r.queryError(w, req, err)
		return
	}
	adv := AdviceResponse{
		Advice: serve.Advice{
			SLA:              sla,
			Target:           target,
			CurrentRate:      current,
			CurrentMeetRatio: cur.merged.Estimates[0],
			Saturated:        cur.merged.Saturated,
		},
		Degraded: cur.degraded,
	}
	// The search enters its ladder at rung 6, the current rate itself,
	// whose merged answer cur already holds: no second factor-1 fan-out.
	margin := func(ctx context.Context, rate float64) (float64, bool, error) {
		res := cur
		if rate != current {
			var err error
			if res, err = r.fanOut(ctx, []float64{sla}, rate/current); err != nil {
				return 0, false, err
			}
		}
		if res.merged.Saturated {
			return 0, false, nil
		}
		return res.merged.Estimates[0] - target, true, nil
	}
	maxRate, err := core.MaxRateWhereValueContext(ctx, margin, current/64, current/200, 6)
	if err != nil {
		r.queryError(w, req, err)
		return
	}
	adv.MaxAdmissibleRate = maxRate
	adv.Headroom = maxRate - current
	adv.Admit = !adv.Saturated && adv.CurrentMeetRatio >= target && adv.Headroom >= 0
	r.served.Inc()
	r.writeJSON(w, http.StatusOK, adv)
}

// ---------------------------------------------------------------------------
// /healthz and /metrics/prom

func (r *Router) handleHealthz(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodGet {
		r.writeJSON(w, http.StatusMethodNotAllowed, errorBody{Error: "GET required"})
		return
	}
	states := r.prober.snapshot()
	comps := make(map[string]serve.ComponentHealth, len(states)+1)
	status := "ok"
	upCount := 0
	for n, st := range states {
		c := serve.ComponentHealth{Status: "ok",
			Detail: fmt.Sprintf("generation %d", st.gen)}
		if !st.up {
			c = serve.ComponentHealth{Status: "degraded",
				Detail: fmt.Sprintf("unreachable after %d consecutive failures", st.fails)}
			status = "degraded"
		} else {
			upCount++
		}
		comps[fmt.Sprintf("shard-%d", n)] = c
	}
	rate := r.rates.totalRate()
	ingest := serve.ComponentHealth{Status: "ok",
		Detail: fmt.Sprintf("total rate %.1f req/s", rate)}
	if rate <= 0 {
		ingest = serve.ComponentHealth{Status: "degraded", Detail: "no observations forwarded yet"}
	}
	comps["ingest"] = ingest
	r.writeJSON(w, http.StatusOK, serve.HealthResponse{
		Status:     status,
		Ready:      rate > 0 && upCount > 0,
		Components: comps,
	})
}

func (r *Router) handleMetricsProm(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodGet {
		r.writeJSON(w, http.StatusMethodNotAllowed, errorBody{Error: "GET required"})
		return
	}
	w.Header().Set("Content-Type", obs.ContentType)
	if err := r.reg.WritePrometheus(w); err != nil {
		r.logf("cluster: writing /metrics/prom: %v", err)
	}
}

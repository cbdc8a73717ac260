package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"mime"
	"net/http"
	"net/http/pprof"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"cosmodel/internal/calib"
	"cosmodel/internal/core"
	"cosmodel/internal/dist"
	"cosmodel/internal/ingest"
	"cosmodel/internal/numeric"
	"cosmodel/internal/obs"
	"cosmodel/internal/parallel"
)

// statusClientClosedRequest is the non-standard (nginx-originated) status
// recorded when the client abandoned the request before the evaluation
// finished. Nothing is actually written to the closed connection; the code
// exists for accounting and logs.
const statusClientClosedRequest = 499

// maxBodyBytes bounds request bodies: the largest legitimate payload (a
// full ingest batch) is a few hundred KiB; anything beyond 1 MiB is either
// a mistake or an attack, and reading it unbounded would let one client
// exhaust memory.
const maxBodyBytes = 1 << 20

// Server is the HTTP front of the prediction engine. Create with NewServer
// and mount Handler on any http server. Its counters live on the engine's
// metrics registry (rendered at /metrics/prom) while /metrics keeps the
// original JSON shape.
type Server struct {
	engine *Engine
	// sem is the bounded work queue for model-evaluating endpoints: a
	// slot per allowed in-flight query, nothing queued behind it. A full
	// pool sheds with 503 instead of accumulating goroutines.
	sem   chan struct{}
	start time.Time

	// latAll accumulates every ingested latency for the lifetime
	// percentile diagnostics in /metrics and the self-measured quantiles
	// in /metrics/prom.
	latAll *obs.Histogram

	inflight    atomic.Int64
	shed        *obs.Counter
	badRequests *obs.Counter
	served      *obs.Counter

	clientGone  *obs.Counter // requests abandoned by the client mid-evaluation
	timeouts    *obs.Counter // evaluations that exceeded the per-call budget
	numerical   *obs.Counter // evaluations rejected as numerically poisoned
	panics      *obs.Counter // panics recovered (handlers and pooled tasks)
	encodeFails *obs.Counter // JSON responses that failed to encode/write
	tooLarge    *obs.Counter // request bodies over maxBodyBytes
	unsupMedia  *obs.Counter // ingest bodies with an unsupported content type
}

// NewServer builds a serving instance from the configuration.
func NewServer(cfg Config) (*Server, error) {
	eng, err := NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	s := &Server{
		engine: eng,
		sem:    make(chan struct{}, cfg.MaxInflight),
		start:  cfg.now(),
	}
	reg := eng.Registry()
	s.latAll = reg.Histogram("cosserve_ingested_latency_seconds",
		"Response latencies reported by the storage backends via /ingest.", nil)
	s.shed = reg.Counter("cosserve_http_shed_total",
		"Queries shed with 503 because the in-flight limit was reached.", nil)
	s.badRequests = reg.Counter("cosserve_http_bad_requests_total",
		"Requests rejected as malformed (400).", nil)
	s.served = reg.Counter("cosserve_http_queries_served_total",
		"Prediction and advice queries answered successfully.", nil)
	s.clientGone = reg.Counter("cosserve_http_client_gone_total",
		"Requests abandoned by the client mid-evaluation.", nil)
	s.timeouts = reg.Counter("cosserve_eval_timeouts_total",
		"Evaluations that exceeded the per-call budget.", nil)
	s.numerical = reg.Counter("cosserve_numerical_failures_total",
		"Evaluations rejected as numerically poisoned.", nil)
	s.panics = reg.Counter("cosserve_panics_recovered_total",
		"Panics recovered in handlers and pooled evaluation tasks.", nil)
	s.encodeFails = reg.Counter("cosserve_response_encode_failures_total",
		"JSON responses that failed to encode or write.", nil)
	s.tooLarge = reg.Counter("cosserve_oversized_bodies_total",
		"Request bodies rejected for exceeding the size limit.", nil)
	s.unsupMedia = reg.Counter("cosserve_unsupported_media_total",
		"Ingest requests rejected for an unsupported content type (415).", nil)
	reg.GaugeFunc("cosserve_http_inflight",
		"Model-evaluating queries currently in flight.", nil,
		func() float64 { return float64(s.inflight.Load()) })
	reg.GaugeFunc("cosserve_uptime_seconds",
		"Seconds since the server started.", nil,
		func() float64 { return s.engine.Config().now().Sub(s.start).Seconds() })
	if cfg.RuntimeMetrics {
		obs.RegisterRuntimeMetrics(reg)
	}
	return s, nil
}

// Engine exposes the underlying prediction engine (benchmarks and embedders
// bypass HTTP through it).
func (s *Server) Engine() *Engine { return s.engine }

// Close stops the engine's background calibration feeder after draining
// queued batches. Call after the HTTP server has shut down.
func (s *Server) Close() { s.engine.Close() }

// Handler returns the route table:
//
//	POST /ingest   — absorb per-device observations
//	GET/POST /predict — percentile predictions at the current operating point
//	GET/POST /advise  — admission control: max admissible rate, headroom
//	GET  /calibration — online calibration and drift-detection state
//	GET  /metrics  — internal counters (JSON)
//	GET  /metrics/prom — the metrics registry in Prometheus text format
//	GET  /healthz  — liveness + readiness, per-component state
//
// With Config.ShardMode the cluster-internal shard endpoints are added:
//
//	GET/POST /shard/partial — partial-CDF evaluation over a device subset
//	GET  /shard/state      — generation, ingest and rate state for the prober
//	POST /shard/invalidate — raise the cache generation (gossip sync)
//
// With Config.Pprof the net/http/pprof profiling endpoints are additionally
// mounted under /debug/pprof/.
//
// Every route runs behind the panic-recovery middleware: a panicking
// handler (or a panic captured inside the pooled model evaluation and
// re-surfaced) is logged with its stack, counted, and answered with a 500
// JSON body instead of killing the connection served by this goroutine.
// Every named route is also timed into a per-endpoint latency histogram, so
// the server reports its own p50/p95/p99 next to the percentiles it
// predicts.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/ingest", s.timed("/ingest", s.handleIngest))
	mux.HandleFunc("/predict", s.timed("/predict", s.handlePredict))
	mux.HandleFunc("/advise", s.timed("/advise", s.handleAdvise))
	mux.HandleFunc("/calibration", s.timed("/calibration", s.handleCalibration))
	mux.HandleFunc("/metrics", s.timed("/metrics", s.handleMetrics))
	mux.HandleFunc("/metrics/prom", s.timed("/metrics/prom", s.handleMetricsProm))
	mux.HandleFunc("/healthz", s.timed("/healthz", s.handleHealthz))
	if s.engine.Config().ShardMode {
		mux.HandleFunc("/shard/partial", s.timed("/shard/partial", s.handleShardPartial))
		mux.HandleFunc("/shard/state", s.timed("/shard/state", s.handleShardState))
		mux.HandleFunc("/shard/invalidate", s.timed("/shard/invalidate", s.handleShardInvalidate))
	}
	if s.engine.Config().Pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return s.recoverMiddleware(mux)
}

// timed wraps a handler with a per-endpoint self-latency histogram.
func (s *Server) timed(path string, h http.HandlerFunc) http.HandlerFunc {
	lat := s.engine.Registry().Histogram("cosserve_http_request_seconds",
		"Self-measured request-handling latency by endpoint.", obs.Labels{"path": path})
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		defer func() { lat.Observe(time.Since(start).Seconds()) }()
		h(w, r)
	}
}

// recoverMiddleware converts handler panics into logged, counted 500s.
// http.ErrAbortHandler is re-raised: it is the sanctioned way to abort a
// response and net/http suppresses its stack trace.
func (s *Server) recoverMiddleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			rec := recover()
			if rec == nil {
				return
			}
			if err, ok := rec.(error); ok && errors.Is(err, http.ErrAbortHandler) {
				panic(rec)
			}
			s.panics.Inc()
			s.logf("serve: panic in %s %s: %v\n%s", r.Method, r.URL.Path, rec, debug.Stack())
			s.writeJSON(w, http.StatusInternalServerError,
				errorBody{Error: "internal error (panic recovered)"})
		}()
		next.ServeHTTP(w, r)
	})
}

// errorBody is the uniform error payload.
type errorBody struct {
	Error string `json:"error"`
}

// writeJSON writes v as a compact JSON response. Encode failures (an
// unmarshalable value, or a client that vanished mid-write) are counted and
// logged rather than silently dropped: a response the client never saw is
// an operational signal, not a non-event.
func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		s.encodeFails.Inc()
		s.logf("serve: writing %d response: %v", status, err)
	}
}

func (s *Server) logf(format string, args ...any) {
	s.engine.Config().logf(format, args...)
}

func (s *Server) badRequest(w http.ResponseWriter, err error) {
	if errors.Is(err, errBodyTooLarge) {
		s.tooLarge.Inc()
		s.writeJSON(w, http.StatusRequestEntityTooLarge, errorBody{Error: err.Error()})
		return
	}
	s.badRequests.Inc()
	s.writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
}

// acquire takes an in-flight slot, or sheds the request with 503.
func (s *Server) acquire(w http.ResponseWriter) bool {
	select {
	case s.sem <- struct{}{}:
		s.inflight.Add(1)
		return true
	default:
		s.shed.Inc()
		w.Header().Set("Retry-After", "1")
		s.writeJSON(w, http.StatusServiceUnavailable,
			errorBody{Error: "prediction queue full, load shed"})
		return false
	}
}

func (s *Server) release() {
	s.inflight.Add(-1)
	<-s.sem
}

// ---------------------------------------------------------------------------
// /ingest

// IngestRequest is the /ingest payload.
type IngestRequest struct {
	Observations []Observation `json:"observations"`
}

// IngestResponse acknowledges an accepted batch.
type IngestResponse struct {
	Accepted int `json:"accepted"`
}

// IngestErrorBody is the structured /ingest error payload in NDJSON mode:
// chunks emitted before the failure stay absorbed (Accepted), and Line names
// the offending input line when the failure was per-line.
type IngestErrorBody struct {
	Error    string `json:"error"`
	Accepted int    `json:"accepted"`
	Line     int    `json:"line,omitempty"`
}

// handleIngest negotiates the batch encoding by content type:
// application/json is the original array payload (absorbed all-or-nothing),
// application/x-ndjson streams one observation per line in pooled chunks
// (earlier chunks stay absorbed when a later line fails). An absent content
// type defaults to JSON for compatibility with bare clients; anything else
// is a 415 naming the supported types. Both modes enforce the body limit
// (413) and feed calibration through the asynchronous hand-off ring.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.writeJSON(w, http.StatusMethodNotAllowed, errorBody{Error: "POST required"})
		return
	}
	mt := ingest.ContentTypeJSON
	if ct := r.Header.Get("Content-Type"); ct != "" {
		parsed, _, err := mime.ParseMediaType(ct)
		if err != nil {
			s.unsupportedMedia(w, ct)
			return
		}
		mt = parsed
	}
	switch mt {
	case ingest.ContentTypeJSON:
		s.ingestJSON(w, r)
	case ingest.ContentTypeNDJSON:
		s.ingestNDJSON(w, r)
	default:
		s.unsupportedMedia(w, mt)
	}
}

func (s *Server) unsupportedMedia(w http.ResponseWriter, ct string) {
	s.unsupMedia.Inc()
	s.writeJSON(w, http.StatusUnsupportedMediaType, errorBody{
		Error: fmt.Sprintf("unsupported content type %q: use %s or %s",
			ct, ingest.ContentTypeJSON, ingest.ContentTypeNDJSON)})
}

func (s *Server) ingestJSON(w http.ResponseWriter, r *http.Request) {
	var req IngestRequest
	if err := decodeStrict(w, r, &req); err != nil {
		s.badRequest(w, err)
		return
	}
	if err := s.engine.IngestQueued(req.Observations); err != nil {
		s.badRequest(w, err)
		return
	}
	s.observeLatencies(req.Observations)
	s.writeJSON(w, http.StatusOK, IngestResponse{Accepted: len(req.Observations)})
}

func (s *Server) ingestNDJSON(w http.ResponseWriter, r *http.Request) {
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	accepted, err := ingest.DecodeNDJSON(body, s.engine.Config().Devices, 0,
		func(chunk []Observation) error {
			if err := s.engine.ingestDecoded(chunk); err != nil {
				return err
			}
			s.observeLatencies(chunk)
			return nil
		})
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			s.tooLarge.Inc()
			s.writeJSON(w, http.StatusRequestEntityTooLarge, IngestErrorBody{
				Error:    fmt.Sprintf("body exceeds %d bytes", mbe.Limit),
				Accepted: accepted})
			return
		}
		s.badRequests.Inc()
		resp := IngestErrorBody{Error: err.Error(), Accepted: accepted}
		var le *ingest.LineError
		if errors.As(err, &le) {
			resp.Line = le.Line
		}
		s.writeJSON(w, http.StatusBadRequest, resp)
		return
	}
	s.writeJSON(w, http.StatusOK, IngestResponse{Accepted: accepted})
}

func (s *Server) observeLatencies(batch []Observation) {
	for i := range batch {
		for _, l := range batch[i].Latencies {
			s.latAll.Observe(l)
		}
	}
}

// ---------------------------------------------------------------------------
// /predict

// CodedReadBlock is the coded-read section of a /predict answer: the
// order-statistic model's predictions for the requested stripe shape.
type CodedReadBlock struct {
	Spec        CodedReadSpec `json:"spec"`
	Predictions []Prediction  `json:"predictions"`
	Saturated   bool          `json:"saturated"`
}

// WriteBlock is the PUT section of a /predict answer: the quorum model's
// predictions for the requested replication policy.
type WriteBlock struct {
	Spec        WriteSpec    `json:"spec"`
	Predictions []Prediction `json:"predictions"`
	Saturated   bool         `json:"saturated"`
}

// PredictResponse carries one prediction per requested SLA bound.
type PredictResponse struct {
	Predictions []Prediction `json:"predictions"`
	// CodedRead carries the coded-read predictions when the query named a
	// stripe shape.
	CodedRead *CodedReadBlock `json:"codedRead,omitempty"`
	// Write carries the PUT quorum predictions when the query named a
	// replication policy.
	Write *WriteBlock `json:"write,omitempty"`
	// Tenant carries the named tenant class's windowed rates.
	Tenant *TenantStats `json:"tenant,omitempty"`
	// Saturated aggregates the per-prediction flags: the current
	// operating point has no steady state.
	Saturated bool `json:"saturated"`
	// TotalRate is the aggregate request rate of the current window and
	// CalibrationAge the seconds since the last ingest.
	TotalRate      float64 `json:"totalRate"`
	CalibrationAge float64 `json:"calibrationAgeSeconds"`
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	req, err := ParsePredict(w, r)
	if err != nil {
		s.parseError(w, err)
		return
	}
	if !s.acquire(w) {
		return
	}
	defer s.release()
	resp, err := s.engine.answerPredict(r.Context(), req)
	if err != nil {
		s.queryError(w, r, err)
		return
	}
	s.served.Inc()
	s.writeAppended(w, func(b []byte) ([]byte, error) { return appendPredictResponse(b, &resp) })
}

// answerPredict answers every block of a /predict request from one
// snapshot of the operating point and one SLA grid, so the blocks, the
// tenant share and the reported total rate all describe the same window.
func (e *Engine) answerPredict(ctx context.Context, req PredictRequest) (PredictResponse, error) {
	g, err := e.grid(req.SLAs)
	if err != nil {
		return PredictResponse{}, err
	}
	p, err := e.state.snapshotKeyed()
	if err != nil {
		return PredictResponse{}, err
	}
	resp := PredictResponse{TotalRate: p.rate, CalibrationAge: -1}
	if resp.Predictions, resp.Saturated, err = e.predictAt(ctx, p, core.Query{}, g); err != nil {
		return PredictResponse{}, err
	}
	if req.Coded != nil {
		blk := &CodedReadBlock{Spec: *req.Coded}
		if blk.Predictions, blk.Saturated, err = e.predictAt(ctx, p, req.Coded.query(), g); err != nil {
			return PredictResponse{}, err
		}
		resp.CodedRead = blk
	}
	if req.Write != nil {
		blk := &WriteBlock{Spec: *req.Write}
		if blk.Predictions, blk.Saturated, err = e.predictAt(ctx, p, req.Write.query(), g); err != nil {
			return PredictResponse{}, err
		}
		resp.Write = blk
	}
	if req.Tenant != "" {
		ts, err := e.tenantStats(req.Tenant, p.rate)
		if err != nil {
			return PredictResponse{}, err
		}
		resp.Tenant = &ts
	}
	if age, ok := e.state.calibrationAge(); ok {
		resp.CalibrationAge = age
	}
	return resp, nil
}

// respBufs recycles the buffers of append-encoded answers.
var respBufs = sync.Pool{New: func() any {
	b := make([]byte, 0, 1024)
	return &b
}}

// writeAppended writes a 200 answer that encode appends to a pooled buffer,
// with a single Write: the bytes writeJSON would write, without reflection.
func (s *Server) writeAppended(w http.ResponseWriter, encode func([]byte) ([]byte, error)) {
	bp := respBufs.Get().(*[]byte)
	defer respBufs.Put(bp)
	b, err := encode((*bp)[:0])
	*bp = b
	if err != nil {
		s.encodeFails.Inc()
		s.logf("serve: encoding response: %v", err)
		s.writeJSON(w, http.StatusInternalServerError, errorBody{Error: "encoding response: " + err.Error()})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	if _, err := w.Write(b); err != nil {
		s.encodeFails.Inc()
		s.logf("serve: writing 200 response: %v", err)
	}
}

// parseError answers a request ParsePredict or ParseAdvise refused.
func (s *Server) parseError(w http.ResponseWriter, err error) {
	if errors.Is(err, ErrMethodNotAllowed) {
		s.writeJSON(w, http.StatusMethodNotAllowed, errorBody{Error: "GET or POST required"})
		return
	}
	s.badRequest(w, err)
}

// ---------------------------------------------------------------------------
// /advise

func (s *Server) handleAdvise(w http.ResponseWriter, r *http.Request) {
	req, err := ParseAdvise(w, r)
	if err != nil {
		s.parseError(w, err)
		return
	}
	if req.Tenant != "" && req.Tenants == nil {
		req.Tenants = map[string]float64{req.Tenant: 1}
	}
	if !s.acquire(w) {
		return
	}
	defer s.release()
	var adv any
	if len(req.Tenants) > 0 {
		ta, err := s.engine.AdviseTenantsContext(r.Context(), req.query(), req.SLA, req.Target, req.Tenants)
		if err != nil {
			s.queryError(w, r, err)
			return
		}
		ta.CodedRead = req.Coded
		adv = ta
	} else {
		a, err := s.engine.AdviseContext(r.Context(), req.query(), req.SLA, req.Target)
		if err != nil {
			s.queryError(w, r, err)
			return
		}
		a.CodedRead = req.Coded
		adv = a
	}
	s.served.Inc()
	s.writeJSON(w, http.StatusOK, adv)
}

// queryError maps engine errors to HTTP statuses. Invalid queries are 400;
// asking before any ingest is 409 (the client did nothing malformed; the
// server just has no operating point yet). Degradation paths each get a
// distinct, accounted answer:
//
//   - the client hung up mid-evaluation → 499 (nothing readable is
//     written; the status exists for logs and counters),
//   - the per-call evaluation budget (Opts.EvalTimeout) expired → 503 with
//     Retry-After: the server is temporarily too slow, not broken,
//   - the inversion was numerically poisoned and every fallback failed →
//     500 with the structured reason (never a NaN in a 200 body),
//   - a panic captured inside the pooled evaluation → 500, counted with
//     the handler-level panics.
func (s *Server) queryError(w http.ResponseWriter, r *http.Request, err error) {
	switch {
	case errors.Is(err, ErrBadQuery):
		s.badRequest(w, err)
	case errors.Is(err, ErrNotReady):
		s.writeJSON(w, http.StatusConflict, errorBody{Error: err.Error()})
	case isContextErr(err) && r.Context().Err() != nil:
		s.clientGone.Inc()
		s.writeJSON(w, statusClientClosedRequest, errorBody{Error: "client closed request"})
	case isContextErr(err):
		s.timeouts.Inc()
		w.Header().Set("Retry-After", "1")
		s.writeJSON(w, http.StatusServiceUnavailable,
			errorBody{Error: "evaluation budget exceeded: " + err.Error()})
	case errors.Is(err, numeric.ErrNumerical):
		s.numerical.Inc()
		s.writeJSON(w, http.StatusInternalServerError, errorBody{Error: err.Error()})
	case parallel.IsPanic(err):
		s.panics.Inc()
		s.logf("serve: panic inside model evaluation: %v", err)
		s.writeJSON(w, http.StatusInternalServerError, errorBody{Error: err.Error()})
	default:
		s.writeJSON(w, http.StatusInternalServerError, errorBody{Error: err.Error()})
	}
}

// ---------------------------------------------------------------------------
// /calibration

// DistSummary describes one served service-time distribution: its mean and
// squared coefficient of variation, the two moments the model consumes.
type DistSummary struct {
	Mean float64 `json:"mean"`
	SCV  float64 `json:"scv"`
}

func summarize(d dist.Distribution) DistSummary {
	s := DistSummary{Mean: d.Mean()}
	if s.Mean > 0 {
		s.SCV = d.Variance() / (s.Mean * s.Mean)
	}
	return s
}

// CalibrationResponse is the /calibration payload: the currently served
// per-class calibration and — when the online subsystem is enabled — the
// full drift-detection status.
type CalibrationResponse struct {
	// Enabled reports whether the online calibration subsystem is running.
	Enabled bool `json:"enabled"`
	// Recalibrations counts property swaps applied since startup.
	Recalibrations uint64 `json:"recalibrations"`
	// IndexDisk, MetaDisk, DataDisk summarize the currently served
	// per-operation-class disk service-time calibration.
	IndexDisk DistSummary `json:"indexDisk"`
	MetaDisk  DistSummary `json:"metaDisk"`
	DataDisk  DistSummary `json:"dataDisk"`
	// Status is the drift controller's state; omitted when disabled.
	Status *calib.Status `json:"status,omitempty"`
}

func (s *Server) handleCalibration(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.writeJSON(w, http.StatusMethodNotAllowed, errorBody{Error: "GET required"})
		return
	}
	props := s.engine.Props()
	resp := CalibrationResponse{
		Recalibrations: s.engine.recals.Value(),
		IndexDisk:      summarize(props.IndexDisk),
		MetaDisk:       summarize(props.MetaDisk),
		DataDisk:       summarize(props.DataDisk),
	}
	if st, ok := s.engine.CalibrationStatus(); ok {
		resp.Enabled = true
		resp.Status = &st
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// ---------------------------------------------------------------------------
// /metrics and /healthz

// MetricsResponse exposes the service's internal counters.
type MetricsResponse struct {
	EngineStats
	UptimeSeconds float64 `json:"uptimeSeconds"`
	Inflight      int64   `json:"inflight"`
	Shed          uint64  `json:"shedRequests"`
	BadRequests   uint64  `json:"badRequests"`
	QueriesServed uint64  `json:"queriesServed"`
	// Degradation accounting: each counter is one failure path of the
	// robustness design (see queryError and recoverMiddleware).
	ClientGone     uint64 `json:"clientClosedRequests"`
	Timeouts       uint64 `json:"evaluationTimeouts"`
	NumericalFails uint64 `json:"numericalFailures"`
	PanicsRecov    uint64 `json:"panicsRecovered"`
	EncodeFails    uint64 `json:"responseEncodeFailures"`
	TooLarge       uint64 `json:"oversizedBodies"`
	UnsupMedia     uint64 `json:"unsupportedMediaTypes"`
	// Observed latency diagnostics over every ingested latency sample.
	ObservedCount uint64  `json:"observedLatencyCount"`
	ObservedP50   float64 `json:"observedP50"`
	ObservedP95   float64 `json:"observedP95"`
	ObservedP99   float64 `json:"observedP99"`
	// Calibration is the online drift-detection status; omitted when the
	// subsystem is disabled.
	Calibration *calib.Status `json:"calibration,omitempty"`
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.writeJSON(w, http.StatusMethodNotAllowed, errorBody{Error: "GET required"})
		return
	}
	m := MetricsResponse{
		EngineStats:    s.engine.Stats(),
		UptimeSeconds:  s.engine.Config().now().Sub(s.start).Seconds(),
		Inflight:       s.inflight.Load(),
		Shed:           s.shed.Value(),
		BadRequests:    s.badRequests.Value(),
		QueriesServed:  s.served.Value(),
		ClientGone:     s.clientGone.Value(),
		Timeouts:       s.timeouts.Value(),
		NumericalFails: s.numerical.Value(),
		PanicsRecov:    s.panics.Value(),
		EncodeFails:    s.encodeFails.Value(),
		TooLarge:       s.tooLarge.Value(),
		UnsupMedia:     s.unsupMedia.Value(),
		ObservedCount:  s.latAll.Count(),
	}
	if m.ObservedCount > 0 {
		m.ObservedP50 = s.latAll.Quantile(0.50)
		m.ObservedP95 = s.latAll.Quantile(0.95)
		m.ObservedP99 = s.latAll.Quantile(0.99)
	}
	if st, ok := s.engine.CalibrationStatus(); ok {
		m.Calibration = &st
	}
	s.writeJSON(w, http.StatusOK, m)
}

// handleMetricsProm renders the engine's metrics registry in the
// Prometheus text exposition format. A write failure here is the scraper
// vanishing mid-scrape; it is counted with the JSON encode failures.
func (s *Server) handleMetricsProm(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.writeJSON(w, http.StatusMethodNotAllowed, errorBody{Error: "GET required"})
		return
	}
	w.Header().Set("Content-Type", obs.ContentType)
	if err := s.engine.Registry().WritePrometheus(w); err != nil {
		s.encodeFails.Inc()
		s.logf("serve: writing /metrics/prom: %v", err)
	}
}

// ComponentHealth is one subsystem's state inside /healthz: Status is "ok",
// "degraded" or "disabled", Detail the human-readable reason when it isn't a
// plain ok.
type ComponentHealth struct {
	Status string `json:"status"`
	Detail string `json:"detail,omitempty"`
}

// HealthResponse is the /healthz payload: Status is "ok" while the process
// serves normally and "degraded" when any component below degraded — today
// that is the evaluation engine recently recovering an inversion through a
// fallback inverter (still answering, but the numerics deserve attention);
// Ready reports whether observations have been ingested so predictions are
// possible. Components breaks the summary down per subsystem so an operator
// (or the cluster router's prober) sees which part degraded, not just that
// something did.
type HealthResponse struct {
	Status     string                     `json:"status"`
	Ready      bool                       `json:"ready"`
	Components map[string]ComponentHealth `json:"components,omitempty"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	_, reporting := s.engine.state.stats()
	comps := map[string]ComponentHealth{}

	engine := ComponentHealth{Status: "ok"}
	if s.engine.RecentFallback(s.engine.Config().Window) {
		engine = ComponentHealth{Status: "degraded",
			Detail: "inverter fallback within the health window"}
	}
	comps["engine"] = engine

	calibC := ComponentHealth{Status: "disabled"}
	if st, ok := s.engine.CalibrationStatus(); ok {
		calibC = ComponentHealth{Status: "ok"}
		if st.ApplyErrors > 0 {
			calibC = ComponentHealth{Status: "degraded",
				Detail: fmt.Sprintf("%d recalibration apply errors", st.ApplyErrors)}
		}
	}
	comps["calibration"] = calibC

	cs := s.engine.cache.stats()
	comps["cache"] = ComponentHealth{Status: "ok",
		Detail: fmt.Sprintf("%d entries, generation %d", cs.Entries, cs.Generation)}

	ingestC := ComponentHealth{Status: "ok",
		Detail: fmt.Sprintf("%d devices reporting", reporting)}
	if reporting == 0 {
		ingestC = ComponentHealth{Status: "degraded", Detail: "no devices reporting yet"}
	}
	comps["ingest"] = ingestC

	if s.engine.Config().ShardMode {
		comps["shard"] = ComponentHealth{Status: "ok",
			Detail: fmt.Sprintf("generation %d", cs.Generation)}
	}

	// The summary keeps its original semantics — "degraded" means the
	// engine's numerics, not mere unreadiness — so existing probes (and the
	// fault tests) keep their meaning; the per-component map is additive.
	s.writeJSON(w, http.StatusOK, HealthResponse{
		Status:     engine.Status,
		Ready:      reporting > 0,
		Components: comps,
	})
}

// ---------------------------------------------------------------------------
// Parsing helpers.

// errBodyTooLarge distinguishes an oversized body (413) from a merely
// malformed one (400).
var errBodyTooLarge = errors.New("serve: request body exceeds limit")

// decodeStrict decodes a JSON body rejecting unknown fields, trailing
// garbage and bodies over maxBodyBytes, so typos in payloads fail loudly
// with 400 instead of silently predicting from defaults and an unbounded
// body cannot exhaust server memory. The http.MaxBytesReader also closes
// the connection on overflow, stopping the client from streaming the rest.
func decodeStrict(w http.ResponseWriter, r *http.Request, v any) error {
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return fmt.Errorf("%w: body exceeds %d bytes", errBodyTooLarge, mbe.Limit)
		}
		return fmt.Errorf("%w: %v", ErrBadQuery, err)
	}
	if dec.More() {
		return fmt.Errorf("%w: trailing data after JSON body", ErrBadQuery)
	}
	return nil
}

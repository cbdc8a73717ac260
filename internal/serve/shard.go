package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"

	"cosmodel/internal/core"
)

// This file is the shard side of the cluster tier (internal/cluster): with
// Config.ShardMode a cosserve instance additionally answers partial-CDF
// evaluations over the device subset it owns, reports its shard state, and
// accepts cache-generation syncs. The correctness basis is the mixture
// linearity of the paper's Eq. 3: the system CDF is the rate-weighted sum of
// per-device response CDFs divided by the total rate, and the frontend
// sojourn factor inside each device's response depends only on the
// tier-wide total rate. A shard evaluating its local devices under the
// router-supplied global frontend rate therefore computes an exact additive
// slice — weightedSums[i] = localCDF(sla_i) · localRate — which the router
// merges as Σ sums / Σ rates with no approximation.

// PartialRequest asks a shard for its slice of the cluster mixture CDF.
type PartialRequest struct {
	// Devices are the storage devices this shard must evaluate — the subset
	// the router's ring assigns to it. Devices the shard has no observations
	// for contribute zero weight (see PartialResponse.Covered).
	Devices []int `json:"devices"`
	// SLAs are the latency bounds (seconds) to evaluate; empty means the
	// shard's configured defaults.
	SLAs []float64 `json:"slas"`
	// TotalRate is the tier-wide frontend arrival rate — requests plus PUT
	// replica writes — the router computed from the full ingest stream: the
	// frontend model is built at this rate (scaled by Factor) so every
	// shard's partial shares one frontend, the one a single engine holding
	// every device builds.
	TotalRate float64 `json:"totalRate"`
	// Factor proportionally scales every device's load (and the frontend
	// rate) — the admission search's what-if knob; 0 means 1.
	Factor float64 `json:"factor,omitempty"`
}

// PartialResponse is a shard's additive slice of the cluster mixture.
type PartialResponse struct {
	// WeightedSums[i] is localCDF(sla_i) · Rate: the shard's contribution to
	// the numerator of the merged mixture CDF.
	WeightedSums []float64 `json:"weightedSums"`
	// Rate is the (factor-scaled) aggregate rate of the covered devices —
	// the shard's contribution to the denominator.
	Rate float64 `json:"rate"`
	// Covered counts requested devices that had an operating point.
	Covered int `json:"covered"`
	// Saturated marks an operating point with no steady state anywhere in
	// the shard's slice (or a frontend overloaded at the global rate).
	Saturated bool `json:"saturated"`
	// Generation is the shard's prediction-cache generation — the token the
	// router gossips so replicas converge on one calibration epoch.
	Generation uint64 `json:"generation"`
}

// PartialPredictContext evaluates the shard's slice of the cluster mixture:
// the local device subset scaled by req.Factor under a frontend built at
// req.TotalRate·req.Factor. Zero covered devices is a legitimate empty
// slice, not an error. Results are memoized like every other prediction.
func (e *Engine) PartialPredictContext(ctx context.Context, req PartialRequest) (PartialResponse, error) {
	slas := req.SLAs
	if len(slas) == 0 {
		slas = e.cfg.SLAs
	}
	for _, s := range slas {
		if err := validSLA(s); err != nil {
			return PartialResponse{}, err
		}
	}
	if !(req.TotalRate > 0) || math.IsInf(req.TotalRate, 0) {
		return PartialResponse{}, fmt.Errorf("%w: totalRate %v must be positive and finite", ErrBadQuery, req.TotalRate)
	}
	factor := req.Factor
	if factor == 0 {
		factor = 1
	}
	if !(factor > 0) || math.IsInf(factor, 0) {
		return PartialResponse{}, fmt.Errorf("%w: factor %v must be positive and finite", ErrBadQuery, req.Factor)
	}
	if len(req.Devices) == 0 {
		return PartialResponse{}, fmt.Errorf("%w: empty device list", ErrBadQuery)
	}
	ms, covered, err := e.state.snapshotDevices(req.Devices)
	if err != nil {
		return PartialResponse{}, err
	}
	resp := PartialResponse{
		WeightedSums: make([]float64, len(slas)),
		Covered:      covered,
		Generation:   e.CacheGeneration(),
	}
	if covered == 0 {
		return resp, nil
	}
	feRate := req.TotalRate * factor
	ctx, cancel := e.cfg.Opts.EvalContext(ctx)
	defer cancel()
	ck := cacheKey("partial|"+opKey(ms)+"|tr="+quantStr(feRate), core.Query{}, factor, slas)
	v, _, err := e.cache.do(ctx, ck, func(ctx context.Context) (cachedValue, error) {
		local := 0.0
		for _, m := range ms {
			local += m.Rate * factor
		}
		sys, err := e.build(ms, core.Query{}, factor, feRate)
		if errors.Is(err, core.ErrOverload) {
			return cachedValue{rate: local, saturated: true, ps: make([]float64, len(slas))}, nil
		}
		if err != nil {
			return cachedValue{}, err
		}
		ps, err := sys.Eval(ctx, slas)
		if err != nil {
			return cachedValue{}, err
		}
		sums := ps[0]
		for i, p := range sums {
			sums[i] = p * local
		}
		return cachedValue{rate: local, ps: sums}, nil
	})
	if err != nil {
		return PartialResponse{}, err
	}
	e.predictions.Add(uint64(len(slas)))
	if v.saturated {
		e.saturations.Add(uint64(len(slas)))
	}
	resp.WeightedSums = v.ps
	resp.Rate = v.rate
	resp.Saturated = v.saturated
	// The generation may have advanced while we evaluated; report the newest
	// so the router's gossip never pushes a shard backwards.
	resp.Generation = e.CacheGeneration()
	return resp, nil
}

// ---------------------------------------------------------------------------
// Shard HTTP endpoints (mounted only with Config.ShardMode).

// ShardStateResponse is the /shard/state payload: what the router's health
// prober and generation gossip need from a replica.
type ShardStateResponse struct {
	Generation     uint64  `json:"generation"`
	Ingested       uint64  `json:"ingestedObservations"`
	Reporting      int     `json:"devicesReporting"`
	Devices        int     `json:"devices"`
	TotalRate      float64 `json:"totalRate"`
	CalibrationAge float64 `json:"calibrationAgeSeconds"`
	// DeviceRates and DeviceWriteRates are every device's windowed request
	// and PUT replica rates (0 when idle) — the state a restarted router
	// seeds its rate tracker from, so a fresh router fronting warm shards
	// reports the true tier-wide rates instead of zero.
	DeviceRates      []float64 `json:"deviceRates,omitempty"`
	DeviceWriteRates []float64 `json:"deviceWriteRates,omitempty"`
}

// ShardInvalidateRequest asks a shard to raise its cache generation to at
// least Generation (cluster-wide invalidation after a recalibration).
type ShardInvalidateRequest struct {
	Generation uint64 `json:"generation"`
}

// ShardInvalidateResponse reports the generation after the sync.
type ShardInvalidateResponse struct {
	Generation uint64 `json:"generation"`
}

func (s *Server) handleShardPartial(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.writeJSON(w, http.StatusMethodNotAllowed, errorBody{Error: "POST required"})
		return
	}
	var req PartialRequest
	if err := decodeStrict(w, r, &req); err != nil {
		s.badRequest(w, err)
		return
	}
	if !s.acquire(w) {
		return
	}
	defer s.release()
	resp, err := s.engine.PartialPredictContext(r.Context(), req)
	if err != nil {
		s.queryError(w, r, err)
		return
	}
	s.served.Inc()
	s.writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleShardState(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.writeJSON(w, http.StatusMethodNotAllowed, errorBody{Error: "GET required"})
		return
	}
	st := s.engine.Stats()
	reads, writes := s.engine.state.deviceRates()
	s.writeJSON(w, http.StatusOK, ShardStateResponse{
		Generation:       st.CacheGeneration,
		Ingested:         st.Ingested,
		Reporting:        st.Reporting,
		Devices:          s.engine.Config().Devices,
		TotalRate:        st.TotalRate,
		CalibrationAge:   st.CalibrationAge,
		DeviceRates:      reads,
		DeviceWriteRates: writes,
	})
}

func (s *Server) handleShardInvalidate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.writeJSON(w, http.StatusMethodNotAllowed, errorBody{Error: "POST required"})
		return
	}
	var req ShardInvalidateRequest
	if err := decodeStrict(w, r, &req); err != nil {
		s.badRequest(w, err)
		return
	}
	s.engine.SyncGeneration(req.Generation)
	s.writeJSON(w, http.StatusOK, ShardInvalidateResponse{Generation: s.engine.CacheGeneration()})
}

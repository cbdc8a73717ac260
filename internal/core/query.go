package core

import (
	"context"
	"errors"
	"fmt"
	"math"

	"cosmodel/internal/coscode"
	"cosmodel/internal/lst"
	"cosmodel/internal/numeric"
)

// Op is the request class a Query asks about.
type Op int

const (
	// OpRead is a GET: each copy's response is the read pipeline Sbe,
	// mixed by request rate.
	OpRead Op = iota
	// OpWrite is a replicated PUT: each replica's response is the write
	// pipeline Swr, mixed by write rate over the devices carrying writes.
	OpWrite
)

// Tier is where a Query's latency is observed.
type Tier int

const (
	// TierFrontend is the client-observed latency, frontend sojourn
	// included (Eq. 2).
	TierFrontend Tier = iota
	// TierBackend is the backend-tier latency alone, without frontend
	// queueing or WTA — the paper's testbed counts SLA compliance at both
	// tiers.
	TierBackend
	// TierNoWTA is the client-observed read latency with the accept-
	// waiting factor dropped, Sq ∗ Sbe — the paper's "noWTA" ablation,
	// exact against a model built with Options.WTA == WTANone.
	TierNoWTA
)

// Query is one latency question about a SystemModel. A request copies its
// work to Spec.N devices and completes at the Spec.K-th fastest copy: a
// plain read is the (1,1) case, an (n,k) erasure-coded or hedged read sets
// the stripe shape, and a W-of-N quorum write is Op OpWrite with
// Spec{N: N, K: W}. The zero Spec means (1,1), so the zero Query is the
// paper's headline prediction: a plain read observed at the frontend.
type Query struct {
	Op   Op
	Tier Tier
	Spec coscode.Spec
}

// spec returns the order statistic q asks about, reading the zero Spec as
// (1,1).
func (q Query) spec() coscode.Spec {
	if q.Spec == (coscode.Spec{}) {
		return coscode.Spec{N: 1, K: 1}
	}
	return q.Spec
}

// Validate checks the query: a known Op and Tier, a valid order statistic,
// and no hedging or noWTA ablation for writes (every replica is written
// on arrival, and the ablation is a read-path baseline).
func (q Query) Validate() error {
	switch {
	case q.Op != OpRead && q.Op != OpWrite:
		return fmt.Errorf("%w: unknown query op %d", ErrBadParams, q.Op)
	case q.Tier < TierFrontend || q.Tier > TierNoWTA:
		return fmt.Errorf("%w: unknown query tier %d", ErrBadParams, q.Tier)
	case q.Op == OpWrite && q.Spec.Hedge:
		return fmt.Errorf("%w: writes cannot be hedged", ErrBadParams)
	case q.Op == OpWrite && q.Tier == TierNoWTA:
		return fmt.Errorf("%w: the noWTA tier is read-only", ErrBadParams)
	}
	return q.spec().Validate()
}

// mode is the mixture q's order statistic is taken over: for a single copy
// the whole observed response; for several, the per-copy response behind
// the frontend sojourn they share, which frontendGrid adds back.
func (q Query) mode() evalMode {
	single := q.spec().N == 1
	m := evalMode{write: q.Op == OpWrite}
	switch {
	case q.Tier == TierBackend:
		m.shape = shapeBackend
	case q.Tier == TierNoWTA && single:
		m.shape = shapeNoWTA
	case q.Tier == TierNoWTA:
		m.shape = shapeBackend
	case single:
		m.shape = shapeFull
	default:
		m.shape = shapeResponse
	}
	return m
}

// spanOp names the observer span of an evaluation of q at n thresholds (a
// quantile search when n < 0): "cdf" for one threshold, "cdf_batch" for
// several, "quantile" for a search; "backend_" or "nowta_" marks the
// non-frontend tiers, and "write_" (any write) or "coded_" (a multi-copy
// read) the order-statistic queries.
func spanOp(q Query, n int) string {
	op := "cdf_batch"
	switch {
	case n < 0:
		op = "quantile"
	case n == 1:
		op = "cdf"
	}
	switch q.Tier {
	case TierBackend:
		op = "backend_" + op
	case TierNoWTA:
		op = "nowta_" + op
	}
	switch {
	case q.Op == OpWrite:
		op = "write_" + op
	case q.spec().N > 1:
		op = "coded_" + op
	}
	return op
}

// CDF predicts the fraction of plain reads completing within t seconds —
// the paper's headline output. A numerical failure reports 0, the
// conservative end of the clamp.
func (s *SystemModel) CDF(t float64) float64 {
	out, err := s.Eval(context.Background(), []float64{t})
	if err != nil {
		return 0
	}
	return out[0][0]
}

// Eval answers every query at every threshold: out[i][j] is the
// probability that a qs[i] request completes within ts[j] seconds (0 for
// ts[j] <= 0). No queries means the zero Query, a plain read. The
// single-copy queries share one traversal of the device mixture; each
// multi-copy query adds one more, answering every order-statistic probe of
// every threshold together. out[i][j] does not depend on the other
// thresholds or queries in the call.
//
// ctx and Options.EvalTimeout are observed between mixture groups, and
// every per-group inversion is validated — an invalid value (NaN, Inf, far
// outside [0,1]) retries through Options.Fallbacks before surfacing as
// numeric.ErrNumerical. A write query on a mixture with no write traffic
// reports ErrBadParams. One observer span covers the call, named after
// qs[0].
func (s *SystemModel) Eval(ctx context.Context, ts []float64, qs ...Query) (out [][]float64, err error) {
	if len(qs) == 0 {
		qs = []Query{{}}
	}
	for _, q := range qs {
		if err := q.Validate(); err != nil {
			return nil, err
		}
	}
	ctx, cancel := s.opts.EvalContext(ctx)
	defer cancel()
	probes := 0
	done := s.beginSpan(spanOp(qs[0], len(ts)))
	defer func() { done(probes, err) }()
	out = make([][]float64, len(qs))
	for i := range out {
		out[i] = make([]float64, len(ts))
	}
	if probes, err = s.eval(ctx, ts, qs, out); err != nil {
		return nil, err
	}
	return out, nil
}

// eval is Eval without validation or span bookkeeping. It returns the
// number of mixture quadratures evaluated.
func (s *SystemModel) eval(ctx context.Context, ts []float64, qs []Query, out [][]float64) (int, error) {
	var modes []evalMode
	var rows [][]float64
	for i, q := range qs {
		if q.spec().N == 1 {
			modes = append(modes, q.mode())
			rows = append(rows, out[i])
		}
	}
	probes := 0
	if len(modes) > 0 {
		probes = len(ts) * len(modes)
		if err := s.mixtureCDFBatch(ctx, modes, ts, zeroDelay(len(ts)), rows, nil); err != nil {
			return 0, err
		}
	}
	for i, q := range qs {
		if q.spec().N > 1 {
			n, err := s.orderStatistic(ctx, q, ts, out[i])
			if err != nil {
				return 0, err
			}
			probes += n
		}
	}
	return probes, nil
}

// orderStatistic evaluates a multi-copy query at every threshold into
// out: the Spec.K-th order statistic of Spec.N copies of the per-copy
// response (Poisson-binomial over independent copies, hedged reserves
// delayed by Spec.HedgeDelay), convolved with the shared frontend sojourn
// over frontendGrid unless the query observes the backend tier. The probe
// sequence of coscode.CDF depends only on the spec and its threshold,
// never on probed values, so a recording pass enumerates every per-copy
// probe, planProbes lays them onto quadrature bases, one mixtureCDFBatch
// answers them all, and a replay pass assembles each order statistic from
// the answers. It returns the number of quadratures evaluated: the bases.
func (s *SystemModel) orderStatistic(ctx context.Context, q Query, ts []float64, out []float64) (int, error) {
	spec := q.spec()
	pts, masses := []float64{0}, []float64{1}
	if q.Tier != TierBackend {
		var err error
		if pts, masses, err = s.frontendGrid(); err != nil {
			return 0, err
		}
	}
	var probes []kOfNProbe
	if err := kOfNPass(spec, ts, pts, masses, out, func(x float64, fam int) (float64, error) {
		probes = append(probes, kOfNProbe{at: x, fam: fam})
		return 0, nil
	}); err != nil {
		return 0, err
	}
	plan := planProbes(probes, delayRatioOf(s.opts.inverter()))
	vals := make([]float64, len(plan.cells))
	if err := s.mixtureCDFBatch(ctx, []evalMode{q.mode()}, plan.bases, plan.cells, [][]float64{vals}, nil); err != nil {
		return 0, err
	}
	next := 0
	return len(plan.bases), kOfNPass(spec, ts, pts, masses, out, func(float64, int) (float64, error) {
		v := vals[plan.of[next]]
		next++
		return v, nil
	})
}

// kOfNPass runs spec's order statistic over every (threshold, grid point)
// into out, with base answering the per-copy probes. base also receives
// the probe's family: 2j for the probes of threshold ts[j] that
// coscode.CDF makes first (the primaries'), 2j+1 for the second ones (a
// hedged reserve's, at t−x−Δ).
func kOfNPass(spec coscode.Spec, ts, pts, masses, out []float64, base func(x float64, fam int) (float64, error)) error {
	fam := 0
	probe := func(x float64) (float64, error) {
		f := fam
		fam |= 1
		return base(x, f)
	}
	for j, t := range ts {
		if t <= 0 {
			continue
		}
		total := 0.0
		for i, x := range pts {
			if masses[i] == 0 || t-x <= 0 {
				continue
			}
			fam = 2 * j
			h, err := coscode.CDF(spec, probe, t-x)
			if err != nil {
				return err
			}
			total += masses[i] * h
		}
		out[j] = numeric.Clamp01(total)
	}
	return nil
}

// kOfNProbe is one per-copy CDF probe of an order statistic: the abscissa
// it asks at and its family (see kOfNPass).
type kOfNProbe struct {
	at  float64
	fam int
}

// delayRatio is R: a probe at y is answered from the quadrature of a base
// b of its family only when the delay d = b − y satisfies 0 ≤ d ≤ b/R.
// Within that bound the delayed Euler inversion's error stays within twice
// the direct inversion's (or 1e-9) from just past the frontend grid up to
// 0.5 s on twenty random mixtures (TestDelayedCellAccuracy); at R = 64 it
// reached 12× on three of them, near the direct inversion's error zeros.
const delayRatio = 164

// delayRatioOf is the R the planner uses under inv: delayRatio for Euler,
// +Inf (no delay) for any other rule. Euler's nodes all have Re(s) =
// A/(2b) > 0, so the delay factor |e^{−s·d}| < 1 damps the quadrature's
// roundoff. Talbot's contour reaches Re(s) ≈ −2M²/(5b), where the factor
// grows to e^{2M²/(5R)} and amplifies it (M = 48 broke the bound 18×), and
// Gaver–Stehfest's ~1e-6 error crosses zero, so a delay of b/R breaks the
// bound near its zeros (R had to reach ~1000 for it).
func delayRatioOf(inv numeric.Inverter) float64 {
	if e, ok := inv.(*numeric.Euler); ok && e.A > 0 {
		return delayRatio
	}
	return math.Inf(1)
}

// probePlan lays probes onto quadratures: bases are the abscissae whose
// quadratures are evaluated, cells the answers read from them (grouped by
// base, in base order, as mixtureCDFBatch takes them), and of[p] is the
// cell answering probe p.
type probePlan struct {
	bases []float64
	cells []probeCell
	of    []int
}

// planProbes assigns each probe, in order, to the first base of its
// family with 0 ≤ d ≤ b/ratio, and otherwise makes the probe a base of its
// own, answered with zero delay. Families never share bases: a hedged
// reserve's probes sit Δ below the primaries' and form bases of their own.
// The probes come in kOfNPass's order, each threshold's together, so only
// the current threshold's bases are searched.
func planProbes(probes []kOfNProbe, ratio float64) probePlan {
	var p probePlan
	assigned := make([]probeCell, len(probes))
	var fams []int // family of each base
	start := 0     // first base of the current threshold
	for i, pr := range probes {
		if i > 0 && pr.fam/2 != probes[i-1].fam/2 {
			start = len(p.bases)
		}
		assigned[i].base = -1
		for b := start; b < len(p.bases); b++ {
			if d := p.bases[b] - pr.at; fams[b] == pr.fam && d >= 0 && d <= p.bases[b]/ratio {
				assigned[i] = probeCell{base: b, delay: d}
				break
			}
		}
		if assigned[i].base < 0 {
			assigned[i].base = len(p.bases)
			p.bases = append(p.bases, pr.at)
			fams = append(fams, pr.fam)
		}
	}
	// Counting sort of the cells by base: next[b] is base b's next free
	// cell.
	next := make([]int, len(p.bases)+1)
	for _, c := range assigned {
		next[c.base+1]++
	}
	for b := range p.bases {
		next[b+1] += next[b]
	}
	p.cells = make([]probeCell, len(probes))
	p.of = make([]int, len(probes))
	for i, c := range assigned {
		p.of[i] = next[c.base]
		p.cells[next[c.base]] = c
		next[c.base]++
	}
	return p
}

// frontendGridPoints is the resolution of the discretized frontend
// sojourn used to convolve Sq with an order-statistic CDF. The sojourn is
// sub-millisecond next to the tens-of-milliseconds backend response, so a
// modest grid keeps the discretization error far below inversion noise.
const frontendGridPoints = 48

// frontendGridMinMass is the point mass below which frontendGrid drops a
// grid point: every kept point costs an order-statistic probe per
// threshold, and a mass this small moves no answer by more than 1e-15 per
// point. (Grid points below the parse atom carry such noise, ~1e-16.)
const frontendGridMinMass = 1e-15

// frontendGrid tabulates the frontend sojourn CDF on a fixed grid and
// converts it to point masses (interval increments, residual tail mass on
// the last point), zeroing masses below frontendGridMinMass. Built once
// per model, so once per operating point where the serving engine reuses
// its model; concurrency-safe.
func (s *SystemModel) frontendGrid() ([]float64, []float64, error) {
	s.feGridOnce.Do(func() {
		sq := s.frontend.Sojourn()
		mean := sq.Mean
		if !(mean > 0) {
			mean = 1e-4
		}
		span := 12 * mean
		inv := s.opts.inverter()
		pts := make([]float64, frontendGridPoints)
		masses := make([]float64, frontendGridPoints)
		for i := range pts {
			pts[i] = span * float64(i+1) / frontendGridPoints
		}
		vs := lst.CDFBatch(inv, sq, pts)
		prev := 0.0
		for i, v := range vs {
			if reason := numeric.CheckCDF(v); reason != "" {
				s.feGridErr = &numeric.InversionError{
					T: pts[i], Value: v,
					Reason: "frontend sojourn grid: " + reason,
					Tried:  []string{inv.Name()},
				}
				return
			}
			v = numeric.Clamp01(v)
			if v < prev {
				v = prev
			}
			masses[i] = v - prev
			prev = v
		}
		masses[len(masses)-1] += 1 - prev
		for i, m := range masses {
			if m < frontendGridMinMass {
				masses[i] = 0
			}
		}
		s.fePoints, s.feMasses = pts, masses
	})
	return s.fePoints, s.feMasses, s.feGridErr
}

// Quantile returns the latency below which a fraction p of q's requests
// complete, inverting Eval with a guarded bracketed root finder
// (numeric.BrentGuarded — false position with a bisection safeguard). A
// positive seed replaces the mean-based initial upper bracket, so a caller
// sweeping nearby operating points pays a couple of refinement probes per
// step instead of a fresh bracket growth. It returns 0 for p <= 0 and +Inf
// for p >= 1 or when the quantile exceeds the search ceiling (an
// effectively saturated model). ctx and Options.EvalTimeout are observed
// at every probe, and a grossly non-monotone CDF (a probe at a larger t
// reporting a value more than numeric.CDFSlack below one at a smaller t,
// or vice versa) surfaces as numeric.ErrNumerical instead of a garbage
// quantile.
func (s *SystemModel) Quantile(ctx context.Context, q Query, p, seed float64) (v float64, err error) {
	if err := q.Validate(); err != nil {
		return 0, err
	}
	ctx, cancel := s.opts.EvalContext(ctx)
	defer cancel()
	probes := 0
	done := s.beginSpan(spanOp(q, -1))
	defer func() { done(probes, err) }()
	if p <= 0 {
		return 0, nil
	}
	if p >= 1 {
		return math.Inf(1), nil
	}
	qs := []Query{q}
	row := make([]float64, 1)
	out := [][]float64{row}
	ts := make([]float64, 1)
	cdf := func(t float64) (float64, error) {
		ts[0] = t
		n, err := s.eval(ctx, ts, qs, out)
		probes += n
		return row[0], err
	}
	hi := seed
	if !(hi > 0) {
		hi = s.bracketStart(q)
	}
	vHi, err := cdf(hi)
	if err != nil {
		return 0, err
	}
	for vHi < p {
		hi *= 2
		if hi > 1e6 {
			return math.Inf(1), nil
		}
		if vHi, err = cdf(hi); err != nil {
			return 0, err
		}
	}
	f := func(t float64) (float64, error) {
		v, err := cdf(t)
		return v - p, err
	}
	v, err = numeric.BrentGuarded(f, 0, -p, hi, vHi-p, 0, numeric.CDFSlack)
	var nm *numeric.NonMonotoneError
	if errors.As(err, &nm) {
		err = &numeric.InversionError{
			T:      nm.X,
			Value:  nm.F + p,
			Reason: "grossly non-monotone CDF in quantile bisection",
			Tried:  []string{s.opts.inverter().Name()},
		}
	}
	return v, err
}

// bracketStart is the default initial upper bracket of q's quantile
// search: the mean single-copy response of q's request class (which bounds
// the fastest-copy case; slower order statistics are absorbed by the
// doubling loop), plus any finite hedge delay.
func (s *SystemModel) bracketStart(q Query) float64 {
	hi := s.MeanResponse()
	if q.Op == OpWrite {
		hi = s.meanWriteResponse()
	}
	if hi <= 0 {
		hi = 1e-3
	}
	if sp := q.spec(); sp.Hedge && !math.IsInf(sp.HedgeDelay, 1) {
		hi += sp.HedgeDelay
	}
	return hi
}

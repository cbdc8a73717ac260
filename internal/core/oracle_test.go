package core

import (
	"context"
	"fmt"
	"math"
	"math/cmplx"
	"testing"

	"cosmodel/internal/coscode"
	"cosmodel/internal/lst"
	"cosmodel/internal/numeric"
	"cosmodel/internal/queueing"
)

// Shorthand queries for the tests.
var (
	backendQ = Query{Tier: TierBackend}
	noWTAQ   = Query{Tier: TierNoWTA}
)

func codedQ(n, k int) Query { return Query{Spec: coscode.Spec{N: n, K: k}} }

func writeQ(n, w int) Query { return Query{Op: OpWrite, Spec: coscode.Spec{N: n, K: w}} }

// Mixture modes the oracle tests name directly.
var (
	modeFull         = evalMode{shape: shapeFull}
	modeBackend      = evalMode{shape: shapeBackend}
	modeWriteFull    = evalMode{shape: shapeFull, write: true}
	modeWriteBackend = evalMode{shape: shapeBackend, write: true}
)

// evalAt evaluates one query at one threshold through Eval.
func evalAt(sys *SystemModel, q Query, t float64) (float64, error) {
	return evalAtContext(context.Background(), sys, q, t)
}

func evalAtContext(ctx context.Context, sys *SystemModel, q Query, t float64) (float64, error) {
	out, err := sys.Eval(ctx, []float64{t}, q)
	if err != nil {
		return 0, err
	}
	return out[0][0], nil
}

// mustEvalAt is evalAt failing the test on error.
func mustEvalAt(t *testing.T, sys *SystemModel, q Query, x float64) float64 {
	t.Helper()
	v, err := evalAt(sys, q, x)
	if err != nil {
		t.Fatalf("Eval(%+v, %v): %v", q, x, err)
	}
	return v
}

// mixtureCDF is the scalar reference engine the batch engine is pinned
// against: one threshold, one mode, each mixture group inverted
// independently through groupEvaluator (which folds no quadrature factor
// into the weights), validated and reduced in group order.
func (s *SystemModel) mixtureCDF(ctx context.Context, t float64, mode evalMode) (float64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	if t <= 0 {
		return 0, nil
	}
	denom := s.totalRate
	if mode.write {
		if s.totalWriteRate <= 0 {
			return 0, fmt.Errorf("%w: no write traffic in the device mixture", ErrBadParams)
		}
		denom = s.totalWriteRate
	}
	eval := s.groupEvaluator(s.opts.inverter(), t, mode)
	total := 0.0
	for i := range s.groups {
		weight := s.groups[i].weight
		if mode.write {
			if weight = s.groups[i].writeWeight; weight == 0 {
				continue
			}
		}
		v, err := s.groupCDF(eval(i), i, t, mode)
		if err != nil {
			return 0, err
		}
		total += weight * v
	}
	return numeric.Clamp01(total / denom), nil
}

// groupTransform is group i's CDF transform for mode, Ĝ_i(s)/s, from the
// same per-node factors the engine composes.
func (s *SystemModel) groupTransform(i int, mode evalMode) numeric.TransformFunc {
	dev := s.groups[i].dev
	sq := s.frontend.Sojourn().F
	return func(sk complex128) complex128 {
		pr := dev.parse.F(sk)
		var wa, resp complex128
		if mode.write {
			wa, resp = dev.writeNode(sk, pr)
		} else {
			wa, resp = dev.responseNode(sk, pr)
		}
		return nodeValue(mode.shape, []complex128{sq(sk)}, 0, wa, resp) / sk
	}
}

// delayedGroupCDF is group i's raw CDF at b−d read from the quadrature of
// b: the delayed transform e^{−s·d}·Ĝ_i(s)/s inverted at b with inv.
func (s *SystemModel) delayedGroupCDF(inv numeric.Inverter, i int, b, d float64, mode evalMode) float64 {
	g := s.groupTransform(i, mode)
	return numeric.Invert(inv, func(sk complex128) complex128 {
		return cmplx.Exp(-sk*complex(d, 0)) * g(sk)
	}, b)
}

// cellCDF is the scalar reference of one batch cell: the plain mixture at
// b for a zero delay, otherwise each group's delayed inversion at b,
// validated at its own abscissa b−d and reduced in group order.
func (s *SystemModel) cellCDF(b, d float64, mode evalMode) (float64, error) {
	if d == 0 {
		return s.mixtureCDF(context.Background(), b, mode)
	}
	denom := s.totalRate
	if mode.write {
		denom = s.totalWriteRate
	}
	total := 0.0
	for i := range s.groups {
		weight := s.groups[i].weight
		if mode.write {
			if weight = s.groups[i].writeWeight; weight == 0 {
				continue
			}
		}
		v, err := s.groupCDF(s.delayedGroupCDF(s.opts.inverter(), i, b, d, mode), i, b-d, mode)
		if err != nil {
			return 0, err
		}
		total += weight * v
	}
	return numeric.Clamp01(total / denom), nil
}

// oracleCDF is the scalar reference for a whole query: the direct mixture
// for one copy, otherwise the order statistic convolved with the frontend
// grid (a single point at 0 for the backend tier). Its probes are
// recorded with their families (0 for the first probe of a coscode.CDF
// call, 1 for a hedged reserve's), laid out by planProbes, and each is
// answered by cellCDF at the base and delay the plan gives it.
func (s *SystemModel) oracleCDF(q Query, t float64) (float64, error) {
	if err := q.Validate(); err != nil {
		return 0, err
	}
	spec := q.spec()
	if t <= 0 {
		return 0, nil
	}
	if spec.N == 1 {
		return s.mixtureCDF(context.Background(), t, q.mode())
	}
	pts, masses := []float64{0}, []float64{1}
	if q.Tier != TierBackend {
		var err error
		if pts, masses, err = s.frontendGrid(); err != nil {
			return 0, err
		}
	}
	var probes []kOfNProbe
	calls := 0
	record := func(x float64) (float64, error) {
		probes = append(probes, kOfNProbe{at: x, fam: calls})
		calls++
		return 0, nil
	}
	for i, x := range pts {
		if masses[i] == 0 || t-x <= 0 {
			continue
		}
		calls = 0
		if _, err := coscode.CDF(spec, record, t-x); err != nil {
			return 0, err
		}
	}
	plan := planProbes(probes, delayRatioOf(s.opts.inverter()))
	next := 0
	replay := func(float64) (float64, error) {
		c := plan.cells[plan.of[next]]
		next++
		return s.cellCDF(plan.bases[c.base], c.delay, q.mode())
	}
	total := 0.0
	for i, x := range pts {
		if masses[i] == 0 || t-x <= 0 {
			continue
		}
		h, err := coscode.CDF(spec, replay, t-x)
		if err != nil {
			return 0, err
		}
		total += masses[i] * h
	}
	return numeric.Clamp01(total), nil
}

// mustOracle is oracleCDF failing the test on error.
func mustOracle(t *testing.T, sys *SystemModel, q Query, x float64) float64 {
	t.Helper()
	v, err := sys.oracleCDF(q, x)
	if err != nil {
		t.Fatalf("oracle(%+v, %v): %v", q, x, err)
	}
	return v
}

// closureModel is the device model composed as nested lst.Transform
// closures: the reference the node evaluators (responseNode, writeNode,
// waitingValue) and the stored means are pinned against. It is built by
// closuresOf, an independent composition of the same leaves.
type closureModel struct {
	union lst.Transform // Bbe: union operation service time (read class)
	wbe   lst.Transform // waiting time of the request processing queue
	sbe   lst.Transform // backend response time (Eq. 1)
	wa    lst.Transform // waiting time for being accept()-ed
	swr   lst.Transform // write replica response (zero without writes)
	// utilization is the union queue's per-process ρ.
	utilization float64
}

// closuresOf composes d's model from its disk leaves (d.rawIdx, d.rawMeta,
// d.rawData, Section III-B step 1) as transform closures, following
// steps 2–6: cache-aware operations, the union operation with its
// compound extra reads, the shared M/G/1 queue over the read and write
// operation streams, Sbe (Eq. 1) and Swr, and the WTA.
func closuresOf(d *DeviceModel) (closureModel, error) {
	var c closureModel
	m := d.metrics
	idx, meta, data := d.rawIdx, d.rawMeta, d.rawData
	// Step 2: cache-aware operation latencies
	// index(t) = indexd(t)·m + δ(t)(1-m), etc.
	mi, mm, md := m.MissIndex, m.MissMeta, m.MissData
	p := m.ExtraReads()
	if d.opts.ODOPR {
		mi, mm, p = 0, 0, 0
	}
	opIndex := hitOrMiss(idx, mi)
	opMeta := hitOrMiss(meta, mm)
	opData := hitOrMiss(data, md)
	parse := lst.FromDist(d.props.ParseBE)

	// Step 3: the union operation.
	var extra lst.Transform
	switch d.opts.Compound {
	case CompoundFixed:
		extra = fixedCompound(opData, int(math.Round(p)))
	case CompoundGeometric:
		extra = geometricCompound(opData, p)
	default:
		extra = poissonCompound(opData, p)
	}
	c.union = lst.Convolve(parse, opIndex, opMeta, opData, extra)

	// Step 4: the M/G/1 queue of union operations, per process, its
	// service the rate-weighted mixture over the read union and the
	// write head, middle-chunk and tail operations.
	svc := c.union
	totalRate := m.Rate
	var wHead, wTail lst.Transform
	pw := m.WriteChunks - 1
	if m.WriteRate > 0 {
		wHead = lst.Convolve(parse, idx)
		wTail = lst.Convolve(data, meta)
		weights := []float64{m.Rate, m.WriteRate, m.WriteRate * pw, m.WriteRate}
		svc = lst.Mix([]lst.Transform{c.union, wHead, data, wTail}, weights)
		totalRate = 0
		for _, w := range weights {
			totalRate += w
		}
	}
	q, err := queueing.NewMG1(totalRate/float64(m.Procs), svc)
	if err != nil {
		return c, err
	}
	c.utilization = q.Utilization()
	c.wbe = q.WaitingLST()

	// Step 5: Sbe = Wbe ∗ parse ∗ index ∗ meta ∗ data, and the write
	// replica response, the convolution of per-operation sojourns.
	c.sbe = lst.Convolve(c.wbe, parse, opIndex, opMeta, opData)
	if m.WriteRate > 0 {
		c.swr = lst.Convolve(
			lst.Convolve(c.wbe, wHead),
			poissonCompound(lst.Convolve(c.wbe, data), pw),
			lst.Convolve(c.wbe, wTail),
		)
	}

	// Step 6: waiting time for being accept()-ed.
	switch d.opts.WTA {
	case WTANone:
		c.wa = lst.One()
	case WTAExact:
		wbe := c.wbe
		c.wa = lst.Transform{
			F: func(s complex128) complex128 {
				var sum complex128
				for j, u := range wtaNodes {
					sum += complex(wtaWeights[j], 0) * wbe.F(complex(u, 0)*s)
				}
				return sum
			},
			Mean: wbe.Mean / 2,
		}
	default:
		c.wa = c.wbe
	}
	return c, nil
}

// mustClosures is closuresOf failing the test on error.
func mustClosures(t *testing.T, d *DeviceModel) closureModel {
	t.Helper()
	c, err := closuresOf(d)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// hitOrMiss is the transform of the cache-aware operation latency: disk
// latency with probability miss, zero otherwise,
// index(s) = miss·disk(s) + (1-miss).
func hitOrMiss(disk lst.Transform, miss float64) lst.Transform {
	if miss < 0 {
		miss = 0
	}
	if miss > 1 {
		miss = 1
	}
	f := disk.F
	return lst.Transform{
		F: func(s complex128) complex128 {
			return complex(miss, 0)*f(s) + complex(1-miss, 0)
		},
		Mean: miss * disk.Mean,
	}
}

// poissonCompound is the transform of Σ_{i=1}^{N} Xᵢ with N Poisson of
// mean p and the Xᵢ iid with transform t: e^{p·(t(s)-1)}.
func poissonCompound(t lst.Transform, p float64) lst.Transform {
	if p <= 0 {
		return lst.One()
	}
	f := t.F
	return lst.Transform{
		F: func(s complex128) complex128 {
			return cmplx.Exp(complex(p, 0) * (f(s) - 1))
		},
		Mean: p * t.Mean,
	}
}

// geometricCompound is the transform of Σ_{i=1}^{N} Xᵢ with N geometric on
// {0,1,2,…} with mean p: (1/(1+p)) / (1 - (p/(1+p))·t(s)).
func geometricCompound(t lst.Transform, p float64) lst.Transform {
	if p <= 0 {
		return lst.One()
	}
	q := p / (1 + p)
	f := t.F
	return lst.Transform{
		F: func(s complex128) complex128 {
			return complex(1-q, 0) / (1 - complex(q, 0)*f(s))
		},
		Mean: p * t.Mean,
	}
}

// fixedCompound is the transform of n iid copies: t(s)^n.
func fixedCompound(t lst.Transform, n int) lst.Transform {
	if n <= 0 {
		return lst.One()
	}
	f := t.F
	return lst.Transform{
		F: func(s complex128) complex128 {
			return cmplx.Pow(f(s), complex(float64(n), 0))
		},
		Mean: float64(n) * t.Mean,
	}
}

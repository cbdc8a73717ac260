package core

import (
	"context"
	"fmt"
	"math/cmplx"
	"testing"

	"cosmodel/internal/coscode"
	"cosmodel/internal/numeric"
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

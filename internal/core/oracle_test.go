package core

import (
	"context"
	"fmt"
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

// oracleCDF is the scalar reference for a whole query: the direct mixture
// for one copy, otherwise the order statistic over scalar mixture probes,
// convolved with the frontend grid unless the query observes the backend
// tier.
func (s *SystemModel) oracleCDF(q Query, t float64) (float64, error) {
	ctx := context.Background()
	if err := q.Validate(); err != nil {
		return 0, err
	}
	spec := q.spec()
	if t <= 0 {
		return 0, nil
	}
	base := func(x float64) (float64, error) { return s.mixtureCDF(ctx, x, q.mode()) }
	if spec.N == 1 {
		return base(t)
	}
	if q.Tier == TierBackend {
		return coscode.CDF(spec, base, t)
	}
	pts, masses, err := s.frontendGrid()
	if err != nil {
		return 0, err
	}
	total := 0.0
	for i, x := range pts {
		if masses[i] == 0 || t-x <= 0 {
			continue
		}
		h, err := coscode.CDF(spec, base, t-x)
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

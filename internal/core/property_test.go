package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"cosmodel/internal/coscode"
)

// randomSystem builds a seeded random device mixture: 1–5 devices with
// distinct rates, miss ratios and process counts, some carrying writes
// (device 0 always does, so write queries have traffic to model), and
// occasionally a repeated device so groups collapse. The same seed gives
// the same mixture under any opts.
func randomSystem(t *testing.T, seed int64, opts Options) *SystemModel {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	n := 1 + rng.Intn(5)
	devs := make([]*DeviceModel, n)
	total := 0.0
	for i := range devs {
		if i > 0 && rng.Intn(4) == 0 {
			devs[i] = devs[i-1]
			total += devs[i].Rate() + devs[i].WriteRate()
			continue
		}
		m := testMetrics()
		m.Rate = 15 + 30*rng.Float64()
		m.DataRate = m.Rate * (1 + 0.4*rng.Float64())
		m.MissIndex = 0.2 + 0.3*rng.Float64()
		m.MissMeta = 0.2 + 0.3*rng.Float64()
		m.MissData = 0.3 + 0.3*rng.Float64()
		m.Procs = 1 + rng.Intn(2)
		if i == 0 || rng.Intn(2) == 0 {
			m.WriteRate = 2 + 6*rng.Float64()
			m.WriteChunks = 1 + rng.Float64()
		}
		d, err := NewDeviceModel(testProps(), m, opts)
		if err != nil {
			t.Fatal(err)
		}
		devs[i] = d
		total += m.Rate + m.WriteRate
	}
	fe, err := NewFrontendModel(total, 12, testProps().ParseFE)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystemModel(fe, devs, opts)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// queryTable lists every valid Op × Tier with the single-copy case and
// every K of a 4-wide order statistic (replicated, erasure-coded,
// fork-join), plus a hedged read.
func queryTable() []Query {
	var qs []Query
	for _, op := range []Op{OpRead, OpWrite} {
		for _, tier := range []Tier{TierFrontend, TierBackend, TierNoWTA} {
			specs := []coscode.Spec{{N: 1, K: 1}, {N: 4, K: 1}, {N: 4, K: 2}, {N: 4, K: 3}, {N: 4, K: 4}}
			if op == OpRead {
				specs = append(specs, coscode.Spec{N: 4, K: 2, Hedge: true, HedgeDelay: 0.004})
			}
			for _, sp := range specs {
				q := Query{Op: op, Tier: tier, Spec: sp}
				if q.Validate() == nil {
					qs = append(qs, q)
				}
			}
		}
	}
	return qs
}

// TestEvalProperties checks the evaluator over seeded random mixtures and
// every query shape:
//   - Spec (1,1) is the plain mixture of its Op and Tier, within 1e-12;
//   - Eval is non-increasing in K at fixed N;
//   - Eval(ts)[i] is bit-identical to Eval({ts[i]})[0];
//   - Eval matches the scalar oracle within 1e-12;
//   - the noWTA tier matches the frontend tier of a model built with
//     WTANone within 1e-12.
func TestEvalProperties(t *testing.T) {
	ts := []float64{-0.01, 0, 0.004, 0.012, 0.03, 0.08, 0.2}
	ctx := context.Background()
	for seed := int64(1); seed <= 6; seed++ {
		sys := randomSystem(t, seed, Options{})
		ablated := randomSystem(t, seed, Options{WTA: WTANone})
		qs := queryTable()
		grid, err := sys.Eval(ctx, ts, qs...)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		got := map[Query][]float64{}
		for i, q := range qs {
			got[q] = grid[i]
		}
		for i, q := range qs {
			name := fmt.Sprintf("seed %d %+v", seed, q)
			alone, err := sys.Eval(ctx, ts, q)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for j, x := range ts {
				v := grid[i][j]
				if alone[0][j] != v {
					t.Errorf("%s t=%v: %v in a multi-query batch, %v alone", name, x, v, alone[0][j])
				}
				if one := mustEvalAt(t, sys, q, x); one != v {
					t.Errorf("%s t=%v: batch %v, batch of one %v", name, x, v, one)
				}
				if want := mustOracle(t, sys, q, x); math.Abs(v-want) > 1e-12 {
					t.Errorf("%s t=%v: Eval %v, oracle %v (|Δ| = %g)", name, x, v, want, math.Abs(v-want))
				}
				if q.Tier == TierNoWTA {
					fe := q
					fe.Tier = TierFrontend
					if want := mustEvalAt(t, ablated, fe, x); math.Abs(v-want) > 1e-12 {
						t.Errorf("%s t=%v: noWTA %v, WTANone model %v", name, x, v, want)
					}
				}
				if q.Spec.N == 1 {
					plain := got[Query{Op: q.Op, Tier: q.Tier}]
					if plain == nil {
						plain = mustEvalRow(t, sys, Query{Op: q.Op, Tier: q.Tier}, ts)
					}
					mix, err := sys.mixtureCDF(ctx, x, q.mode())
					if err != nil {
						t.Fatal(err)
					}
					if v != plain[j] || math.Abs(v-mix) > 1e-12 {
						t.Errorf("%s t=%v: (1,1) %v, plain query %v, mixture %v", name, x, v, plain[j], mix)
					}
				}
				if q.Spec.K > 1 && !q.Spec.Hedge {
					fewer := q
					fewer.Spec.K--
					if prev := got[fewer]; prev == nil {
						continue
					} else if v > prev[j]+1e-12 {
						t.Errorf("%s t=%v: %v above K=%d's %v", name, x, v, fewer.Spec.K, prev[j])
					}
				}
			}
		}
	}
}

// mustEvalRow evaluates one query over a grid, failing the test on error.
func mustEvalRow(t *testing.T, sys *SystemModel, q Query, ts []float64) []float64 {
	t.Helper()
	out, err := sys.Eval(context.Background(), ts, q)
	if err != nil {
		t.Fatal(err)
	}
	return out[0]
}

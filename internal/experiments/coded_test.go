package experiments

import (
	"context"
	"fmt"
	"math"
	"testing"

	"cosmodel/internal/core"
	"cosmodel/internal/coscode"
	"cosmodel/internal/simstore"
	"cosmodel/internal/trace"
)

// codedScenario is a scaled-down striped-read sweep over 6 devices.
func codedScenario(n, k int, seed int64) ScenarioConfig {
	cfg := simstore.DefaultConfig()
	cfg.Backends = 6
	cfg.Replicas = n
	cfg.StripeK = k
	return ScenarioConfig{
		Name:           fmt.Sprintf("coded-%d-%d", n, k),
		Sim:            cfg,
		CatalogObjects: 30000,
		ZipfS:          1.05,
		WarmRate:       40,
		WarmDur:        15,
		RateStart:      20,
		RateEnd:        60,
		RateStep:       20,
		StepDur:        10,
		StepDiscard:    3,
		CalibrationOps: 1500,
		Seed:           seed,
	}
}

// checkCodedResult holds a coded sweep's full-model column to the paper's
// bar: predictions in [0,1] and monotone in SLA on every analyzed step, and
// a mean absolute error over all analyzed steps and SLAs of at most 0.10.
func checkCodedResult(t *testing.T, res *ScenarioResult, label string) {
	t.Helper()
	if res.AnalyzedSteps() < 2 {
		t.Fatalf("%s: only %d analyzed steps", label, res.AnalyzedSteps())
	}
	sum, n := 0.0, 0
	for _, st := range res.Steps {
		if st.Skipped {
			t.Logf("%s: rate %v skipped: %s", label, st.Rate, st.Reason)
			continue
		}
		for i := range res.SLAs {
			p := st.Our[i]
			if p < -1e-9 || p > 1+1e-9 || math.IsNaN(p) {
				t.Fatalf("%s: rate %v SLA %d: prediction %v outside [0,1]", label, st.Rate, i, p)
			}
			sum += math.Abs(p - st.Observed[i])
			n++
		}
		// Percentile meeting a looser SLA can only be higher.
		if st.Our[0] > st.Our[1]+1e-9 || st.Our[1] > st.Our[2]+1e-9 {
			t.Errorf("%s: rate %v: predictions not monotone in SLA: %v", label, st.Rate, st.Our)
		}
	}
	mae := sum / float64(n)
	t.Logf("%s: MAE %.4f over %d analyzed steps", label, mae, res.AnalyzedSteps())
	if !(mae <= 0.10) {
		t.Errorf("%s: MAE %.3f exceeds 0.10", label, mae)
	}
}

// TestCodedReplicationVsEC validates the order-statistic model against
// simulated ground truth for the two canonical layouts: speculative
// replication (fastest of 3 full reads) and erasure coding (4-of-6 stripe).
func TestCodedReplicationVsEC(t *testing.T) {
	repl, err := RunScenario(codedScenario(3, 1, 31))
	if err != nil {
		t.Fatal(err)
	}
	checkCodedResult(t, repl, "replication(3,1)")

	sc := codedScenario(6, 4, 32)
	// Every stripe touches all 6 devices, so per-device load equals the
	// offered rate; keep the sweep in the analyzable regime.
	sc.WarmRate = 25
	sc.RateStart, sc.RateEnd, sc.RateStep = 10, 30, 10
	ec, err := RunScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	checkCodedResult(t, ec, "EC(6,4)")
}

// TestCodedHedgeDelaySweep validates hedged reads at the boundary delays
// (Δ=0 ≡ plain fastest-of-n, Δ→∞ ≡ primaries only) and one tail-cutting
// delay in between.
func TestCodedHedgeDelaySweep(t *testing.T) {
	for _, delay := range []float64{0, 0.020, math.Inf(1)} {
		sc := codedScenario(3, 1, 33)
		sc.Sim.Hedge = true
		sc.Sim.HedgeDelay = delay
		sc.RateStart, sc.RateEnd, sc.RateStep = 20, 40, 20
		res, err := RunScenario(sc)
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("hedge Δ=%v", delay)
		checkCodedResult(t, res, label)
		for _, st := range res.Steps {
			if st.Skipped {
				continue
			}
			switch {
			case math.IsInf(delay, 1):
				if st.Hedges != 0 {
					t.Errorf("%s: rate %v: %d reserves issued", label, st.Rate, st.Hedges)
				}
			case delay == 0:
				// Every GET hedges its n-k reserves immediately.
				if st.Hedges < st.Responses {
					t.Errorf("%s: rate %v: hedges %d below responses %d", label, st.Rate, st.Hedges, st.Responses)
				}
			default:
				// A tail-cutting delay hedges a strict minority.
				if st.Hedges == 0 || st.Hedges >= 2*st.Responses {
					t.Errorf("%s: rate %v: hedges %d of %d responses", label, st.Rate, st.Hedges, st.Responses)
				}
			}
		}
	}
}

// TestSweepEvaluatesTheScenarioQuery checks that the sweep asks each
// window's model the scenario's query: on every analyzed step the Our,
// OurBE and NoWTA columns are bit for bit Eval of that query at the
// frontend, backend and noWTA tiers on BuildSystemModel's model, and ODOPR
// is the query on the ODOPR build. A plain scenario asks the zero Query, a
// coded one its (n,k) read.
func TestSweepEvaluatesTheScenarioQuery(t *testing.T) {
	for _, tc := range []struct {
		name string
		sc   ScenarioConfig
		q    core.Query
	}{
		{"plain", smallS1(), core.Query{}},
		{"replication(3,1)", codedScenario(3, 1, 31), core.Query{Spec: coscode.Spec{N: 3, K: 1}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			data, err := RunSweep(tc.sc)
			if err != nil {
				t.Fatal(err)
			}
			res := EvaluateSweep(tc.sc, data)
			be, noWTA := tc.q, tc.q
			be.Tier, noWTA.Tier = core.TierBackend, core.TierNoWTA
			eval := func(win simstore.Window, opts core.Options, q core.Query) []float64 {
				t.Helper()
				sys, err := BuildSystemModel(tc.sc.Sim, data.Props, win, opts)
				if err != nil {
					t.Fatal(err)
				}
				out, err := sys.Eval(context.Background(), tc.sc.Sim.SLAs, q)
				if err != nil {
					t.Fatal(err)
				}
				return out[0]
			}
			for w, win := range data.Windows {
				st := res.Steps[w]
				if st.Skipped {
					continue
				}
				for _, col := range []struct {
					name      string
					got, want []float64
				}{
					{"our", st.Our, eval(win, core.Options{}, tc.q)},
					{"our_be", st.OurBE, eval(win, core.Options{}, be)},
					{"nowta", st.NoWTA, eval(win, core.Options{}, noWTA)},
					{"odopr", st.ODOPR, eval(win, core.Options{ODOPR: true}, tc.q)},
				} {
					for i := range col.want {
						if math.Float64bits(col.got[i]) != math.Float64bits(col.want[i]) {
							t.Errorf("rate %v SLA %v %s: sweep %v, Eval %v", st.Rate, tc.sc.Sim.SLAs[i], col.name, col.got[i], col.want[i])
						}
					}
				}
			}
			if res.AnalyzedSteps() < 2 {
				t.Fatalf("only %d analyzed steps", res.AnalyzedSteps())
			}
		})
	}
}

// TestParetoSizesSweep swaps the lognormal object sizes for a heavy-tailed
// Pareto mix and checks the model still tracks the fattened latency tail.
func TestParetoSizesSweep(t *testing.T) {
	sc := smallS1()
	sc.Name = "S1-pareto"
	sc.Sizes = trace.ParetoSizes(32*1024, 1.4)
	sc.RateStart, sc.RateEnd, sc.RateStep = 60, 180, 60
	sc.Seed = 34
	res, err := RunScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.AnalyzedSteps() < 2 {
		t.Fatalf("only %d analyzed steps", res.AnalyzedSteps())
	}
	for _, i := range []int{1, 2} {
		mean := res.ErrorSummary(i, "our").Mean
		t.Logf("SLA %v: mean abs error %.4f with Pareto sizes", res.SLAs[i], mean)
		if !(mean <= 0.10) {
			t.Errorf("SLA %v: mean abs error %.3f exceeds 0.10 with Pareto sizes", res.SLAs[i], mean)
		}
	}
}

package main

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"os"
	"testing"
)

func inProcess(w *workload) (*deployment, error) { return startInProcess(w, nil, nil) }

// TestWorkloadsInProcess runs every workload for about a second,
// alternating with the null server, through the golden gate, and checks
// that it reports every end-to-end metric with no failed request.
func TestWorkloadsInProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("starts servers and drives load for several seconds")
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			cfg := runConfig{
				seed: 1, seconds: 1.2, conns: 1, goldenDir: "golden", setups: 2,
				start: inProcess, startNull: startNullInProcess,
			}
			res, err := runWorkload(context.Background(), w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.failed != 0 || res.attempted == 0 {
				t.Errorf("attempted %d, failed %d", res.attempted, res.failed)
			}
			for s, name := range []string{"workload", "null server"} {
				if bg := len(latencies(res.sides[s].out, backgroundStream)); len(res.sides[s].rates) == 0 || bg == 0 {
					t.Errorf("%s: %d slices, %d background requests", name, len(res.sides[s].rates), bg)
				}
			}
			for _, m := range endToEnd {
				if v, ok := res.metrics[m.name]; !ok || !(v > 0) || math.IsInf(v, 0) {
					t.Errorf("%s = %v, want a positive finite value", m.name, v)
				}
			}
		})
	}
}

// TestTraceReportsEveryLayerMetric runs a short traced pass and checks that
// every per-layer metric is measured.
func TestTraceReportsEveryLayerMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("starts every workload's servers in-process")
	}
	cfg := runConfig{seed: 1, seconds: 1.2, goldenDir: "golden"}
	sum, err := traceWorkload(context.Background(), workloads[0], cfg, t.TempDir(), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !sum.Correct || sum.Failed != 0 {
		t.Errorf("traced run: correct %v, failed %d", sum.Correct, sum.Failed)
	}
	for _, m := range perLayer {
		if _, ok := sum.Metrics[m.name]; !ok {
			t.Errorf("per-layer metric %s missing", m.name)
		}
	}
	if got := sum.Metrics["serve.cache_hit_ratio"].Value; got < 0.99 {
		t.Errorf("read-hot cache hit ratio %v, want >= 0.99", got)
	}
	if got := sum.Metrics["calib.recalibrations"].Value; got != 0 {
		t.Errorf("ingest-churn recalibrated %v times; its inputs carry no drift", got)
	}
}

// TestGoldenMismatchFails perturbs one golden meet ratio beyond the
// tolerance and expects the gate to refuse it.
func TestGoldenMismatchFails(t *testing.T) {
	g, err := loadGolden("golden", "read-hot")
	if err != nil {
		t.Fatal(err)
	}
	if err := compareAnswers(g.Answers, g.Answers); err != nil {
		t.Fatalf("golden answers do not match themselves: %v", err)
	}
	b, _ := json.Marshal(g.Answers)
	var bad []answer
	if err := json.Unmarshal(b, &bad); err != nil {
		t.Fatal(err)
	}
	bad[0].MeetRatios[0] += 10 * meetTol
	if err := compareAnswers(bad, g.Answers); !errors.Is(err, errGolden) {
		t.Errorf("perturbed answer passed the gate: %v", err)
	}
}

// TestBenchmarkJSONMatchesCode keeps the benchmark description and the
// harness in step: the same workloads, metrics and units.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %+v, harness %q %q", i, spec.Workloads[i], w.name, w.why)
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the harness %d", kind, len(got), len(want))
		}
		for i, m := range want {
			if got[i].Name != m.name || got[i].Unit != m.unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], harness %s [%s]", kind, i, got[i].Name, got[i].Unit, m.name, m.unit)
			}
			if (got[i].Bound != nil) != bounded {
				t.Errorf("%s %s: bound present %v, want %v", kind, m.name, got[i].Bound != nil, bounded)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd, true)
	check("per_layer", spec.PerLayer, perLayer, false)
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

package experiments

import (
	"context"
	"math"
	"testing"

	"cosmodel/internal/core"
)

// TestQuantileSweepMatchesColdStarts pins the warm-start sweep against
// per-window cold-started quantile searches: seeding each step's bracket
// from the previous step must not change the root, only how fast it is
// found.
func TestQuantileSweepMatchesColdStarts(t *testing.T) {
	sc := smallS1()
	data, err := RunSweep(sc)
	if err != nil {
		t.Fatal(err)
	}
	const p = 0.95
	got := QuantileSweep(sc, data, p)
	if len(got) != len(data.Windows) {
		t.Fatalf("sweep returned %d quantiles for %d windows", len(got), len(data.Windows))
	}
	finite := 0
	for i, win := range data.Windows {
		sys, err := BuildSystemModel(sc.Sim, data.Props, win, core.Options{})
		if err != nil {
			if !math.IsNaN(got[i]) {
				t.Errorf("window %d: unbuildable model but sweep quantile %v, want NaN", i, got[i])
			}
			continue
		}
		cold, err := sys.Quantile(context.Background(), core.Query{}, p, 0)
		if err != nil {
			if !math.IsNaN(got[i]) {
				t.Errorf("window %d: failed search but sweep quantile %v, want NaN", i, got[i])
			}
			continue
		}
		finite++
		if d := math.Abs(got[i] - cold); d > 1e-9*(1+cold) {
			t.Errorf("window %d: warm-started quantile %v, cold %v (|Δ| = %g)", i, got[i], cold, d)
		}
	}
	if finite < 2 {
		t.Fatalf("only %d windows produced a quantile; fixture too degenerate", finite)
	}
}

// TestQuantileSweepCancellation pins the abort contract: a cancelled
// context returns the error alongside the partially filled (all-NaN here)
// result.
func TestQuantileSweepCancellation(t *testing.T) {
	sc := smallS1()
	data, err := RunSweep(sc)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out, err := QuantileSweepContext(ctx, sc, data, 0.95)
	if err == nil {
		t.Fatal("cancelled sweep returned no error")
	}
	if len(out) != len(data.Windows) {
		t.Fatalf("cancelled sweep returned %d entries for %d windows", len(out), len(data.Windows))
	}
	for i, q := range out {
		if !math.IsNaN(q) {
			t.Errorf("window %d evaluated after cancellation: %v", i, q)
		}
	}
}

package cluster

import (
	"errors"
	"math"
	"testing"

	"cosmodel/internal/serve"
)

func TestMergeSinglePartialPassthrough(t *testing.T) {
	p := Partial{WeightedSums: []float64{30, 60, 90}, Rate: 100}
	m, err := MergePartials([]Partial{p}, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []float64{0.3, 0.6, 0.9} {
		if math.Abs(m.Estimates[i]-want) > 1e-12 {
			t.Errorf("estimate[%d] = %v, want %v", i, m.Estimates[i], want)
		}
		if m.Low[i] != m.Estimates[i] || m.High[i] != m.Estimates[i] {
			t.Errorf("healthy bounds must collapse: [%v,%v] around %v",
				m.Low[i], m.High[i], m.Estimates[i])
		}
	}
	if m.LiveRate != 100 || m.LostRate != 0 || m.Saturated {
		t.Errorf("merged meta: %+v", m)
	}
}

func TestMergeIsRateWeighted(t *testing.T) {
	a := Partial{WeightedSums: []float64{90}, Rate: 100}  // CDF 0.9
	b := Partial{WeightedSums: []float64{150}, Rate: 300} // CDF 0.5
	m, err := MergePartials([]Partial{a, b}, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := (90.0 + 150.0) / 400.0 // 0.6, not the unweighted mean 0.7
	if math.Abs(m.Estimates[0]-want) > 1e-12 {
		t.Errorf("estimate %v, want rate-weighted %v", m.Estimates[0], want)
	}
}

func TestMergeLostRateWidensBounds(t *testing.T) {
	p := Partial{WeightedSums: []float64{60}, Rate: 100}
	m, err := MergePartials([]Partial{p}, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Estimate renormalizes over the survivors; bounds bracket the loss.
	if math.Abs(m.Estimates[0]-0.6) > 1e-12 {
		t.Errorf("estimate %v", m.Estimates[0])
	}
	if math.Abs(m.Low[0]-0.3) > 1e-12 { // lost requests all miss
		t.Errorf("low %v, want 0.3", m.Low[0])
	}
	if math.Abs(m.High[0]-0.8) > 1e-12 { // lost requests all meet
		t.Errorf("high %v, want 0.8", m.High[0])
	}
	if !(m.Low[0] <= m.Estimates[0] && m.Estimates[0] <= m.High[0]) {
		t.Errorf("estimate %v outside its own bracket [%v,%v]",
			m.Estimates[0], m.Low[0], m.High[0])
	}
}

func TestMergeSaturationPropagates(t *testing.T) {
	a := Partial{WeightedSums: []float64{50}, Rate: 100}
	b := Partial{WeightedSums: []float64{0}, Rate: 100, Saturated: true}
	m, err := MergePartials([]Partial{a, b}, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Saturated {
		t.Error("one saturated shard must saturate the merged answer")
	}
}

func TestMergeRejectsPoison(t *testing.T) {
	cases := []struct {
		parts []Partial
		lost  float64
		n     int
	}{
		{nil, 0, 0}, // no SLAs
		{[]Partial{{WeightedSums: []float64{1, 2}, Rate: 1}}, 0, 1},        // grid mismatch
		{[]Partial{{WeightedSums: []float64{1}, Rate: -1}}, 0, 1},          // negative rate
		{[]Partial{{WeightedSums: []float64{math.NaN()}, Rate: 1}}, 0, 1},  // NaN sum
		{[]Partial{{WeightedSums: []float64{-1}, Rate: 1}}, 0, 1},          // negative sum
		{[]Partial{{WeightedSums: []float64{1}, Rate: 1}}, math.Inf(1), 1}, // inf lost
	}
	for i, c := range cases {
		if _, err := MergePartials(c.parts, c.lost, c.n); !errors.Is(err, ErrBadConfig) {
			t.Errorf("case %d: err = %v, want ErrBadConfig", i, err)
		}
	}
}

func TestMergeClampsToUnitInterval(t *testing.T) {
	// Sums slightly above rate (floating accumulation) must not leak a
	// probability above 1.
	p := Partial{WeightedSums: []float64{100.0000001}, Rate: 100}
	m, err := MergePartials([]Partial{p}, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if m.Estimates[0] > 1 || m.High[0] > 1 {
		t.Errorf("leaked probability above 1: %+v", m)
	}
}

func TestCoverageAllUp(t *testing.T) {
	cfg := DefaultConfig([]string{"a", "b", "c"}, 8)
	topo, err := NewTopology(cfg)
	if err != nil {
		t.Fatal(err)
	}
	groups, lost := topo.Coverage(cfg.Devices, func(int) bool { return true })
	if len(lost) != 0 {
		t.Fatalf("healthy tier lost devices %v", lost)
	}
	seen := map[int]bool{}
	for _, g := range groups {
		if !g.Primary {
			t.Errorf("healthy group not led by its primary: %+v", g)
		}
		if len(g.Chain) != cfg.Replicas {
			t.Errorf("group chain %v, want %d replicas", g.Chain, cfg.Replicas)
		}
		for _, d := range g.Devices {
			if seen[d] {
				t.Errorf("device %d in two groups", d)
			}
			seen[d] = true
		}
	}
	for d := 0; d < cfg.Devices; d++ {
		if !seen[d] {
			t.Errorf("device %d uncovered", d)
		}
	}
}

func TestCoverageFailoverAndLoss(t *testing.T) {
	cfg := DefaultConfig([]string{"a", "b", "c"}, 8)
	topo, err := NewTopology(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Kill device 0's whole chain: device 0 must be lost, and every device
	// sharing no live replica with it too; survivors regroup on the third
	// node.
	dead := map[int]bool{}
	for _, n := range topo.ChainFor(0) {
		dead[n] = true
	}
	up := func(n int) bool { return !dead[n] }
	groups, lost := topo.Coverage(cfg.Devices, up)
	foundLost := false
	for _, d := range lost {
		if d == 0 {
			foundLost = true
		}
	}
	if !foundLost {
		t.Fatalf("device 0's chain %v is dead but device 0 not lost (lost=%v)",
			topo.ChainFor(0), lost)
	}
	for _, g := range groups {
		for _, n := range g.Chain {
			if dead[n] {
				t.Errorf("dead node %d in live chain %v", n, g.Chain)
			}
		}
	}
	// Determinism: same liveness view, same grouping.
	groups2, lost2 := topo.Coverage(cfg.Devices, up)
	if len(groups2) != len(groups) || len(lost2) != len(lost) {
		t.Errorf("coverage not deterministic: %d/%d groups, %d/%d lost",
			len(groups), len(groups2), len(lost), len(lost2))
	}
}

func TestRateTrackerWindow(t *testing.T) {
	rt := newRateTracker(2, 20)
	rt.add(&serve.Observation{Device: 0, Interval: 10, Requests: 500}) // 50/s
	rt.add(&serve.Observation{Device: 1, Interval: 10, Requests: 300}) // 30/s
	if got := rt.totalRate(); math.Abs(got-80) > 1e-9 {
		t.Errorf("total rate %v, want 80", got)
	}
	// Newer observations push the first out of the 20s window.
	rt.add(&serve.Observation{Device: 0, Interval: 10, Requests: 1000})
	rt.add(&serve.Observation{Device: 0, Interval: 10, Requests: 1000})
	if got := rt.rate(0); math.Abs(got-100) > 1e-9 {
		t.Errorf("windowed rate %v, want 100 (old entry evicted)", got)
	}
}

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig([]string{"a", "b"}, 4)
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []func(*Config){
		func(c *Config) { c.Nodes = nil },
		func(c *Config) { c.Replicas = 3 },
		func(c *Config) { c.Replicas = 0 },
		func(c *Config) { c.Devices = 0 },
		func(c *Config) { c.SLAs = nil },
		func(c *Config) { c.SLAs = []float64{-1} },
		func(c *Config) { c.Window = 0 },
		func(c *Config) { c.MaxInflight = 0 },
		func(c *Config) { c.FailThreshold = 0 },
		func(c *Config) { c.Partitions = 3 },
		func(c *Config) { c.Nodes = []string{"a", ""} },
	}
	for i, mutate := range bad {
		c := DefaultConfig([]string{"a", "b"}, 4)
		mutate(&c)
		if err := c.Validate(); !errors.Is(err, ErrBadConfig) {
			t.Errorf("case %d: err = %v, want ErrBadConfig", i, err)
		}
	}
}

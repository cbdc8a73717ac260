package core

import (
	"math"
	"testing"
	"testing/quick"

	"cosmodel/internal/dist"
)

// These tests check the model's physics: predictions must respond to each
// input in the direction queueing theory demands, across randomized
// parameter settings.

func buildSingle(t *testing.T, m OnlineMetrics) *SystemModel {
	t.Helper()
	d, err := NewDeviceModel(testProps(), m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	fe, err := NewFrontendModel(m.Rate*4, 12, dist.Degenerate{Value: 0.3e-3})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystemModel(fe, []*DeviceModel{d}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestPercentileDecreasesWithLoad: more load can only hurt the percentile.
func TestPercentileDecreasesWithLoad(t *testing.T) {
	prev := math.Inf(1)
	for _, rate := range []float64{10, 20, 35, 50, 60} {
		m := testMetrics()
		m.Rate, m.DataRate = rate, rate*1.2
		sys := buildSingle(t, m)
		p := sys.CDF(0.05)
		if p > prev+1e-9 {
			t.Errorf("rate %v: percentile %v rose above %v", rate, p, prev)
		}
		prev = p
	}
}

// TestPercentileDecreasesWithMissRatio: worse caching can only hurt.
func TestPercentileDecreasesWithMissRatio(t *testing.T) {
	prev := math.Inf(1)
	for _, miss := range []float64{0.05, 0.2, 0.4, 0.6, 0.8} {
		m := testMetrics()
		m.MissIndex, m.MissMeta, m.MissData = miss, miss, miss
		sys := buildSingle(t, m)
		p := sys.CDF(0.05)
		if p > prev+1e-9 {
			t.Errorf("miss %v: percentile %v rose above %v", miss, p, prev)
		}
		prev = p
	}
}

// TestPercentileDecreasesWithChunking: more extra reads per request can
// only hurt.
func TestPercentileDecreasesWithChunking(t *testing.T) {
	prev := math.Inf(1)
	for _, factor := range []float64{1.0, 1.2, 1.5, 2.0} {
		m := testMetrics()
		m.DataRate = m.Rate * factor
		sys := buildSingle(t, m)
		p := sys.CDF(0.05)
		if p > prev+1e-9 {
			t.Errorf("chunk factor %v: percentile %v rose above %v", factor, p, prev)
		}
		prev = p
	}
}

// TestPercentileIncreasesWithSLA: a looser bound can only help — across
// random parameter settings.
func TestPercentileIncreasesWithSLA(t *testing.T) {
	f := func(rawRate, rawMiss, rawSLAa, rawSLAb uint16) bool {
		m := testMetrics()
		m.Rate = 5 + float64(rawRate%40)
		m.DataRate = m.Rate * 1.2
		miss := 0.05 + 0.9*float64(rawMiss%100)/100
		m.MissIndex, m.MissMeta, m.MissData = miss, miss, miss
		d, err := NewDeviceModel(testProps(), m, Options{})
		if err != nil {
			return true // overloaded combinations are out of scope here
		}
		fe, err := NewFrontendModel(m.Rate*4, 12, dist.Degenerate{Value: 0.3e-3})
		if err != nil {
			return true
		}
		sys, err := NewSystemModel(fe, []*DeviceModel{d}, Options{})
		if err != nil {
			return false
		}
		a := 0.005 + float64(rawSLAa%100)*0.002
		b := 0.005 + float64(rawSLAb%100)*0.002
		if a > b {
			a, b = b, a
		}
		return sys.CDF(b) >= sys.CDF(a)-1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestMoreProcessesHelpAtHighLoad: at a load that saturates one process,
// adding processes must raise the percentile substantially.
func TestMoreProcessesHelpAtHighLoad(t *testing.T) {
	m := testMetrics()
	m.Rate, m.DataRate = 95, 114 // union mean ≈ 9.8 ms ⇒ ρ ≈ 0.93 for Nbe=1
	single := buildSingle(t, m)
	m16 := m
	m16.Procs = 16
	d, err := NewDeviceModel(testProps(), m16, Options{})
	if err != nil {
		t.Fatal(err)
	}
	fe, _ := NewFrontendModel(m.Rate*4, 12, dist.Degenerate{Value: 0.3e-3})
	multi, err := NewSystemModel(fe, []*DeviceModel{d}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	pSingle := single.CDF(0.05)
	pMulti := multi.CDF(0.05)
	if !(pMulti > pSingle+0.05) {
		t.Errorf("16 processes (%v) should clearly beat 1 (%v) near saturation", pMulti, pSingle)
	}
}

// TestFasterDiskHelps: a lower online disk mean must raise the percentile.
func TestFasterDiskHelps(t *testing.T) {
	slow := testMetrics()
	slow.DiskMean = 15e-3
	fast := testMetrics()
	fast.DiskMean = 5e-3
	pSlow := buildSingle(t, slow).CDF(0.05)
	pFast := buildSingle(t, fast).CDF(0.05)
	if !(pFast > pSlow) {
		t.Errorf("fast disk %v should beat slow disk %v", pFast, pSlow)
	}
}

// TestZeroMissIsParseBound: with everything cached the backend response is
// parse-dominated and the tight SLA is easily met.
func TestZeroMissIsParseBound(t *testing.T) {
	m := testMetrics()
	m.MissIndex, m.MissMeta, m.MissData = 0, 0, 0
	sys := buildSingle(t, m)
	if p := sys.CDF(0.01); p < 0.99 {
		t.Errorf("all-cached percentile at 10ms = %v", p)
	}
}

package core

import (
	"math"
	"testing"

	"cosmodel/internal/dist"
	"cosmodel/internal/lst"
)

func TestHeterogeneousFrontendSingleSetMatchesHomogeneous(t *testing.T) {
	parse := dist.Degenerate{Value: 0.3e-3}
	homo, err := NewFrontendModel(200, 8, parse)
	if err != nil {
		t.Fatal(err)
	}
	hetero, err := NewHeterogeneousFrontend([]FrontendSet{{Rate: 200, Procs: 8, Parse: parse}})
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{0.0004, 0.001, 0.003} {
		a := lst.CDF(inv, homo.Sojourn(), x)
		b := lst.CDF(inv, hetero.Sojourn(), x)
		if math.Abs(a-b) > 1e-12 {
			t.Errorf("CDF(%v): %v vs %v", x, a, b)
		}
	}
	if hetero.TotalRate != 200 || hetero.Procs != 8 {
		t.Errorf("aggregates: rate %v procs %d", hetero.TotalRate, hetero.Procs)
	}
	if math.Abs(hetero.Utilization()-homo.Utilization()) > 1e-12 {
		t.Errorf("utilization %v vs %v", hetero.Utilization(), homo.Utilization())
	}
}

func TestHeterogeneousFrontendMixture(t *testing.T) {
	fast := FrontendSet{Rate: 100, Procs: 4, Parse: dist.Degenerate{Value: 0.2e-3}}
	slow := FrontendSet{Rate: 300, Procs: 4, Parse: dist.Degenerate{Value: 0.8e-3}}
	hetero, err := NewHeterogeneousFrontend([]FrontendSet{fast, slow})
	if err != nil {
		t.Fatal(err)
	}
	fastOnly, _ := NewFrontendModel(fast.Rate, fast.Procs, fast.Parse)
	slowOnly, _ := NewFrontendModel(slow.Rate, slow.Procs, slow.Parse)
	for _, x := range []float64{0.0005, 0.001, 0.002} {
		want := (100*lst.CDF(inv, fastOnly.Sojourn(), x) + 300*lst.CDF(inv, slowOnly.Sojourn(), x)) / 400
		got := lst.CDF(inv, hetero.Sojourn(), x)
		// Inverting the mixed transform vs mixing the inverted CDFs
		// differ by inversion noise near the parse-time atoms (~1e-4).
		if math.Abs(got-want) > 5e-4 {
			t.Errorf("CDF(%v) = %v, want %v", x, got, want)
		}
	}
	// Mean is the rate-weighted mean.
	want := (100*fastOnly.Sojourn().Mean + 300*slowOnly.Sojourn().Mean) / 400
	if math.Abs(hetero.Sojourn().Mean-want) > 1e-15 {
		t.Errorf("mean = %v, want %v", hetero.Sojourn().Mean, want)
	}
	// Utilization reports the hottest set.
	if got := hetero.Utilization(); math.Abs(got-slowOnly.Utilization()) > 1e-12 {
		t.Errorf("utilization = %v, want %v", got, slowOnly.Utilization())
	}
}

func TestHeterogeneousFrontendValidation(t *testing.T) {
	if _, err := NewHeterogeneousFrontend(nil); err == nil {
		t.Error("empty sets should fail")
	}
	bad := []FrontendSet{{Rate: 0, Procs: 1, Parse: dist.Degenerate{Value: 1e-3}}}
	if _, err := NewHeterogeneousFrontend(bad); err == nil {
		t.Error("bad set should fail")
	}
	overloaded := []FrontendSet{{Rate: 1e9, Procs: 1, Parse: dist.Degenerate{Value: 1e-3}}}
	if _, err := NewHeterogeneousFrontend(overloaded); err == nil {
		t.Error("overloaded set should fail")
	}
}

func TestSystemBackendCDF(t *testing.T) {
	fe, err := NewFrontendModel(100, 12, dist.Degenerate{Value: 0.3e-3})
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewDeviceModel(testProps(), testMetrics(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	m2 := testMetrics()
	m2.Rate, m2.DataRate = 80, 96
	b, err := NewDeviceModel(testProps(), m2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystemModel(fe, []*DeviceModel{a, b}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, sla := range []float64{0.01, 0.05, 0.1} {
		want := (a.Rate()*a.BackendCDF(sla) + b.Rate()*b.BackendCDF(sla)) / (a.Rate() + b.Rate())
		if got := mustEvalAt(t, sys, backendQ, sla); math.Abs(got-want) > 1e-12 {
			t.Errorf("backend CDF(%v) = %v, want %v", sla, got, want)
		}
		// The backend-tier percentile can only be better than the full
		// frontend-observed one (which adds Sq and Wa on top).
		if mustEvalAt(t, sys, backendQ, sla) < sys.CDF(sla)-1e-9 {
			t.Errorf("backend CDF below full CDF at %v", sla)
		}
	}
	if mustEvalAt(t, sys, backendQ, 0) != 0 {
		t.Error("backend CDF at 0 should be 0")
	}
}

package serve

import (
	"context"
	"fmt"
	"math"
	"sort"

	"cosmodel/internal/core"
	"cosmodel/internal/ingest"
)

// TenantStats is the windowed operating point of one tenant class, derived
// from its partition of class-labelled observations.
type TenantStats struct {
	// Class is the tenant's label as reported on its observations.
	Class string `json:"class"`
	// Rate and WriteRate are the tenant's aggregate read request and PUT
	// replica rates over the window.
	Rate      float64 `json:"rate"`
	WriteRate float64 `json:"writeRate"`
	// Reporting counts the devices with tenant observations in the window.
	Reporting int `json:"reporting"`
	// ShareOfTotal is the tenant's read-rate fraction of the aggregate
	// operating point (0 when the aggregate is empty).
	ShareOfTotal float64 `json:"shareOfTotal"`
}

// validateClassLabel applies the ingest label rules to a query parameter so
// an unknown-tenant lookup and a malformed label fail differently (404-ish
// conflict vs 400).
func validateClassLabel(class string) error {
	if class == "" {
		return fmt.Errorf("%w: empty tenant class", ErrBadQuery)
	}
	if len(class) > ingest.MaxClassLen {
		return fmt.Errorf("%w: tenant class longer than %d bytes", ErrBadQuery, ingest.MaxClassLen)
	}
	for i := 0; i < len(class); i++ {
		if c := class[i]; c < 0x20 || c == 0x7f {
			return fmt.Errorf("%w: control character in tenant class", ErrBadQuery)
		}
	}
	return nil
}

// tenantRates sums a tenant partition's per-device operating points.
func tenantRates(tab *ingest.Table) (rate, writeRate float64, reporting int) {
	for _, m := range tab.Snapshot() {
		rate += m.Rate
		writeRate += m.WriteRate
		reporting++
	}
	return rate, writeRate, reporting
}

// TenantStats reports one tenant's windowed rates. ErrBadQuery names a
// malformed label; ErrNotReady a class that has no observations yet.
func (e *Engine) TenantStats(class string) (TenantStats, error) {
	total := 0.0
	if p, err := e.state.snapshotKeyed(); err == nil {
		total = p.rate
	}
	return e.tenantStats(class, total)
}

// tenantStats reports one tenant's windowed rates against the aggregate
// read rate total.
func (e *Engine) tenantStats(class string, total float64) (TenantStats, error) {
	if err := validateClassLabel(class); err != nil {
		return TenantStats{}, err
	}
	tab, ok := e.state.tenantTable(class)
	if !ok {
		return TenantStats{}, fmt.Errorf("%w: tenant class %q has no observations", ErrNotReady, class)
	}
	ts := TenantStats{Class: class}
	ts.Rate, ts.WriteRate, ts.Reporting = tenantRates(tab)
	if total > 0 {
		ts.ShareOfTotal = ts.Rate / total
	}
	return ts, nil
}

// Tenants lists every known tenant class's stats in sorted class order.
func (e *Engine) Tenants() []TenantStats {
	names := e.state.tenantNames()
	out := make([]TenantStats, 0, len(names))
	for _, c := range names {
		if ts, err := e.TenantStats(c); err == nil {
			out = append(out, ts)
		}
	}
	return out
}

// TenantShed is one tenant's slice of a weighted admission decision.
type TenantShed struct {
	// Class and Weight restate the tenant and its priority weight.
	Class  string  `json:"class"`
	Weight float64 `json:"weight"`
	// CurrentRate is the tenant's windowed read request rate; AdmittedRate
	// the portion the weighted controller keeps and ShedRate the portion it
	// sheds (CurrentRate = AdmittedRate + ShedRate).
	CurrentRate  float64 `json:"currentRate"`
	AdmittedRate float64 `json:"admittedRate"`
	ShedRate     float64 `json:"shedRate"`
	// Admit reports whether the tenant keeps its full current rate.
	Admit bool `json:"admit"`
}

// TenantAdvice is the weighted admission answer: the aggregate Advice plus
// the per-tenant allocation that realizes it.
type TenantAdvice struct {
	Advice
	// Tenants carries the per-class allocation, cheapest (lowest weight)
	// first — the order traffic is shed in.
	Tenants []TenantShed `json:"tenants"`
	// ResidualShedRate is shed demand that could not be attributed to the
	// weighted tenants (unlabelled traffic when the aggregate overload
	// exceeds the listed tenants' combined rate).
	ResidualShedRate float64 `json:"residualShedRate,omitempty"`
}

// AdviseTenantsContext answers weighted multi-tenant admission control
// for q's requests: the aggregate max admissible rate is found exactly as
// in AdviseContext, and any excess of the current aggregate rate over it
// is shed tenant by tenant in ascending weight order — the cheapest class
// loses traffic first, and a higher-weight class is touched only once
// every cheaper one is fully shed. Every listed tenant must have
// class-labelled observations in the window.
func (e *Engine) AdviseTenantsContext(ctx context.Context, q core.Query, sla, target float64, weights map[string]float64) (TenantAdvice, error) {
	if len(weights) == 0 {
		return TenantAdvice{}, fmt.Errorf("%w: no tenant weights given", ErrBadQuery)
	}
	sheds := make([]TenantShed, 0, len(weights))
	for class, w := range weights {
		if err := validateClassLabel(class); err != nil {
			return TenantAdvice{}, err
		}
		if !(w > 0) || math.IsInf(w, 0) {
			return TenantAdvice{}, fmt.Errorf("%w: tenant %q weight %v must be positive and finite",
				ErrBadQuery, class, w)
		}
		tab, ok := e.state.tenantTable(class)
		if !ok {
			return TenantAdvice{}, fmt.Errorf("%w: tenant class %q has no observations", ErrNotReady, class)
		}
		rate, _, _ := tenantRates(tab)
		sheds = append(sheds, TenantShed{Class: class, Weight: w, CurrentRate: rate})
	}
	// Cheapest first; ties break on the class name so the shed order is
	// deterministic.
	sort.Slice(sheds, func(i, j int) bool {
		if sheds[i].Weight != sheds[j].Weight {
			return sheds[i].Weight < sheds[j].Weight
		}
		return sheds[i].Class < sheds[j].Class
	})
	base, err := e.AdviseContext(ctx, q, sla, target)
	if err != nil {
		return TenantAdvice{}, err
	}
	adv := TenantAdvice{Advice: base, Tenants: sheds}
	shed := base.CurrentRate - base.MaxAdmissibleRate
	if shed < 0 {
		shed = 0
	}
	for i := range adv.Tenants {
		t := &adv.Tenants[i]
		take := math.Min(shed, t.CurrentRate)
		t.ShedRate = take
		t.AdmittedRate = t.CurrentRate - take
		t.Admit = take == 0
		shed -= take
	}
	adv.ResidualShedRate = shed
	return adv, nil
}

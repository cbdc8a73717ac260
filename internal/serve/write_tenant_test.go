package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"testing"

	"cosmodel/internal/core"
)

// obsWithWrites extends obsAtRate with PUT replica traffic at writeRate
// sub-requests per second (1.5 data chunks per write on average).
func obsWithWrites(device int, rate, writeRate float64) Observation {
	o := obsAtRate(device, rate)
	o.Writes = uint64(writeRate * o.Interval)
	o.WriteChunks = o.Writes + o.Writes/2
	return o
}

// ingestMixed feeds every device a read+write operating point.
func ingestMixed(t testing.TB, e *Engine, rate, writeRate float64) {
	t.Helper()
	batch := make([]Observation, e.Config().Devices)
	for d := range batch {
		batch[d] = obsWithWrites(d, rate, writeRate)
	}
	if err := e.Ingest(batch); err != nil {
		t.Fatal(err)
	}
}

func TestWriteSpecValidate(t *testing.T) {
	for _, s := range []WriteSpec{{N: 1, W: 1}, {N: 3, W: 2}, {N: 5, W: 5}} {
		if err := s.validate(); err != nil {
			t.Errorf("%+v rejected: %v", s, err)
		}
	}
	for _, s := range []WriteSpec{{}, {N: 3, W: 0}, {N: 0, W: 1}, {N: 3, W: 4}, {N: -1, W: -1}} {
		err := s.validate()
		if err == nil {
			t.Errorf("%+v accepted", s)
		} else if !errors.Is(err, ErrBadQuery) {
			t.Errorf("%+v: error %v not ErrBadQuery", s, err)
		}
	}
	keys := map[string]core.Query{}
	for _, q := range []core.Query{{}, WriteSpec{N: 3, W: 2}.query(), WriteSpec{N: 3, W: 3}.query(), CodedReadSpec{N: 3, K: 2}.query()} {
		k := cacheKey("op", q, 1, testGrid(t, 0.05).key)
		if prev, dup := keys[k]; dup {
			t.Errorf("%+v and %+v share cache key %q", prev, q, k)
		}
		keys[k] = q
	}
}

func TestPredictWrite(t *testing.T) {
	eng, err := NewEngine(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	spec := WriteSpec{N: 3, W: 2}
	if _, err := eng.PredictContext(context.Background(), spec.query(), nil); !errors.Is(err, ErrNotReady) {
		t.Fatalf("predict-write before ingest: %v", err)
	}
	// A read-only operating point cannot answer PUT questions.
	ingestAll(t, eng, 40)
	if _, err := eng.PredictContext(context.Background(), spec.query(), nil); !errors.Is(err, ErrNotReady) {
		t.Fatalf("predict-write on read-only window: %v", err)
	}
	ingestMixed(t, eng, 40, 10)
	preds, err := eng.PredictContext(context.Background(), spec.query(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(preds) != len(eng.Config().SLAs) {
		t.Fatalf("got %d predictions, want %d", len(preds), len(eng.Config().SLAs))
	}
	for i, p := range preds {
		if !(p.MeetRatio >= 0 && p.MeetRatio <= 1) {
			t.Fatalf("prediction %d out of range: %+v", i, p)
		}
		if i > 0 && p.MeetRatio < preds[i-1].MeetRatio-1e-9 {
			t.Fatalf("meet ratio not monotone in SLA: %+v", preds)
		}
	}
	// Waiting for more replicas can only slow the quorum: W=3 compliance
	// must not exceed W=2 at the same operating point.
	all, err := eng.PredictContext(context.Background(), WriteSpec{N: 3, W: 3}.query(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range preds {
		if all[i].MeetRatio > preds[i].MeetRatio+1e-9 {
			t.Fatalf("W=3 beats W=2 at SLA %v: %v > %v",
				preds[i].SLA, all[i].MeetRatio, preds[i].MeetRatio)
		}
	}
	if _, err := eng.PredictContext(context.Background(), WriteSpec{N: 3, W: 4}.query(), nil); !errors.Is(err, ErrBadQuery) {
		t.Fatalf("W>N: %v", err)
	}
	if _, err := eng.PredictContext(context.Background(), spec.query(), []float64{-1}); !errors.Is(err, ErrBadQuery) {
		t.Fatalf("negative SLA: %v", err)
	}
}

// classBatch labels a full-cluster batch with one tenant class, putting the
// class's traffic on the given devices only.
func classBatch(e *Engine, class string, devices []int, rate, writeRate float64) []Observation {
	batch := make([]Observation, 0, len(devices))
	for _, d := range devices {
		o := obsWithWrites(d, rate, writeRate)
		o.Class = class
		batch = append(batch, o)
	}
	return batch
}

func TestTenantStatsAndBound(t *testing.T) {
	eng, err := NewEngine(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if err := eng.Ingest(classBatch(eng, "gold", []int{0, 1}, 60, 15)); err != nil {
		t.Fatal(err)
	}
	if err := eng.Ingest(classBatch(eng, "bronze", []int{2, 3}, 20, 5)); err != nil {
		t.Fatal(err)
	}
	ts, err := eng.TenantStats("gold")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ts.Rate-120) > 1 || ts.Reporting != 2 {
		t.Fatalf("gold stats: %+v, want rate ~120 over 2 devices", ts)
	}
	if ts.WriteRate <= 0 {
		t.Fatalf("gold write rate missing: %+v", ts)
	}
	// gold is 120 of the aggregate 160 read rate.
	if math.Abs(ts.ShareOfTotal-0.75) > 0.02 {
		t.Fatalf("gold share = %v, want ~0.75", ts.ShareOfTotal)
	}
	if _, err := eng.TenantStats("unknown"); !errors.Is(err, ErrNotReady) {
		t.Fatalf("unknown tenant: %v", err)
	}
	if _, err := eng.TenantStats(""); !errors.Is(err, ErrBadQuery) {
		t.Fatalf("empty label: %v", err)
	}
	if _, err := eng.TenantStats("bad\x00label"); !errors.Is(err, ErrBadQuery) {
		t.Fatalf("control char: %v", err)
	}
	all := eng.Tenants()
	if len(all) != 2 || all[0].Class != "bronze" || all[1].Class != "gold" {
		t.Fatalf("tenants = %+v, want sorted [bronze gold]", all)
	}

	// Class explosion is rejected before anything lands: the 65th fresh
	// class fails all-or-nothing, leaving both tables untouched.
	for i := len(eng.state.tenantNames()); i < maxTenantClasses; i++ {
		o := obsAtRate(0, 1)
		o.Class = fmt.Sprintf("filler-%02d", i)
		if err := eng.Ingest([]Observation{o}); err != nil {
			t.Fatal(err)
		}
	}
	before := eng.Stats().Ingested
	o := obsAtRate(0, 1)
	o.Class = "one-too-many"
	if err := eng.Ingest([]Observation{o}); !errors.Is(err, ErrBadQuery) {
		t.Fatalf("class bound: %v", err)
	}
	if got := eng.Stats().Ingested; got != before {
		t.Fatalf("rejected batch still ingested (%d -> %d)", before, got)
	}
	if n := len(eng.state.tenantNames()); n != maxTenantClasses {
		t.Fatalf("tenant classes = %d, want %d", n, maxTenantClasses)
	}
}

func TestAdviseTenantsWaterfill(t *testing.T) {
	eng, err := NewEngine(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if err := eng.Ingest(classBatch(eng, "gold", []int{0, 1}, 80, 0)); err != nil {
		t.Fatal(err)
	}
	if err := eng.Ingest(classBatch(eng, "bronze", []int{2, 3}, 80, 0)); err != nil {
		t.Fatal(err)
	}
	weights := map[string]float64{"gold": 3, "bronze": 1}

	// A hard target at this load must shed; a loose one must admit both.
	adv, err := eng.AdviseTenantsContext(context.Background(), core.Query{}, 0.010, 0.9999, weights)
	if err != nil {
		t.Fatal(err)
	}
	if len(adv.Tenants) != 2 || adv.Tenants[0].Class != "bronze" || adv.Tenants[1].Class != "gold" {
		t.Fatalf("shed order %+v, want bronze (cheapest) first", adv.Tenants)
	}
	wantShed := adv.CurrentRate - adv.MaxAdmissibleRate
	if wantShed <= 0 {
		t.Fatalf("operating point not overloaded: %+v", adv.Advice)
	}
	var shed float64
	for _, ten := range adv.Tenants {
		if math.Abs(ten.CurrentRate-(ten.AdmittedRate+ten.ShedRate)) > 1e-9 {
			t.Fatalf("tenant accounting broken: %+v", ten)
		}
		shed += ten.ShedRate
	}
	if math.Abs(shed+adv.ResidualShedRate-wantShed) > 1e-6 {
		t.Fatalf("shed %v + residual %v != overload %v", shed, adv.ResidualShedRate, wantShed)
	}
	// Waterfill: gold loses traffic only once bronze is fully shed.
	bronze, gold := adv.Tenants[0], adv.Tenants[1]
	if gold.ShedRate > 0 && bronze.ShedRate < bronze.CurrentRate-1e-9 {
		t.Fatalf("gold shed %v while bronze kept %v", gold.ShedRate, bronze.AdmittedRate)
	}
	if bronze.Admit && bronze.ShedRate > 0 {
		t.Fatalf("admit flag inconsistent: %+v", bronze)
	}

	easy, err := eng.AdviseTenantsContext(context.Background(), core.Query{}, 0.100, 0.5, weights)
	if err != nil {
		t.Fatal(err)
	}
	for _, ten := range easy.Tenants {
		if !ten.Admit || ten.ShedRate != 0 {
			t.Fatalf("loose target shed traffic: %+v", ten)
		}
	}

	// Validation: unknown tenant, bad weight, no weights.
	if _, err := eng.AdviseTenantsContext(context.Background(), core.Query{}, 0.05, 0.9, map[string]float64{"ghost": 1}); !errors.Is(err, ErrNotReady) {
		t.Fatalf("unknown tenant: %v", err)
	}
	if _, err := eng.AdviseTenantsContext(context.Background(), core.Query{}, 0.05, 0.9, map[string]float64{"gold": 0}); !errors.Is(err, ErrBadQuery) {
		t.Fatalf("zero weight: %v", err)
	}
	if _, err := eng.AdviseTenantsContext(context.Background(), core.Query{}, 0.05, 0.9, nil); !errors.Is(err, ErrBadQuery) {
		t.Fatalf("no weights: %v", err)
	}
}

func TestParseTenantWeights(t *testing.T) {
	w, err := parseTenantWeights("gold:3,bronze:1")
	if err != nil {
		t.Fatal(err)
	}
	if len(w) != 2 || w["gold"] != 3 || w["bronze"] != 1 {
		t.Fatalf("parsed %+v", w)
	}
	if w, err = parseTenantWeights(""); err != nil || w != nil {
		t.Fatalf("empty list: %v, %v", w, err)
	}
	for _, bad := range []string{"gold", "gold:x", "gold:1,gold:2", ":1", "gold:"} {
		if _, err := parseTenantWeights(bad); !errors.Is(err, ErrBadQuery) {
			t.Errorf("%q: %v", bad, err)
		}
	}
}

func TestParseWriteParams(t *testing.T) {
	q := map[string][]string{"writeN": {"3"}, "writeW": {"2"}}
	spec, err := parseWriteParams(q)
	if err != nil || spec == nil || spec.N != 3 || spec.W != 2 {
		t.Fatalf("parsed %+v, %v", spec, err)
	}
	if spec, err = parseWriteParams(map[string][]string{}); err != nil || spec != nil {
		t.Fatalf("absent params: %+v, %v", spec, err)
	}
	for _, bad := range []map[string][]string{
		{"writeN": {"3"}},
		{"writeW": {"2"}},
		{"writeN": {"x"}, "writeW": {"2"}},
	} {
		if _, err := parseWriteParams(bad); !errors.Is(err, ErrBadQuery) {
			t.Errorf("%v: %v", bad, err)
		}
	}
}

// TestHTTPWriteAndTenant exercises the new query surface end to end: a
// write-spec'd GET /predict returns the write block, tenant= annotates,
// and /advise?tenants= returns the weighted allocation.
func TestHTTPWriteAndTenant(t *testing.T) {
	s, ts := newTestServer(t, testConfig())
	e := s.Engine()
	if err := e.Ingest(classBatch(e, "gold", []int{0, 1}, 60, 15)); err != nil {
		t.Fatal(err)
	}
	if err := e.Ingest(classBatch(e, "bronze", []int{2, 3}, 20, 5)); err != nil {
		t.Fatal(err)
	}

	get := func(url string, out any) int {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
				t.Fatal(err)
			}
		}
		return resp.StatusCode
	}

	var pr PredictResponse
	if code := get(ts.URL+"/predict?writeN=3&writeW=2&tenant=gold", &pr); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if pr.Write == nil || pr.Write.Spec != (WriteSpec{N: 3, W: 2}) || len(pr.Write.Predictions) == 0 {
		t.Fatalf("write block missing: %+v", pr.Write)
	}
	if pr.Tenant == nil || pr.Tenant.Class != "gold" || pr.Tenant.Rate <= 0 {
		t.Fatalf("tenant annotation missing: %+v", pr.Tenant)
	}

	var bad IngestErrorBody
	if code := get(ts.URL+"/predict?writeN=3&writeW=9", &bad); code != http.StatusBadRequest {
		t.Fatalf("W>N status %d", code)
	}
	if code := get(ts.URL+"/predict?tenant=ghost", &bad); code != http.StatusConflict {
		t.Fatalf("unknown tenant status %d", code)
	}

	var adv TenantAdvice
	if code := get(ts.URL+"/advise?sla=0.05&target=0.9&tenants=gold:3,bronze:1", &adv); code != http.StatusOK {
		t.Fatalf("advise status %d", code)
	}
	if len(adv.Tenants) != 2 || adv.Tenants[0].Class != "bronze" {
		t.Fatalf("advise allocation %+v", adv.Tenants)
	}

	// tenant=gold is shorthand for tenants=gold:1.
	var single TenantAdvice
	if code := get(ts.URL+"/advise?sla=0.05&target=0.9&tenant=gold", &single); code != http.StatusOK {
		t.Fatalf("advise tenant shorthand status %d", code)
	}
	if len(single.Tenants) != 1 || single.Tenants[0].Class != "gold" {
		t.Fatalf("shorthand allocation %+v", single.Tenants)
	}

	if code := get(ts.URL+"/advise?sla=0.05&target=0.9&tenants=gold:0", &bad); code != http.StatusBadRequest {
		t.Fatalf("zero weight status %d", code)
	}
}

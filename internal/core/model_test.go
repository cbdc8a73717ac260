package core

import (
	"context"
	"errors"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"cosmodel/internal/dist"
	"cosmodel/internal/lst"
	"cosmodel/internal/numeric"
	"cosmodel/internal/queueing"
)

var inv = numeric.NewEuler()

// testProps returns disk/parse properties in the range of the paper's
// testbed (Fig. 5: service times of a few to tens of ms).
func testProps() DeviceProperties {
	return DeviceProperties{
		IndexDisk: dist.NewGammaMeanSCV(9e-3, 0.45),
		MetaDisk:  dist.NewGammaMeanSCV(6e-3, 0.50),
		DataDisk:  dist.NewGammaMeanSCV(8e-3, 0.40),
		ParseBE:   dist.Degenerate{Value: 0.5e-3},
		ParseFE:   dist.Degenerate{Value: 0.3e-3},
	}
}

func testMetrics() OnlineMetrics {
	return OnlineMetrics{
		Rate:      40,
		DataRate:  48,
		MissIndex: 0.35,
		MissMeta:  0.30,
		MissData:  0.45,
		Procs:     1,
	}
}

func TestDevicePropertiesValidate(t *testing.T) {
	if err := testProps().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := testProps()
	bad.IndexDisk = nil
	if err := bad.Validate(); err == nil {
		t.Error("nil index dist should fail")
	}
	zero := testProps()
	zero.IndexDisk = dist.Degenerate{Value: 0}
	zero.MetaDisk = dist.Degenerate{Value: 0}
	zero.DataDisk = dist.Degenerate{Value: 0}
	if err := zero.Validate(); err == nil {
		t.Error("all-zero disk means should fail")
	}
}

func TestProportionsSumToOne(t *testing.T) {
	pi, pm, pd := testProps().Proportions()
	if math.Abs(pi+pm+pd-1) > 1e-12 {
		t.Errorf("proportions sum to %v", pi+pm+pd)
	}
	if pi <= 0 || pm <= 0 || pd <= 0 {
		t.Errorf("proportions: %v %v %v", pi, pm, pd)
	}
}

func TestOnlineMetricsValidate(t *testing.T) {
	if err := testMetrics().Validate(); err != nil {
		t.Fatal(err)
	}
	mutations := []func(*OnlineMetrics){
		func(m *OnlineMetrics) { m.Rate = 0 },
		func(m *OnlineMetrics) { m.DataRate = m.Rate - 1 },
		func(m *OnlineMetrics) { m.MissIndex = -0.1 },
		func(m *OnlineMetrics) { m.MissMeta = 1.1 },
		func(m *OnlineMetrics) { m.Procs = 0 },
		func(m *OnlineMetrics) { m.DiskMean = -1 },
	}
	for i, mut := range mutations {
		m := testMetrics()
		mut(&m)
		if err := m.Validate(); err == nil {
			t.Errorf("mutation %d should fail validation", i)
		}
	}
}

func TestExtraReadsClamped(t *testing.T) {
	m := testMetrics()
	m.Rate, m.DataRate = 10, 25
	if got := m.ExtraReads(); math.Abs(got-1.5) > 1e-12 {
		t.Errorf("extra reads = %v, want 1.5", got)
	}
	m.DataRate = 10
	if got := m.ExtraReads(); got != 0 {
		t.Errorf("extra reads = %v, want 0", got)
	}
}

// mustBackendCDF is DeviceModel.BackendCDF failing the test on error.
func mustBackendCDF(t *testing.T, d *DeviceModel, x float64) float64 {
	t.Helper()
	v, err := d.BackendCDF(x)
	if err != nil {
		t.Fatalf("BackendCDF(%v): %v", x, err)
	}
	return v
}

func TestDeviceModelBasics(t *testing.T) {
	d, err := NewDeviceModel(testProps(), testMetrics(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rho := d.Utilization(); rho <= 0 || rho >= 1 {
		t.Errorf("utilization = %v", rho)
	}
	// CDF sanity: monotone, in [0,1], reaching high values at 10x mean.
	prev := -1.0
	mean := d.Backend().Mean
	for x := mean / 10; x < 10*mean; x *= 1.3 {
		c := mustBackendCDF(t, d, x)
		if c < -1e-9 || c > 1+1e-9 {
			t.Fatalf("CDF(%v) = %v", x, c)
		}
		if c < prev-1e-6 {
			t.Fatalf("CDF not monotone at %v", x)
		}
		prev = c
	}
	if c := mustBackendCDF(t, d, 10*mean); c < 0.95 {
		t.Errorf("CDF(10·mean) = %v", c)
	}
}

// TestBackendCDFSurfacesInvalidInversion: a NaN primary inversion with no
// fallback is an error wrapping numeric.ErrNumerical, not a CDF of 0; with
// the default chain it is recovered by the first fallback (Euler), whose
// value it returns, and OnFallback reports the switch.
func TestBackendCDFSurfacesInvalidInversion(t *testing.T) {
	poisoned, err := NewDeviceModel(testProps(), testMetrics(), Options{Inverter: nanInverter{}, Fallbacks: []numeric.Inverter{}})
	if err != nil {
		t.Fatal(err)
	}
	if v, err := poisoned.BackendCDF(0.02); !errors.Is(err, numeric.ErrNumerical) {
		t.Errorf("BackendCDF = %v, %v; want ErrNumerical", v, err)
	}
	var switched []string
	recovered, err := NewDeviceModel(testProps(), testMetrics(), Options{
		Inverter:   nanInverter{},
		OnFallback: func(from, to string) { switched = append(switched, from+"->"+to) },
	})
	if err != nil {
		t.Fatal(err)
	}
	euler, err := NewDeviceModel(testProps(), testMetrics(), Options{Inverter: numeric.NewEuler()})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := mustBackendCDF(t, recovered, 0.02), mustBackendCDF(t, euler, 0.02); got != want {
		t.Errorf("recovered BackendCDF = %v, Euler %v", got, want)
	}
	if len(switched) != 1 || switched[0] != "nan->"+numeric.NewEuler().Name() {
		t.Errorf("OnFallback calls %v, want one nan->euler", switched)
	}
}

// TestDeviceModelReducesToMG1 checks the degenerate case: no extra reads,
// certain misses, zero-latency index/meta, so the union operation is
// parse + data and the backend response must match the M/G/1 sojourn of
// that service.
func TestDeviceModelReducesToMG1(t *testing.T) {
	props := testProps()
	props.IndexDisk = dist.Degenerate{Value: 0}
	props.MetaDisk = dist.Degenerate{Value: 0}
	m := testMetrics()
	m.DataRate = m.Rate // no extra reads
	m.MissIndex, m.MissMeta, m.MissData = 1, 1, 1
	d, err := NewDeviceModel(props, m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	svc := lst.Convolve(lst.FromDist(props.ParseBE), lst.FromDist(props.DataDisk))
	q, err := queueing.NewMG1(m.Rate, svc)
	if err != nil {
		t.Fatal(err)
	}
	want := q.SojournLST()
	for _, x := range []float64{0.005, 0.01, 0.02, 0.05, 0.1} {
		got := mustBackendCDF(t, d, x)
		ref := lst.CDF(inv, want, x)
		if math.Abs(got-ref) > 1e-6 {
			t.Errorf("CDF(%v) = %v, want %v", x, got, ref)
		}
	}
}

func TestDeviceModelOverload(t *testing.T) {
	m := testMetrics()
	m.Rate = 2000
	m.DataRate = 2400
	_, err := NewDeviceModel(testProps(), m, Options{})
	if !errors.Is(err, ErrOverload) {
		t.Errorf("want ErrOverload, got %v", err)
	}
}

func TestODOPRIsOptimistic(t *testing.T) {
	our, err := NewDeviceModel(testProps(), testMetrics(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	odopr, err := NewDeviceModel(testProps(), testMetrics(), Options{ODOPR: true})
	if err != nil {
		t.Fatal(err)
	}
	// Ignoring index/meta/extra-read disk traffic can only make latency
	// look better.
	for _, sla := range []float64{0.01, 0.05, 0.1} {
		if mustBackendCDF(t, odopr, sla) < mustBackendCDF(t, our, sla)-1e-6 {
			t.Errorf("ODOPR CDF(%v) below full model", sla)
		}
	}
	// Same arrival rate, so utilization orders the union means.
	if odopr.Utilization() >= our.Utilization() {
		t.Error("ODOPR union mean should be smaller")
	}
}

func TestWTAModes(t *testing.T) {
	props, m := testProps(), testMetrics()
	approx, err := NewDeviceModel(props, m, Options{WTA: WTAApprox})
	if err != nil {
		t.Fatal(err)
	}
	none, err := NewDeviceModel(props, m, Options{WTA: WTANone})
	if err != nil {
		t.Fatal(err)
	}
	exact, err := NewDeviceModel(props, m, Options{WTA: WTAExact})
	if err != nil {
		t.Fatal(err)
	}
	if none.WTA().Mean != 0 {
		t.Errorf("noWTA mean = %v", none.WTA().Mean)
	}
	if approx.WTA().Mean <= 0 {
		t.Errorf("approx WTA mean = %v", approx.WTA().Mean)
	}
	// The paper: the Wa = A approximation overestimates the waiting of
	// connections that arrive mid-lifetime, so the exact mean is smaller.
	if exact.WTA().Mean > approx.WTA().Mean+1e-9 {
		t.Errorf("exact WTA mean %v exceeds approx %v", exact.WTA().Mean, approx.WTA().Mean)
	}
	if exact.WTA().Mean <= 0 {
		t.Errorf("exact WTA mean = %v", exact.WTA().Mean)
	}
	// LST(0) = 1: the quadrature weights sum to 1 and Wbe(0) = 1.
	if got := exact.WTA().F(0); math.Abs(real(got)-1) > 1e-9 {
		t.Errorf("exact WTA LST(0) = %v", got)
	}
}

// TestExactWTAMatchesIntegral is the exact WTA's accuracy property: over
// seeded random devices with per-process ρ up to 0.95 and Nbe ∈ {1, 16},
// the inverted CDF of the Gauss–Legendre transform is within 1e-4 of the
// paper's integral evaluated independently in the CDF domain,
// P(Wa ≤ x) = 1 − ∫₀¹ P(Wbe > x/u) du, with P(Wbe > y) from a
// high-accuracy Euler inversion and the u-integral by adaptive Simpson;
// and E[Wa] = E[Wbe]/2.
func TestExactWTAMatchesIntegral(t *testing.T) {
	ref := numeric.NewEulerN(18.4, 120, 40)
	rhos := []float64{0.95, 0.9, 0.8, 0.6, 0.4}
	if testing.Short() || raceEnabled {
		rhos = []float64{0.95, 0.6}
	}
	rng := rand.New(rand.NewSource(33))
	for _, procs := range []int{1, 16} {
		for _, rho := range rhos {
			m := testMetrics()
			m.Procs = procs
			m.MissIndex = 0.2 + 0.6*rng.Float64()
			m.MissMeta = 0.2 + 0.6*rng.Float64()
			m.MissData = 0.2 + 0.6*rng.Float64()
			d := deviceAtUtilization(t, testProps(), m, Options{WTA: WTAExact}, rho)
			wbe, wa := d.Waiting(), d.WTA()
			if got, want := wa.Mean, wbe.Mean/2; math.Abs(got-want) > 1e-12*want {
				t.Errorf("Nbe=%d ρ=%.2f: E[Wa] = %v, want E[Wbe]/2 = %v", procs, rho, got, want)
			}
			for i := 0; i < 8; i++ {
				// Log-spaced from 0.05·E[Wbe] to 8·E[Wbe], jittered.
				x := wbe.Mean * 0.05 * math.Pow(160, (float64(i)+rng.Float64())/8)
				tail := func(u float64) float64 {
					if u == 0 {
						return 0
					}
					return 1 - numeric.InvertCDF(ref, wbe.F, x/u)
				}
				want := 1 - numeric.IntegrateAdaptive(tail, 0, 1, 1e-8)
				if got := lst.CDF(inv, wa, x); math.Abs(got-want) > 1e-4 {
					t.Errorf("Nbe=%d ρ=%.2f: P(Wa ≤ %.4g) = %.6f, integral %.6f (diff %.2g)",
						procs, rho, x, got, want, got-want)
				}
			}
		}
	}
}

// deviceAtUtilization builds the device whose per-process utilization is
// rho (to 1e-6) by bisecting m.Rate, DataRate scaling with it.
func deviceAtUtilization(t *testing.T, props DeviceProperties, m OnlineMetrics, opts Options, rho float64) *DeviceModel {
	t.Helper()
	perRead := m.DataRate / m.Rate
	lo, hi := 0.0, 1e5
	for i := 0; i < 200; i++ {
		m.Rate = (lo + hi) / 2
		m.DataRate = perRead * m.Rate
		d, err := NewDeviceModel(props, m, opts)
		if err != nil {
			hi = m.Rate
			continue
		}
		switch u := d.Utilization(); {
		case math.Abs(u-rho) <= 1e-6:
			return d
		case u < rho:
			lo = m.Rate
		default:
			hi = m.Rate
		}
	}
	t.Fatalf("no rate gives per-process utilization %v", rho)
	return nil
}

func TestMultiProcessModel(t *testing.T) {
	props := testProps()
	for _, nbe := range []int{2, 4, 16} {
		m := testMetrics()
		m.Procs = nbe
		m.Rate = 100
		m.DataRate = 120
		d, err := NewDeviceModel(props, m, Options{})
		if err != nil {
			t.Fatalf("Nbe=%d: %v", nbe, err)
		}
		mean := d.Backend().Mean
		if mean <= 0 {
			t.Fatalf("Nbe=%d: backend mean %v", nbe, mean)
		}
		prev := -1.0
		for x := 1e-3; x < 20*mean; x *= 1.5 {
			c := mustBackendCDF(t, d, x)
			if c < -1e-9 || c > 1+1e-9 || c < prev-1e-6 {
				t.Fatalf("Nbe=%d: bad CDF(%v) = %v (prev %v)", nbe, x, c, prev)
			}
			prev = c
		}
	}
}

// TestMultiProcessDiskAblation compares the paper's M/M/1/K disk model with
// the M/G/1 ablation; both must produce valid CDFs, and at low load they
// should roughly agree.
func TestMultiProcessDiskAblation(t *testing.T) {
	props := testProps()
	m := testMetrics()
	m.Procs = 8
	m.Rate = 60
	m.DataRate = 72
	mm1k, err := NewDeviceModel(props, m, Options{DiskQueue: DiskMM1K})
	if err != nil {
		t.Fatal(err)
	}
	mg1, err := NewDeviceModel(props, m, Options{DiskQueue: DiskMG1})
	if err != nil {
		t.Fatal(err)
	}
	a := mm1k.Backend().Mean
	b := mg1.Backend().Mean
	if a <= 0 || b <= 0 {
		t.Fatalf("means: %v %v", a, b)
	}
	if ratio := a / b; ratio < 0.5 || ratio > 2 {
		t.Errorf("disk approximations disagree wildly: %v vs %v", a, b)
	}
}

func TestMultiProcessNoDiskTraffic(t *testing.T) {
	m := testMetrics()
	m.Procs = 4
	m.MissIndex, m.MissMeta, m.MissData = 0, 0, 0
	d, err := NewDeviceModel(testProps(), m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Everything cached: response is parse-dominated and fast.
	if c := mustBackendCDF(t, d, 0.01); c < 0.99 {
		t.Errorf("all-hit CDF(10ms) = %v", c)
	}
}

func TestCompoundModes(t *testing.T) {
	props, m := testProps(), testMetrics()
	m.DataRate = 2.2 * m.Rate // strong chunking
	for _, mode := range []CompoundMode{CompoundPoisson, CompoundFixed, CompoundGeometric} {
		d, err := NewDeviceModel(props, m, Options{Compound: mode})
		if err != nil {
			t.Fatalf("mode %d: %v", mode, err)
		}
		if rho := d.Utilization(); rho <= 0 {
			t.Fatalf("mode %d: utilization %v", mode, rho)
		}
	}
	// All modes share the same union mean (same expected extra reads),
	// except Fixed which rounds.
	pois, _ := NewDeviceModel(props, m, Options{Compound: CompoundPoisson})
	geo, _ := NewDeviceModel(props, m, Options{Compound: CompoundGeometric})
	if math.Abs(pois.Utilization()-geo.Utilization()) > 1e-12 {
		t.Error("Poisson and geometric compounds should share the union mean")
	}
}

// extraReadsDevice builds the test device with p extra data reads per
// union operation under the given compound mode.
func extraReadsDevice(t *testing.T, p float64, mode CompoundMode) *DeviceModel {
	t.Helper()
	m := testMetrics()
	m.DataRate = (1 + p) * m.Rate
	d, err := NewDeviceModel(testProps(), m, Options{Compound: mode})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// opDataAt is the device's cache-mixed data-read factor at s.
func opDataAt(d *DeviceModel, s complex128) complex128 {
	_, _, pd, _, _, _ := d.leafValues(s)
	return pd
}

// TestExtraValPoissonMatchesSeries validates the Poisson extra-reads
// factor e^{p(pd-1)} against the truncated series Σ p^j e^{-p}/j! pd^j the
// paper writes out.
func TestExtraValPoissonMatchesSeries(t *testing.T) {
	d := extraReadsDevice(t, 1.7, CompoundPoisson)
	p := d.metrics.ExtraReads()
	for _, s := range []complex128{complex(50, 20), complex(400, -300)} {
		pd := opDataAt(d, s)
		var series complex128
		term := math.Exp(-p) // p^0 e^-p / 0!
		pow := complex(1, 0)
		for j := 0; j < 60; j++ {
			series += complex(term, 0) * pow
			term *= p / float64(j+1)
			pow *= pd
		}
		if got := d.extraVal(pd); cmplx.Abs(got-series) > 1e-12 {
			t.Errorf("s=%v: compound %v, series %v", s, got, series)
		}
	}
	if got := d.extraVal(1); cmplx.Abs(got-1) > 1e-15 {
		t.Errorf("factor at s=0: %v", got)
	}
}

// TestExtraValGeometricMatchesSeries validates the geometric extra-reads
// factor (1-q)/(1-q·pd), q = p/(1+p), against its series Σ (1-q) q^j pd^j.
func TestExtraValGeometricMatchesSeries(t *testing.T) {
	d := extraReadsDevice(t, 1.7, CompoundGeometric)
	p := d.metrics.ExtraReads()
	q := p / (1 + p)
	for _, s := range []complex128{complex(50, 20), complex(400, -300)} {
		pd := opDataAt(d, s)
		var series complex128
		pow := complex(1-q, 0)
		for j := 0; j < 200; j++ {
			series += pow
			pow *= complex(q, 0) * pd
		}
		if got := d.extraVal(pd); cmplx.Abs(got-series) > 1e-12 {
			t.Errorf("s=%v: compound %v, series %v", s, got, series)
		}
	}
	if got := d.extraVal(1); cmplx.Abs(got-1) > 1e-15 {
		t.Errorf("factor at s=0: %v", got)
	}
}

// TestExtraValFixedIsPower checks the fixed extra-reads factor: pd^n with
// n = round(p) copies, and no factor at all when p rounds to zero.
func TestExtraValFixedIsPower(t *testing.T) {
	for _, c := range []struct {
		p float64
		n int
	}{{1.7, 2}, {2.4, 2}, {0.4, 0}} {
		d := extraReadsDevice(t, c.p, CompoundFixed)
		for _, s := range []complex128{complex(50, 20), complex(400, -300)} {
			pd := opDataAt(d, s)
			want := complex(1, 0)
			for range c.n {
				want *= pd
			}
			if got := d.extraVal(pd); cmplx.Abs(got-want) > 1e-12*cmplx.Abs(want) {
				t.Errorf("p=%v s=%v: factor %v, pd^%d = %v", c.p, s, got, c.n, want)
			}
		}
	}
}

// TestExtraReadsMean checks the extra reads' share of the union-operation
// mean: p·E[opData] for the Poisson and geometric compounds, round(p)·
// E[opData] for the fixed one. The share is the utilization gained over the
// same device with no extra reads, divided by the per-process rate.
func TestExtraReadsMean(t *testing.T) {
	m := testMetrics()
	opData := m.MissData * testProps().DataDisk.Mean()
	for _, mode := range []CompoundMode{CompoundPoisson, CompoundGeometric, CompoundFixed} {
		base := extraReadsDevice(t, 0, mode)
		for _, p := range []float64{0.4, 1.7} {
			d := extraReadsDevice(t, p, mode)
			n := d.metrics.ExtraReads()
			if mode == CompoundFixed {
				n = math.Round(n)
			}
			got := (d.Utilization() - base.Utilization()) / d.procRate
			if want := n * opData; math.Abs(got-want) > 1e-12*math.Max(want, opData) {
				t.Errorf("mode %d p=%v: extra-reads mean %v, want %v", mode, p, got, want)
			}
		}
	}
}

func TestScaledServiceMeans(t *testing.T) {
	props := testProps()
	m := testMetrics()
	m.DiskMean = 12e-3 // online disks look slower than benchmarked
	d, err := NewDeviceModel(props, m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	bi, bm, bd := d.scaledServiceMeans()
	pi, pm, pd := props.Proportions()
	// Proportions preserved.
	if math.Abs(bi/pi-bm/pm) > 1e-9 || math.Abs(bm/pm-bd/pd) > 1e-9 {
		t.Errorf("proportions broken: %v %v %v", bi, bm, bd)
	}
	// Weighted-mean equation holds.
	lhs := m.MissIndex*bi*m.Rate + m.MissMeta*bm*m.Rate + m.MissData*bd*m.DataRate
	rhs := (m.MissIndex*m.Rate + m.MissMeta*m.Rate + m.MissData*m.DataRate) * m.DiskMean
	if math.Abs(lhs-rhs) > 1e-9*rhs {
		t.Errorf("weighted mean equation: %v vs %v", lhs, rhs)
	}
	// No online measurement: fitted means unchanged.
	m.DiskMean = 0
	d2, _ := NewDeviceModel(props, m, Options{})
	bi2, _, _ := d2.scaledServiceMeans()
	if bi2 != props.IndexDisk.Mean() {
		t.Errorf("unscaled bi = %v", bi2)
	}
}

func TestSolveServiceTimes(t *testing.T) {
	m := testMetrics()
	bi, bm, bd, err := SolveServiceTimes(10e-3, 0.4, 0.25, 0.35, m)
	if err != nil {
		t.Fatal(err)
	}
	lhs := m.MissIndex*bi*m.Rate + m.MissMeta*bm*m.Rate + m.MissData*bd*m.DataRate
	rhs := (m.MissIndex*m.Rate + m.MissMeta*m.Rate + m.MissData*m.DataRate) * 10e-3
	if math.Abs(lhs-rhs) > 1e-12 {
		t.Errorf("equation violated: %v vs %v", lhs, rhs)
	}
	if _, _, _, err := SolveServiceTimes(0, 0.4, 0.25, 0.35, m); err == nil {
		t.Error("b=0 should fail")
	}
	noTraffic := m
	noTraffic.MissIndex, noTraffic.MissMeta, noTraffic.MissData = 0, 0, 0
	if _, _, _, err := SolveServiceTimes(10e-3, 0.4, 0.25, 0.35, noTraffic); err == nil {
		t.Error("no disk traffic should fail")
	}
}

func TestMissRatioByThreshold(t *testing.T) {
	lats := []float64{1e-6, 2e-6, 5e-3, 8e-3, 1e-6, 20e-3}
	if got := MissRatioByThreshold(lats, DefaultMissThreshold); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("miss ratio = %v, want 0.5", got)
	}
	if got := MissRatioByThreshold(nil, 0); got != 0 {
		t.Errorf("empty sample = %v", got)
	}
	if got := MissRatioByThreshold(lats, 0); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("default threshold = %v", got)
	}
}

func TestFrontendModel(t *testing.T) {
	fe, err := NewFrontendModel(300, 12, dist.Degenerate{Value: 0.3e-3})
	if err != nil {
		t.Fatal(err)
	}
	if rho := fe.Utilization(); math.Abs(rho-300.0/12*0.3e-3) > 1e-12 {
		t.Errorf("utilization = %v", rho)
	}
	// Sq matches an M/G/1 sojourn at the per-process rate.
	q, _ := queueing.NewMG1(25, lst.FromDist(dist.Degenerate{Value: 0.3e-3}))
	want := q.SojournLST()
	for _, x := range []float64{0.0005, 0.001, 0.002} {
		got := lst.CDF(inv, fe.Sojourn(), x)
		ref := lst.CDF(inv, want, x)
		if math.Abs(got-ref) > 1e-9 {
			t.Errorf("Sq CDF(%v) = %v, want %v", x, got, ref)
		}
	}
	if _, err := NewFrontendModel(0, 1, dist.Degenerate{Value: 1e-3}); err == nil {
		t.Error("zero rate should fail")
	}
	if _, err := NewFrontendModel(10, 0, dist.Degenerate{Value: 1e-3}); err == nil {
		t.Error("zero procs should fail")
	}
	if _, err := NewFrontendModel(10, 1, nil); err == nil {
		t.Error("nil parse should fail")
	}
	if _, err := NewFrontendModel(1e9, 1, dist.Degenerate{Value: 1e-3}); !errors.Is(err, ErrOverload) {
		t.Error("saturated frontend should be ErrOverload")
	}
}

func TestSystemModelMixture(t *testing.T) {
	fe, err := NewFrontendModel(100, 12, dist.Degenerate{Value: 0.3e-3})
	if err != nil {
		t.Fatal(err)
	}
	fast := testMetrics()
	fast.Rate, fast.DataRate = 20, 24
	fast.MissIndex, fast.MissMeta, fast.MissData = 0.05, 0.05, 0.1
	slow := testMetrics()
	slow.Rate, slow.DataRate = 60, 72
	slow.MissIndex, slow.MissMeta, slow.MissData = 0.6, 0.6, 0.7
	dFast, err := NewDeviceModel(testProps(), fast, Options{})
	if err != nil {
		t.Fatal(err)
	}
	dSlow, err := NewDeviceModel(testProps(), slow, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystemModel(fe, []*DeviceModel{dFast, dSlow}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	devs := []*DeviceModel{dFast, dSlow}
	deviceCDF := func(j int, sla float64) float64 {
		c := mustClosures(t, devs[j])
		return lst.CDF(inv, lst.Convolve(fe.Sojourn(), c.wa, c.sbe), sla)
	}
	for _, sla := range []float64{0.01, 0.05, 0.1} {
		want := (20*deviceCDF(0, sla) + 60*deviceCDF(1, sla)) / 80
		if got := sys.CDF(sla); math.Abs(got-want) > 1e-9 {
			t.Errorf("mixture CDF(%v) = %v, want %v", sla, got, want)
		}
	}
	// The mixture lies between the two device CDFs.
	sla := 0.05
	lo := math.Min(deviceCDF(0, sla), deviceCDF(1, sla))
	hi := math.Max(deviceCDF(0, sla), deviceCDF(1, sla))
	if got := sys.CDF(sla); got < lo-1e-9 || got > hi+1e-9 {
		t.Errorf("mixture CDF outside device range")
	}
	if got := sys.CDF(0); got != 0 {
		t.Errorf("CDF(0) = %v", got)
	}
	if sys.MeanResponse() <= 0 {
		t.Error("mean response should be positive")
	}
}

func TestSystemModelAccessors(t *testing.T) {
	fe, _ := NewFrontendModel(100, 12, dist.Degenerate{Value: 0.3e-3})
	d, _ := NewDeviceModel(testProps(), testMetrics(), Options{})
	sys, err := NewSystemModel(fe, []*DeviceModel{d}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sys.Frontend() != fe {
		t.Error("Frontend accessor")
	}
	if devs := sys.Devices(); len(devs) != 1 || devs[0] != d {
		t.Error("Devices accessor")
	}
	if w := d.Waiting(); w.Mean <= 0 {
		t.Errorf("waiting mean = %v", w.Mean)
	}
}

func TestSystemModelValidation(t *testing.T) {
	fe, _ := NewFrontendModel(100, 12, dist.Degenerate{Value: 0.3e-3})
	d, _ := NewDeviceModel(testProps(), testMetrics(), Options{})
	if _, err := NewSystemModel(nil, []*DeviceModel{d}, Options{}); err == nil {
		t.Error("nil frontend should fail")
	}
	if _, err := NewSystemModel(fe, nil, Options{}); err == nil {
		t.Error("no devices should fail")
	}
	if _, err := NewSystemModel(fe, []*DeviceModel{nil}, Options{}); err == nil {
		t.Error("nil device should fail")
	}
}

func TestSystemQuantileRoundTrip(t *testing.T) {
	fe, _ := NewFrontendModel(100, 12, dist.Degenerate{Value: 0.3e-3})
	d, _ := NewDeviceModel(testProps(), testMetrics(), Options{})
	sys, err := NewSystemModel(fe, []*DeviceModel{d}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []float64{0.5, 0.9, 0.99} {
		q, err := sys.Quantile(context.Background(), Query{}, p, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got := sys.CDF(q); math.Abs(got-p) > 5e-3 {
			t.Errorf("CDF(Quantile(%v)) = %v", p, got)
		}
	}
	if q, err := sys.Quantile(context.Background(), Query{}, 0, 0); err != nil || q != 0 {
		t.Errorf("Quantile(0) = %v, %v; want 0", q, err)
	}
}

func newTestRand(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

func TestFitDeviceProperties(t *testing.T) {
	// Generate samples from known Gammas and refit.
	gi := dist.NewGammaMeanSCV(9e-3, 0.45)
	gm := dist.NewGammaMeanSCV(6e-3, 0.5)
	gd := dist.NewGammaMeanSCV(8e-3, 0.4)
	r := newTestRand(99)
	props, err := FitDeviceProperties(
		dist.SampleN(gi, r, 20000),
		dist.SampleN(gm, r, 20000),
		dist.SampleN(gd, r, 20000),
		0.3e-3, 0.5e-3,
	)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(props.IndexDisk.Mean()-9e-3)/9e-3 > 0.05 {
		t.Errorf("index mean = %v", props.IndexDisk.Mean())
	}
	if math.Abs(props.ParseBE.Mean()-0.5e-3) > 1e-12 {
		t.Errorf("parseBE = %v", props.ParseBE.Mean())
	}
	if _, err := FitDeviceProperties(nil, nil, nil, 1, 1); err == nil {
		t.Error("empty samples should fail")
	}
	if _, err := FitDeviceProperties(
		dist.SampleN(gi, r, 100), dist.SampleN(gm, r, 100), dist.SampleN(gd, r, 100),
		0, 1); err == nil {
		t.Error("zero parse should fail")
	}
}

func TestCompareFits(t *testing.T) {
	r := newTestRand(7)
	gi := dist.NewGammaMeanSCV(9e-3, 0.45)
	rep, err := CompareFits(
		dist.SampleN(gi, r, 10000),
		dist.SampleN(gi, r, 10000),
		dist.SampleN(gi, r, 10000),
	)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Index[0].Name != "gamma" {
		t.Errorf("best index fit = %s, want gamma (the paper's Fig. 5 outcome)", rep.Index[0].Name)
	}
	if _, err := CompareFits(nil, nil, nil); err == nil {
		t.Error("empty should fail")
	}
}

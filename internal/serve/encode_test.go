package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"reflect"
	"testing"
)

// edgeFloats are the values where encoding/json's float formatting changes
// shape: zero and negative zero, the 1e-6 and 1e21 exponent cut-offs on
// both sides, a two-digit negative exponent (1e-7 → "1e-7"), the extremes
// of float64 and plain negatives.
var edgeFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.5, 1e-7, -1e-7, 1e-6, 9.99999e-7,
	1e20, 1e21, -1e21, 123456789012345678901234.0, 5e-324,
	math.SmallestNonzeroFloat64, math.MaxFloat64, 0.1 + 0.2, 1.0 / 3,
}

// edgeStrings exercise every escaping rule of encoding/json's HTML-safe
// string encoder.
var edgeStrings = []string{
	"", "gold", `"quoted"\back`, "<b>&amp;</b>", "tab\there\nnl\rcr",
	"\b\f\x00\x1f\x7f", "na\u00efve \u2713", "sep\u2028para\u2029", "bad\xffutf8\xc3",
}

// randomResponse builds a PredictResponse whose presence bits come from
// shape and whose floats are drawn from the edge values, the fuzzer's own
// x, y and z, and uniform noise.
func randomResponse(rng *rand.Rand, shape uint8, xyz [3]float64, class string) *PredictResponse {
	float := func() float64 {
		switch k := rng.Intn(4); k {
		case 0:
			return edgeFloats[rng.Intn(len(edgeFloats))]
		case 1:
			return xyz[rng.Intn(3)]
		case 2:
			return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(50)-25))
		default:
			return rng.Float64()
		}
	}
	preds := func(nilBit uint8) []Prediction {
		if shape&nilBit != 0 {
			return nil
		}
		ps := make([]Prediction, rng.Intn(5))
		for i := range ps {
			ps[i] = Prediction{SLA: float(), MeetRatio: float(),
				Saturated: rng.Intn(2) == 0, Cached: rng.Intn(2) == 0}
		}
		return ps
	}
	r := &PredictResponse{
		Predictions:    preds(1 << 0),
		Saturated:      rng.Intn(2) == 0,
		TotalRate:      float(),
		CalibrationAge: float(),
	}
	if shape&(1<<1) != 0 {
		r.CodedRead = &CodedReadBlock{
			Spec:        CodedReadSpec{N: rng.Intn(20) - 2, K: rng.Intn(20) - 2},
			Predictions: preds(1 << 5),
			Saturated:   rng.Intn(2) == 0,
		}
		if shape&(1<<2) != 0 {
			r.CodedRead.Spec.Hedge = rng.Intn(4) != 0
			if rng.Intn(4) != 0 {
				r.CodedRead.Spec.HedgeDelaySeconds = float()
			}
		}
	}
	if shape&(1<<3) != 0 {
		r.Write = &WriteBlock{
			Spec:        WriteSpec{N: rng.Intn(1 << 20), W: -rng.Intn(3)},
			Predictions: preds(1 << 6),
			Saturated:   rng.Intn(2) == 0,
		}
	}
	if shape&(1<<4) != 0 {
		if rng.Intn(2) == 0 {
			class = edgeStrings[rng.Intn(len(edgeStrings))]
		}
		r.Tenant = &TenantStats{Class: class, Rate: float(), WriteRate: float(),
			Reporting: rng.Intn(100) - 1, ShareOfTotal: float()}
	}
	return r
}

// checkEncoding asserts that the append encoder writes exactly what
// json.NewEncoder(w).Encode writes (json.Marshal plus a newline), and that
// both refuse the same responses.
func checkEncoding(t *testing.T, r *PredictResponse) {
	t.Helper()
	want, wantErr := json.Marshal(r)
	got, err := appendPredictResponse(nil, r)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("append encoder error %v, encoding/json error %v for %+v", err, wantErr, r)
	}
	if wantErr != nil {
		return
	}
	want = append(want, '\n')
	if !bytes.Equal(got, want) {
		t.Fatalf("append encoder diverges from encoding/json:\n got %s\nwant %s", got, want)
	}
}

// TestPredictResponseEncoding pins the append encoder byte for byte
// against encoding/json over every edge value and randomized responses.
func TestPredictResponseEncoding(t *testing.T) {
	full := &PredictResponse{
		Predictions: []Prediction{{SLA: 0.01, MeetRatio: 0.5, Cached: true}},
		CodedRead: &CodedReadBlock{Spec: CodedReadSpec{N: 6, K: 4, Hedge: true, HedgeDelaySeconds: 1e-7},
			Predictions: []Prediction{}, Saturated: true},
		Write:          &WriteBlock{Spec: WriteSpec{N: 3, W: 2}},
		Tenant:         &TenantStats{Class: "gold<&>", Rate: 1e21, ShareOfTotal: -1},
		TotalRate:      800,
		CalibrationAge: -1,
	}
	checkEncoding(t, full)
	checkEncoding(t, &PredictResponse{})
	for _, f := range edgeFloats {
		checkEncoding(t, &PredictResponse{TotalRate: f, CalibrationAge: -f})
		checkEncoding(t, &PredictResponse{CodedRead: &CodedReadBlock{Spec: CodedReadSpec{HedgeDelaySeconds: f}}})
	}
	for _, s := range edgeStrings {
		checkEncoding(t, &PredictResponse{Tenant: &TenantStats{Class: s}})
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		checkEncoding(t, &PredictResponse{TotalRate: bad})
		checkEncoding(t, &PredictResponse{Predictions: []Prediction{{MeetRatio: bad}}})
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		checkEncoding(t, randomResponse(rng, uint8(rng.Intn(256)), [3]float64{}, ""))
	}
}

// fillAll sets every field reachable from v — through pointers, slices and
// nested structs — to a distinct non-zero value, so no omitempty rule hides
// a field from the comparison.
func fillAll(v reflect.Value, n *int) {
	*n++
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillAll(v.Field(i), n)
		}
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fillAll(v.Elem(), n)
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		for i := 0; i < v.Len(); i++ {
			fillAll(v.Index(i), n)
		}
	case reflect.Float64:
		v.SetFloat(float64(*n) + 0.25)
	case reflect.Int:
		v.SetInt(int64(*n))
	case reflect.Bool:
		v.SetBool(true)
	case reflect.String:
		v.SetString(fmt.Sprintf("s%d", *n))
	default:
		panic(fmt.Sprintf("fillAll: add a case for %s", v.Type()))
	}
}

// leaves records the path of every non-zero scalar field reachable from v.
func leaves(v reflect.Value, path string, seen map[string]bool) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			leaves(v.Field(i), path+"."+v.Type().Field(i).Name, seen)
		}
	case reflect.Pointer:
		if !v.IsNil() {
			leaves(v.Elem(), path, seen)
		}
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			leaves(v.Index(i), path+"[]", seen)
		}
	default:
		if !v.IsZero() {
			seen[path] = true
		}
	}
}

// TestPredictResponseEncodingCoversEveryField ties the append encoder and
// the random generator to PredictResponse's own definition: a response
// with every field set must encode like encoding/json, so a field added to
// the type and not to the encoder fails here, and the generator must set
// every field to a non-zero value at least once.
func TestPredictResponseEncodingCoversEveryField(t *testing.T) {
	var full PredictResponse
	n := 0
	fillAll(reflect.ValueOf(&full).Elem(), &n)
	checkEncoding(t, &full)

	want := map[string]bool{}
	leaves(reflect.ValueOf(full), "", want)
	got := map[string]bool{}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 2000; i++ {
		leaves(reflect.ValueOf(*randomResponse(rng, uint8(rng.Intn(256)), [3]float64{}, "gold")), "", got)
	}
	for path := range want {
		if !got[path] {
			t.Errorf("randomResponse never sets %s", path)
		}
	}
}

// FuzzPredictResponseEncoding drives the same equivalence from fuzzed
// presence bits, floats, tenant class and generator seed.
func FuzzPredictResponseEncoding(f *testing.F) {
	f.Add(uint8(0), 0.0, 0.0, 0.0, "", int64(1))
	f.Add(uint8(0xff), 1e-7, 1e21, -1.0, "gold", int64(2))
	f.Add(uint8(0x1e), 1e-6, 5e-324, math.MaxFloat64, "<\u2028\xff>", int64(3))
	f.Add(uint8(0x02), 0.05, 0.9, 800.0, "bronze", int64(4))
	f.Fuzz(func(t *testing.T, shape uint8, x, y, z float64, class string, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		checkEncoding(t, randomResponse(rng, shape, [3]float64{x, y, z}, class))
	})
}

// TestPredictServedCompact checks a served /predict answer with every
// block: the body is encoding/json's compact encoding of what it decodes
// to, and the total rate and tenant share come from the same snapshot that
// /metrics reports.
func TestPredictServedCompact(t *testing.T) {
	s, ts := newTestServer(t, testConfig())
	e := s.Engine()
	if err := e.Ingest(classBatch(e, "gold", []int{0, 1, 2, 3}, 60, 15)); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/predict?sla=0.01,0.05&codedN=3&codedK=2&codedHedge=1&codedDelay=0.002&writeN=3&writeW=2&tenant=gold")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "application/json" {
		t.Fatalf("status %d, content type %q: %s", resp.StatusCode, resp.Header.Get("Content-Type"), body)
	}
	var pr PredictResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	if pr.CodedRead == nil || pr.Write == nil || pr.Tenant == nil || len(pr.Predictions) != 2 {
		t.Fatalf("missing block in %s", body)
	}
	want, err := json.Marshal(&pr)
	if err != nil {
		t.Fatal(err)
	}
	if want = append(want, '\n'); !bytes.Equal(body, want) {
		t.Errorf("served body is not encoding/json's compact form:\n got %s\nwant %s", body, want)
	}
	st := e.Stats()
	if pr.TotalRate != st.TotalRate || pr.TotalRate <= 0 {
		t.Errorf("totalRate %v, /metrics total rate %v", pr.TotalRate, st.TotalRate)
	}
	if pr.Tenant.ShareOfTotal != pr.Tenant.Rate/pr.TotalRate {
		t.Errorf("tenant share %v, want %v / %v", pr.Tenant.ShareOfTotal, pr.Tenant.Rate, pr.TotalRate)
	}
}

// FuzzPartialResponseEncoding pins the shard partial answer's append
// encoder byte for byte against encoding/json (json.Marshal plus the
// newline Encode writes), over fuzzed sums, rate, coverage, saturation and
// generation.
func FuzzPartialResponseEncoding(f *testing.F) {
	f.Add(true, uint8(0), 0.0, 0.0, 0.0, 0, false, uint64(0))
	f.Add(false, uint8(0), 0.0, 0.0, 0.0, 0, false, uint64(0))
	f.Add(false, uint8(3), 5e-324, 1e-7, 1e21, 3, true, uint64(1))
	f.Add(false, uint8(2), 12.5, math.NaN(), 1.0, -1, false, uint64(math.MaxUint64))
	for _, x := range edgeFloats {
		f.Add(false, uint8(3), x, -x, x, 7, false, uint64(9))
	}
	f.Fuzz(func(t *testing.T, nilSums bool, n uint8, x, y, rate float64, covered int, saturated bool, gen uint64) {
		r := &PartialResponse{Rate: rate, Covered: covered, Saturated: saturated, Generation: gen}
		if !nilSums {
			r.WeightedSums = make([]float64, n%4)
			for i := range r.WeightedSums {
				r.WeightedSums[i] = [...]float64{x, y}[i%2]
			}
		}
		want, wantErr := json.Marshal(r)
		got, err := appendPartialResponse(nil, r)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("append encoder error %v, encoding/json error %v for %+v", err, wantErr, r)
		}
		if wantErr != nil {
			return
		}
		if want = append(want, '\n'); !bytes.Equal(got, want) {
			t.Fatalf("append encoder diverges from encoding/json:\n got %s\nwant %s", got, want)
		}
	})
}

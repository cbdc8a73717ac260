package ingest

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// FuzzNDJSONScannerEquivalence pins the hand-rolled line scanner against
// the stdlib-only decode path: identical accepted observations (deep
// equality, nil-vs-empty slices included), identical accepted counts, and
// identical error text for every input. Both paths hand out capacity-
// clipped arrays, and an absent array decodes nil while `[]` decodes empty
// and non-nil (checked against the line's raw keys).
func FuzzNDJSONScannerEquivalence(f *testing.F) {
	f.Add([]byte(`{"device":0,"interval":1,"requests":5}` + "\n"))
	f.Add([]byte(`{"device":1,"interval":0.5,"class":"gold","writes":3,"writeChunks":7}` + "\n"))
	f.Add([]byte(`{"device":2,"interval":2,"latencies":[0.1,0.2],"diskDataLat":[]}` + "\n"))
	f.Add([]byte(`{"device":0,"interval":1e-3,"diskBusy":0.25,"diskOps":9}` + "\n"))
	f.Add([]byte(`{"device":0,"interval":1.7976931348623157e308}` + "\n"))
	f.Add([]byte(`{"device":0,"interval":0.1234567890123456789}` + "\n"))
	f.Add([]byte(`{"Device":0,"Interval":1}` + "\n")) // case-insensitive stdlib match
	f.Add([]byte(`{"device":0,"interval":1,"device":1}`))
	f.Add([]byte(`{"device":0,"interval":1,"class":"aAb"}`))
	f.Add([]byte(`{"device":-1,"interval":1}` + "\n{not json}"))
	f.Add([]byte(` { "device" : 0 , "interval" : 2.5 } `))
	f.Add([]byte(`{"device":0,"interval":1} trailing`))
	f.Add([]byte(`{"device":0,"interval":01}`))
	f.Add([]byte(`{"device":0,"interval":1,"requests":1.5}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`null`))
	// The literal key matcher: a key that is a prefix of another, keys out
	// of encoder order, a duplicate right after a guessed match, a line cut
	// inside a key literal, case variants and an escaped key.
	f.Add([]byte(`{"device":0,"interval":1,"writes":2,"writeChunks":3}` + "\n"))
	f.Add([]byte(`{"device":0,"interval":1,"writeChunks":3,"writes":2}` + "\n"))
	f.Add([]byte(`{"device":0,"interval":1,"write":2}` + "\n"))
	f.Add([]byte(`{"device":0,"interval":1,"class":"gold","classes":"x"}` + "\n"))
	f.Add([]byte(`{"interval":1,"requests":4,"device":2,"class":"gold"}` + "\n"))
	f.Add([]byte(`{"device":0,"class":"gold","class":"bronze","interval":1}` + "\n"))
	f.Add([]byte(`{"device":0,"interval":1,"requests":4,"requests":5}` + "\n"))
	f.Add([]byte(`{"device":0,"interval":1,"requ`))
	f.Add([]byte(`{"device":0,"interval":1,"requests"`))
	f.Add([]byte(`{"Device":0,"interval":1,"REQUESTS":3,"diskbusy":0.5}` + "\n"))
	f.Add([]byte(`{"dev\u0069ce":1,"interval":1}` + "\n"))
	f.Add([]byte(`{"device":0,"interval\"":1}` + "\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		const devices = 4
		run := func(fast bool) (int, []Observation, string) {
			var got []Observation
			n, err := decodeNDJSON(bytes.NewReader(data), devices, 7, func(chunk []Observation) error {
				for _, o := range chunk {
					for _, s := range [][]float64{o.Latencies, o.DiskIndexLat, o.DiskMetaLat, o.DiskDataLat} {
						if len(s) != cap(s) {
							t.Fatalf("fast=%v: decoded array len %d cap %d", fast, len(s), cap(s))
						}
					}
				}
				// The chunk's arrays live in the decoder's arena, reused for
				// the next chunk: keep copies.
				got, _ = AppendOwned(got, nil, chunk)
				return nil
			}, fast)
			msg := ""
			if err != nil {
				msg = err.Error()
			}
			return n, got, msg
		}
		nF, gotF, errF := run(true)
		nS, gotS, errS := run(false)
		if nF != nS || errF != errS {
			t.Fatalf("scanner diverges from stdlib: (%d,%q) vs (%d,%q)", nF, errF, nS, errS)
		}
		if !reflect.DeepEqual(gotF, gotS) {
			t.Fatalf("scanner observations diverge:\n fast: %+v\nstdlib: %+v", gotF, gotS)
		}
		checkArrayPresence(t, data, gotF)
	})
}

// arrayValues captures the raw JSON value each sample-array key took on a
// line, under the stdlib's own key matching (case folding, last duplicate
// wins): nil when the key is absent.
type arrayValues struct {
	Latencies    json.RawMessage `json:"latencies"`
	DiskIndexLat json.RawMessage `json:"diskIndexLat"`
	DiskMetaLat  json.RawMessage `json:"diskMetaLat"`
	DiskDataLat  json.RawMessage `json:"diskDataLat"`
}

// checkArrayPresence asserts that each accepted observation's sample arrays
// are nil exactly when the line left the key out (or set it to null): an
// absent array is nil and `[]` is empty but non-nil. Accepted observations
// are the stream's first non-blank lines, in order.
func checkArrayPresence(t *testing.T, data []byte, got []Observation) {
	t.Helper()
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(nil, maxLineBytes)
	for i := 0; i < len(got); {
		if !sc.Scan() {
			t.Fatalf("%d observations accepted from fewer lines", len(got))
		}
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		var v arrayValues
		if err := json.Unmarshal(raw, &v); err != nil {
			t.Fatalf("accepted line %q does not decode: %v", raw, err)
		}
		o := got[i]
		for _, f := range []struct {
			name string
			raw  json.RawMessage
			arr  []float64
		}{{"latencies", v.Latencies, o.Latencies}, {"diskIndexLat", v.DiskIndexLat, o.DiskIndexLat},
			{"diskMetaLat", v.DiskMetaLat, o.DiskMetaLat}, {"diskDataLat", v.DiskDataLat, o.DiskDataLat}} {
			absent := f.raw == nil || string(f.raw) == "null"
			if absent != (f.arr == nil) {
				t.Fatalf("line %q: %s is %q but decoded %#v", raw, f.name, f.raw, f.arr)
			}
		}
		i++
	}
}

// TestScannerHandlesWriteAndClassFields spot-checks the new wire fields
// through the public decoder.
func TestScannerHandlesWriteAndClassFields(t *testing.T) {
	in := `{"device":1,"class":"gold","interval":2,"requests":10,"writes":4,"writeChunks":9}` + "\n"
	var got []Observation
	n, err := DecodeNDJSON(strings.NewReader(in), 4, 0, func(chunk []Observation) error {
		got = append(got, chunk...)
		return nil
	})
	if err != nil || n != 1 {
		t.Fatalf("decode: n=%d err=%v", n, err)
	}
	o := got[0]
	if o.Class != "gold" || o.Writes != 4 || o.WriteChunks != 9 || o.Device != 1 {
		t.Fatalf("decoded %+v", o)
	}
	m := o.Metrics(1)
	if m.WriteRate != 2 || m.WriteChunks != 2.25 {
		t.Fatalf("write metrics: rate=%v chunks=%v", m.WriteRate, m.WriteChunks)
	}
}

// TestDecodeNDJSONAllocs bounds the steady-state allocation cost of the
// fast path: amortized over a large batch of plain observations, decoding
// must stay under a tenth of an allocation per line (the stdlib path costs
// over a dozen). The payload is built once; each run re-reads it.
func TestDecodeNDJSONAllocs(t *testing.T) {
	const lines = 1000
	var buf bytes.Buffer
	for i := 0; i < lines; i++ {
		buf.WriteString(`{"device":3,"interval":1.5,"requests":120,"dataReads":140,` +
			`"indexHits":80,"indexMisses":40,"metaHits":90,"metaMisses":30,` +
			`"dataHits":70,"dataMisses":50,"diskBusy":0.42,"diskOps":200,` +
			`"writes":12,"writeChunks":25}` + "\n")
	}
	payload := buf.Bytes()
	rd := bytes.NewReader(payload)
	avg := testing.AllocsPerRun(10, func() {
		rd.Reset(payload)
		n, err := DecodeNDJSON(rd, 4, 0, func([]Observation) error { return nil })
		if err != nil || n != lines {
			t.Fatalf("decode: n=%d err=%v", n, err)
		}
	})
	if perLine := avg / lines; perLine > 0.1 {
		t.Errorf("fast NDJSON decode allocates %.3f allocs/line (%.0f per batch), want <= 0.1", perLine, avg)
	}
}

// wireObservation draws a valid observation covering every shape the
// encoder writes: labelled and unlabelled, zero writes (keys omitted), nil
// and empty sample arrays (both omitted), µs-rounded samples, full
// 16–17-digit floats, values the encoder writes in exponent form, and
// counters across the whole uint64 range. Class labels are plain ASCII: the
// encoder escapes '<', '>', '&', quotes and non-ASCII bytes, and an escaped
// label is the stdlib's by design.
func wireObservation(rng *rand.Rand, devices int) Observation {
	float := func() float64 {
		switch rng.Intn(6) {
		case 0:
			return math.Round(rng.ExpFloat64()*0.01*1e6) / 1e6 // µs-rounded
		case 1:
			return rng.Float64() * 100 // full precision
		case 2:
			return []float64{0.7685000000000001, 0.30000000000000004, 9007199254740993, 123456789012345678}[rng.Intn(4)]
		case 3:
			return []float64{1e-07, 3.5e-10, 1e21, 2.5e22, 5e-324, math.MaxFloat64}[rng.Intn(6)]
		case 4:
			return float64(rng.Intn(100))
		default:
			return math.Round(rng.Float64()*1e3) / 1e3
		}
	}
	counter := func() uint64 {
		switch rng.Intn(4) {
		case 0:
			return 0
		case 1:
			return rng.Uint64()
		default:
			return uint64(rng.Intn(100000))
		}
	}
	samples := func() []float64 {
		switch rng.Intn(4) {
		case 0:
			return nil
		case 1:
			return []float64{}
		}
		out := make([]float64, 1+rng.Intn(10))
		for i := range out {
			out[i] = float()
		}
		return out
	}
	o := Observation{
		Device: rng.Intn(devices), Interval: float() + 1e-3,
		Requests: counter(), DataReads: counter(),
		IndexHits: counter(), IndexMisses: counter(), MetaHits: counter(), MetaMisses: counter(),
		DataHits: counter(), DataMisses: counter(), DiskBusy: float(), DiskOps: counter(),
		Latencies: samples(), DiskIndexLat: samples(), DiskMetaLat: samples(), DiskDataLat: samples(),
	}
	if rng.Intn(2) == 0 {
		o.Class = []string{"gold", "bronze", "tenant-7", "a.b_c"}[rng.Intn(4)]
	}
	if rng.Intn(2) == 0 {
		o.Writes, o.WriteChunks = 1+uint64(rng.Intn(1000)), uint64(rng.Intn(3000))
	}
	return o
}

// TestScannerTakesEveryEncodedLine pins the fast path's coverage: every
// line EncodeNDJSON writes must be taken by the scanner itself, without the
// encoding/json fallback, and decode to exactly what a strict json.Decoder
// produces. The equivalence fuzz target cannot see this: a scanner that
// quietly falls back stays correct and only loses its speed.
func TestScannerTakesEveryEncodedLine(t *testing.T) {
	const devices = 64
	rng := rand.New(rand.NewSource(5))
	batch := make([]Observation, 2000)
	for i := range batch {
		batch[i] = wireObservation(rng, devices)
	}
	batch = append(batch, churnBatch(rng, devices)...)
	var buf bytes.Buffer
	if err := EncodeNDJSON(&buf, batch); err != nil {
		t.Fatal(err)
	}
	st := &decodeState{classes: make(map[string]string)}
	for i, line := range bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n")) {
		var got Observation
		if !scanObservation(line, &got, st) {
			t.Fatalf("line %d falls back to encoding/json: %s", i+1, line)
		}
		var want Observation
		dec := json.NewDecoder(bytes.NewReader(line))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&want); err != nil {
			t.Fatalf("line %d: %v", i+1, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("line %d: scanner decoded\n %+v\nencoding/json\n %+v\nfrom %s", i+1, got, want, line)
		}
	}
}

package ingest

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"
)

// churnBody is one NDJSON body shaped like a churning monitoring feed: 64
// class-labelled devices, each reporting one 10 s interval with 8 raw disk
// service samples per operation class at microsecond resolution.
func churnBody(t testing.TB, rng *rand.Rand) []byte {
	t.Helper()
	const devices, samples = 64, 8
	draw := func(mean float64) []float64 {
		out := make([]float64, samples)
		for i := range out {
			out[i] = math.Round(rng.ExpFloat64()*mean*1e6) / 1e6
		}
		return out
	}
	batch := make([]Observation, devices)
	for d := range batch {
		reqs := uint64(400 + rng.Intn(200))
		batch[d] = Observation{
			Device: d, Class: []string{"gold", "bronze"}[rng.Intn(2)], Interval: 10,
			Requests: reqs, DataReads: reqs + reqs/5,
			IndexHits: reqs / 2, IndexMisses: reqs / 2, MetaHits: reqs / 3, MetaMisses: reqs - reqs/3,
			DataHits: reqs / 4, DataMisses: reqs - reqs/4, DiskBusy: 0.008 * float64(reqs), DiskOps: reqs,
			Writes: reqs / 4, WriteChunks: reqs / 2,
			DiskIndexLat: draw(9e-3), DiskMetaLat: draw(6e-3), DiskDataLat: draw(8e-3),
		}
	}
	var buf bytes.Buffer
	if err := EncodeNDJSON(&buf, batch); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// decodeAllocs is the steady-state allocation count of one decode of body.
func decodeAllocs(t *testing.T, body []byte, devices, want int) float64 {
	t.Helper()
	rd := bytes.NewReader(body)
	return testing.AllocsPerRun(50, func() {
		rd.Reset(body)
		n, err := DecodeNDJSON(rd, devices, 0, func([]Observation) error { return nil })
		if err != nil || n != want {
			t.Fatalf("decode: n=%d err=%v", n, err)
		}
	})
}

// TestDecodeNDJSONChurnAllocs pins the per-request allocation count of a
// labelled batch carrying raw disk samples: the scanner buffer, the chunk,
// the sample arena and the class labels all come from the pooled decode
// state, so nothing is allocated per observation or per sample.
func TestDecodeNDJSONChurnAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector; alloc counts are not meaningful")
	}
	body := churnBody(t, rand.New(rand.NewSource(1)))
	if allocs := decodeAllocs(t, body, 64, 64); allocs > 1 {
		t.Errorf("churn-shaped decode allocates %v objects per 64-observation batch, want ≤ 1", allocs)
	}
}

// TestDecodeNDJSONBatchAllocs pins BenchmarkDecodeNDJSON's batch: 512
// observations over two chunks, a third of them with latency samples.
func TestDecodeNDJSONBatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector; alloc counts are not meaningful")
	}
	batch := randomBatches(11, 16, 1, 512)[0]
	var buf bytes.Buffer
	if err := EncodeNDJSON(&buf, batch); err != nil {
		t.Fatal(err)
	}
	if allocs := decodeAllocs(t, buf.Bytes(), 16, len(batch)); allocs > 1 {
		t.Errorf("decoding 512 observations allocates %v objects, want ≤ 1", allocs)
	}
}

// TestDecodeArrayShapes pins the decoded shape of the sample arrays on both
// the scanner and the stdlib path: an absent array is nil, `[]` is empty and
// non-nil, and every array is capacity-clipped, so appending to one can
// never overwrite its neighbour in the arena.
func TestDecodeArrayShapes(t *testing.T) {
	body := `{"device":0,"interval":1,"latencies":[0.1,0.2],"diskIndexLat":[],"diskDataLat":[0.003]}` + "\n" +
		`{"device":1,"interval":1,"diskMetaLat":[0.004,0.005],"diskDataLat":[]}` + "\n"
	for _, fast := range []bool{true, false} {
		var got []Observation
		_, err := decodeNDJSON(strings.NewReader(body), 2, 0, func(chunk []Observation) error {
			for _, o := range chunk {
				for _, s := range [][]float64{o.Latencies, o.DiskIndexLat, o.DiskMetaLat, o.DiskDataLat} {
					if len(s) != cap(s) {
						t.Errorf("fast=%v: decoded array len %d cap %d", fast, len(s), cap(s))
					}
				}
			}
			got, _ = AppendOwned(got, nil, chunk)
			return nil
		}, fast)
		if err != nil || len(got) != 2 {
			t.Fatalf("fast=%v: decoded %d, err %v", fast, len(got), err)
		}
		a, b := got[0], got[1]
		if a.DiskMetaLat != nil || b.Latencies != nil || b.DiskIndexLat != nil {
			t.Errorf("fast=%v: absent arrays decoded non-nil: %+v %+v", fast, a, b)
		}
		if a.DiskIndexLat == nil || len(a.DiskIndexLat) != 0 || b.DiskDataLat == nil || len(b.DiskDataLat) != 0 {
			t.Errorf("fast=%v: `[]` must decode empty and non-nil: %+v %+v", fast, a, b)
		}
		if fmt.Sprint(a.Latencies, a.DiskDataLat, b.DiskMetaLat) != "[0.1 0.2] [0.003] [0.004 0.005]" {
			t.Errorf("fast=%v: decoded %v %v %v", fast, a.Latencies, a.DiskDataLat, b.DiskMetaLat)
		}
		// Growing one decoded array must leave the next one untouched.
		grown := append(got[1].DiskMetaLat, 9)
		if got[1].DiskDataLat == nil || len(grown) != 3 {
			t.Errorf("fast=%v: append to a decoded array disturbed its neighbour", fast)
		}
	}
}

// TestAppendOwnedDetaches checks that AppendOwned's copies share no memory
// with the decoder: a retained chunk stays intact after the decoder reuses
// its arena for the next chunk and the next request.
func TestAppendOwnedDetaches(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	first, second := churnBody(t, rng), churnBody(t, rng)
	var kept, want []Observation
	if _, err := DecodeNDJSON(bytes.NewReader(first), 64, 10, func(chunk []Observation) error {
		kept, _ = AppendOwned(kept, nil, chunk)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := decodeNDJSON(bytes.NewReader(first), 64, 0, func(chunk []Observation) error {
		want, _ = AppendOwned(want, nil, chunk)
		return nil
	}, false); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeNDJSON(bytes.NewReader(second), 64, 0, func([]Observation) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(kept) != fmt.Sprint(want) {
		t.Fatal("observations kept through AppendOwned changed after the decoder reused its arena")
	}
}

// slideWindow is a reference sliding window over a plain slice: append,
// then drop the oldest entries by re-slicing.
type slideWindow struct {
	entries []windowEntry
	span    float64
}

func (w *slideWindow) add(e windowEntry, window float64, maxEntries int) {
	w.entries = append(w.entries, e)
	w.span += e.interval
	for len(w.entries) > 1 &&
		(w.span-w.entries[0].interval >= window || len(w.entries) > maxEntries) {
		w.span -= w.entries[0].interval
		w.entries = w.entries[1:]
	}
}

// TestWindowRingMatchesSlide drives the ring and the reference window with
// the same random intervals, window spans and entry bounds: the retained
// entries, their order and the span float agree to the last bit after every
// add, and so do the derived metrics.
func TestWindowRingMatchesSlide(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		window := 1 + 60*rng.Float64()
		maxEntries := 1 + rng.Intn(20)
		var ring deviceWindow
		var ref slideWindow
		for i := 0; i < 300; i++ {
			o := randomObservation(rng, 1)
			o.Interval = []float64{0.1, 0.7, 3, 10, 10 * rng.Float64()}[rng.Intn(5)]
			var e windowEntry
			e.fill(&o)
			ring.add(&e, window, maxEntries)
			ref.add(e, window, maxEntries)
			if ring.n != len(ref.entries) || math.Float64bits(ring.span) != math.Float64bits(ref.span) {
				t.Fatalf("trial %d add %d: ring holds %d entries spanning %v, reference %d spanning %v",
					trial, i, ring.n, ring.span, len(ref.entries), ref.span)
			}
			for j := range ref.entries {
				if *ring.at(j) != ref.entries[j] {
					t.Fatalf("trial %d add %d: entry %d differs", trial, i, j)
				}
			}
		}
		got, ok := ring.metrics(2)
		want, wantOK := (&deviceWindow{ring: ref.entries, n: len(ref.entries), span: ref.span}).metrics(2)
		if got != want || ok != wantOK {
			t.Fatalf("trial %d: ring metrics %+v, reference %+v", trial, got, want)
		}
	}
}

// TestWindowAddAllocs pins a steady-state window add at zero allocations:
// once the ring has grown to the window's working size, adding evicts in
// place.
func TestWindowAddAllocs(t *testing.T) {
	var w deviceWindow
	e := windowEntry{interval: 10, requests: 500}
	for i := 0; i < 16; i++ {
		w.add(&e, 60, 128)
	}
	if allocs := testing.AllocsPerRun(1000, func() { w.add(&e, 60, 128) }); allocs != 0 {
		t.Errorf("steady-state window add allocates %v objects, want 0", allocs)
	}
}

// TestTableIngestAllocs pins a steady-state Table.Ingest of plain
// observations (no latency histograms to build) at zero allocations: the
// per-stripe grouping scratch is pooled and the windows are rings.
func TestTableIngestAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector; alloc counts are not meaningful")
	}
	tb, err := NewTable(Config{Devices: 64, Stripes: 4, Window: 60, MaxEntries: 128, Procs: 1})
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]Observation, 64)
	for d := range batch {
		batch[d] = Observation{Device: d, Interval: 10, Requests: 500, DiskBusy: 4, DiskOps: 500}
	}
	now := time.Now()
	for i := 0; i < 16; i++ {
		if err := tb.Ingest(batch, now); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { tb.Ingest(batch, now) }); allocs != 0 { //nolint:errcheck // accepted above
		t.Errorf("steady-state 64-observation ingest allocates %v objects, want 0", allocs)
	}
}

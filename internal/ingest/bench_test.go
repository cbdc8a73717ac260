package ingest

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// BenchmarkTableIngest measures concurrent ingest throughput per stripe
// count. Stripes=1 is the single-lock baseline the striped layouts are
// compared against (the ISSUE's ≥5× bar at 8+ cores); each parallel worker
// ingests batches for a disjoint device subset, the favourable-but-realistic
// case of one monitoring agent per device group.
func BenchmarkTableIngest(b *testing.B) {
	const devices = 64
	const batchSize = 32
	for _, stripes := range []int{1, 8, 0} {
		name := fmt.Sprintf("stripes=%d", stripes)
		if stripes == 0 {
			name = "stripes=auto"
		}
		b.Run(name, func(b *testing.B) {
			tb, err := NewTable(Config{Devices: devices, Stripes: stripes,
				Window: 60, MaxEntries: 128, Procs: 1})
			if err != nil {
				b.Fatal(err)
			}
			now := time.Now()
			var worker atomic.Int64
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				w := int(worker.Add(1)) - 1
				batch := make([]Observation, batchSize)
				for i := range batch {
					// Workers write disjoint devices so striping can pay off.
					batch[i] = Observation{
						Device:   (w*batchSize + i) % devices,
						Interval: 1, Requests: 100, DataReads: 120,
						IndexHits: 900, IndexMisses: 100,
						MetaHits: 900, MetaMisses: 100,
						DataHits: 900, DataMisses: 100,
						DiskBusy: 0.5, DiskOps: 100,
					}
				}
				for pb.Next() {
					if err := tb.Ingest(batch, now); err != nil {
						b.Error(err)
						return
					}
				}
			})
			b.StopTimer()
			obs := uint64(b.N) * batchSize
			b.ReportMetric(float64(obs)/b.Elapsed().Seconds(), "obs/s")
		})
	}
}

// BenchmarkDecodeNDJSON measures the streaming decoder alone: pooled
// chunks, strict per-line decoding, validation.
func BenchmarkDecodeNDJSON(b *testing.B) {
	batch := randomBatches(11, 16, 1, 512)[0]
	var buf strings.Builder
	if err := EncodeNDJSON(&buf, batch); err != nil {
		b.Fatal(err)
	}
	body := buf.String()
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n, err := DecodeNDJSON(strings.NewReader(body), 16, 0, func([]Observation) error { return nil })
		if err != nil || n != len(batch) {
			b.Fatalf("n=%d err=%v", n, err)
		}
	}
}

// churnBatch is one batch shaped like the ingest-churn benchmark's traffic:
// every device reports a 10 s interval under a gold or bronze label, with
// jittered counters, a full-precision disk busy time and eight µs-rounded
// raw disk samples per operation class.
func churnBatch(rng *rand.Rand, devices int) []Observation {
	sample := func(mean float64) float64 {
		return math.Round(rng.ExpFloat64()*mean*1e6) / 1e6
	}
	samples := func(mean float64) []float64 {
		out := make([]float64, 8)
		for i := range out {
			out[i] = sample(mean)
		}
		return out
	}
	batch := make([]Observation, devices)
	for d := range batch {
		reqs := uint64(math.Round(200 * (0.8 + 0.4*rng.Float64()) * 10))
		o := Observation{Device: d, Class: "gold", Interval: 10, Requests: reqs, DataReads: reqs + reqs/5}
		if rng.Intn(2) == 1 {
			o.Class = "bronze"
		}
		o.IndexMisses = reqs / 10
		o.IndexHits = reqs - o.IndexMisses
		o.MetaMisses = reqs / 7
		o.MetaHits = reqs - o.MetaMisses
		o.DataMisses = o.DataReads / 3
		o.DataHits = o.DataReads - o.DataMisses
		o.DiskOps = o.IndexMisses + o.MetaMisses + o.DataMisses
		o.DiskBusy = 0.0123456789 * float64(o.DiskOps) * (0.9 + 0.2*rng.Float64())
		o.Writes = reqs / 4
		o.WriteChunks = 2 * o.Writes
		o.DiskIndexLat, o.DiskMetaLat, o.DiskDataLat = samples(0.004), samples(0.006), samples(0.012)
		batch[d] = o
	}
	return batch
}

// BenchmarkDecodeNDJSONChurn measures the streaming decoder on churn-shaped
// bodies: 64 labelled observations per body, each carrying 24 raw disk
// samples, so the float path and the class labels dominate, as they do in
// agent traffic with calibration samples.
func BenchmarkDecodeNDJSONChurn(b *testing.B) {
	const devices = 64
	rng := rand.New(rand.NewSource(1))
	bodies := make([]string, 16)
	size := 0
	for i := range bodies {
		var buf strings.Builder
		if err := EncodeNDJSON(&buf, churnBatch(rng, devices)); err != nil {
			b.Fatal(err)
		}
		bodies[i] = buf.String()
		size += buf.Len()
	}
	b.SetBytes(int64(size / len(bodies)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n, err := DecodeNDJSON(strings.NewReader(bodies[i%len(bodies)]), devices, 0,
			func([]Observation) error { return nil })
		if err != nil || n != devices {
			b.Fatalf("n=%d err=%v", n, err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*devices), "ns/obs")
}

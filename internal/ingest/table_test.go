package ingest

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"
)

func testTableConfig(devices, stripes int) Config {
	return Config{Devices: devices, Stripes: stripes, Window: 60, MaxEntries: 32, Procs: 2}
}

// randomObservation builds a valid observation for a random device.
func randomObservation(rng *rand.Rand, devices int) Observation {
	o := Observation{
		Device:      rng.Intn(devices),
		Interval:    0.5 + rng.Float64(),
		Requests:    uint64(1 + rng.Intn(500)),
		DataReads:   uint64(1 + rng.Intn(700)),
		IndexHits:   uint64(rng.Intn(1000)),
		IndexMisses: uint64(rng.Intn(100)),
		MetaHits:    uint64(rng.Intn(1000)),
		MetaMisses:  uint64(rng.Intn(100)),
		DataHits:    uint64(rng.Intn(1000)),
		DataMisses:  uint64(rng.Intn(100)),
		DiskBusy:    rng.Float64() * 0.5,
		DiskOps:     uint64(1 + rng.Intn(300)),
	}
	if rng.Intn(3) == 0 {
		for i := 0; i < 4; i++ {
			o.Latencies = append(o.Latencies, rng.Float64()*0.2)
		}
	}
	return o
}

func randomBatches(seed int64, devices, batches, batchSize int) [][]Observation {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]Observation, batches)
	for i := range out {
		batch := make([]Observation, batchSize)
		for j := range batch {
			batch[j] = randomObservation(rng, devices)
		}
		out[i] = batch
	}
	return out
}

// quantizedBatches is randomBatches restricted to dyadic floats (exact
// binary fractions), so aggregate sums are order-insensitive bit for bit.
func quantizedBatches(seed int64, devices, batches, batchSize int) [][]Observation {
	out := randomBatches(seed, devices, batches, batchSize)
	rng := rand.New(rand.NewSource(seed + 1))
	for _, b := range out {
		for j := range b {
			b[j].Interval = []float64{0.5, 1, 2}[rng.Intn(3)]
			b[j].DiskBusy = float64(rng.Intn(64)) / 64
			for k := range b[j].Latencies {
				b[j].Latencies[k] = float64(1+rng.Intn(128)) / 1024
			}
		}
	}
	return out
}

// TestStripedEquivalence pins the tentpole invariant: for any stripe count,
// a quiesced table is state-for-state identical to the single-lock layout —
// same snapshots, same per-device rates, same counters, same merged latency
// histogram.
func TestStripedEquivalence(t *testing.T) {
	const devices = 13 // intentionally not a multiple of any stripe count
	batches := randomBatches(42, devices, 50, 16)
	now := time.Unix(1700000000, 0)

	single, err := NewTable(testTableConfig(devices, 1))
	if err != nil {
		t.Fatal(err)
	}
	for _, stripes := range []int{2, 3, 4, 8, 13, 64} {
		striped, err := NewTable(testTableConfig(devices, stripes))
		if err != nil {
			t.Fatal(err)
		}
		if stripes <= devices && striped.Stripes() != stripes {
			t.Fatalf("stripes = %d, want %d", striped.Stripes(), stripes)
		}
		if stripes > devices && striped.Stripes() != devices {
			t.Fatalf("stripes = %d, want clamp to %d devices", striped.Stripes(), devices)
		}
		for i, b := range batches {
			ts := now.Add(time.Duration(i) * time.Second)
			if stripes == 2 { // feed the reference once
				if err := single.Ingest(b, ts); err != nil {
					t.Fatal(err)
				}
			}
			if err := striped.Ingest(b, ts); err != nil {
				t.Fatal(err)
			}
		}
		if got, want := striped.Snapshot(), single.Snapshot(); !reflect.DeepEqual(got, want) {
			t.Errorf("stripes=%d: snapshot diverges from single-lock\n got %+v\nwant %+v", stripes, got, want)
		}
		gotR, gotW := striped.DeviceRates()
		wantR, wantW := single.DeviceRates()
		if !reflect.DeepEqual(gotR, wantR) || !reflect.DeepEqual(gotW, wantW) {
			t.Errorf("stripes=%d: device rates diverge\n got %v %v\nwant %v %v", stripes, gotR, gotW, wantR, wantW)
		}
		gi, gr := striped.Stats()
		wi, wr := single.Stats()
		if gi != wi || gr != wr {
			t.Errorf("stripes=%d: stats (%d,%d), want (%d,%d)", stripes, gi, gr, wi, wr)
		}
		devs := []int{0, 5, 12, 7}
		gms, gcov, err := striped.SnapshotDevices(devs)
		if err != nil {
			t.Fatal(err)
		}
		wms, wcov, err := single.SnapshotDevices(devs)
		if err != nil {
			t.Fatal(err)
		}
		if gcov != wcov || !reflect.DeepEqual(gms, wms) {
			t.Errorf("stripes=%d: device subset snapshot diverges", stripes)
		}
		gl, wl := striped.ObservedLatency(), single.ObservedLatency()
		if (gl == nil) != (wl == nil) {
			t.Fatalf("stripes=%d: latency histogram presence diverges", stripes)
		}
		if gl != nil {
			for _, q := range []float64{0.5, 0.95, 0.99} {
				if gl.Quantile(q) != wl.Quantile(q) {
					t.Errorf("stripes=%d: latency q%.0f %v != %v", stripes, q*100, gl.Quantile(q), wl.Quantile(q))
				}
			}
		}
		gt, _ := striped.LastIngest()
		wt, _ := single.LastIngest()
		if !gt.Equal(wt) {
			t.Errorf("stripes=%d: lastIngest %v != %v", stripes, gt, wt)
		}
	}
}

// TestTableRejectsInvalidBatchWhole pins the all-or-nothing contract: one
// invalid observation rejects the batch and leaves every stripe untouched.
func TestTableRejectsInvalidBatchWhole(t *testing.T) {
	tb, err := NewTable(testTableConfig(8, 4))
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	bad := []Observation{
		{Device: 0, Interval: 1, Requests: 10},
		{Device: 99, Interval: 1, Requests: 10}, // out of range
	}
	if err := tb.Ingest(bad, now); !errors.Is(err, ErrInvalid) {
		t.Fatalf("invalid batch: err = %v, want ErrInvalid", err)
	}
	if err := tb.Ingest(nil, now); !errors.Is(err, ErrInvalid) {
		t.Fatalf("empty batch: err = %v, want ErrInvalid", err)
	}
	if ingested, reporting := tb.Stats(); ingested != 0 || reporting != 0 {
		t.Fatalf("rejected batches left state: ingested=%d reporting=%d", ingested, reporting)
	}
	if rev := tb.Revision(); rev != 0 {
		t.Fatalf("rejected batches advanced revision to %d", rev)
	}
}

// TestTableWindowEviction checks the sliding window drops observations that
// fall outside the span or entry bound, per stripe.
func TestTableWindowEviction(t *testing.T) {
	cfg := Config{Devices: 4, Stripes: 2, Window: 10, MaxEntries: 3, Procs: 1}
	tb, err := NewTable(cfg)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	// 5 observations of 4s each on device 1: the 10s window keeps the last
	// three at most, and MaxEntries=3 also binds.
	for i := 0; i < 5; i++ {
		o := Observation{Device: 1, Interval: 4, Requests: uint64(100 * (i + 1))}
		if err := tb.Ingest([]Observation{o}, now); err != nil {
			t.Fatal(err)
		}
	}
	ms := tb.Snapshot()
	if len(ms) != 1 {
		t.Fatalf("reporting devices = %d, want 1", len(ms))
	}
	// Window keeps entries while span-minus-oldest < 10: two 4s entries
	// (span 8) survive; a third pushes span-oldest to 8 >= 10? No: 12-4=8 <
	// 10 keeps three, 16-4=12 >= 10 evicts. So the last three remain:
	// (300+400+500)/12.
	want := float64(300+400+500) / 12
	if got := ms[0].Rate; got != want {
		t.Fatalf("windowed rate = %v, want %v", got, want)
	}
}

// TestSnapshotDevicesRange checks the subset path rejects out-of-range ids.
func TestSnapshotDevicesRange(t *testing.T) {
	tb, err := NewTable(testTableConfig(4, 2))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := tb.SnapshotDevices([]int{0, 4}); !errors.Is(err, ErrInvalid) {
		t.Fatalf("out-of-range subset: err = %v, want ErrInvalid", err)
	}
}

// TestStripedContention is the -race pin of the tentpole: many goroutines
// ingesting overlapping device sets while snapshots, subset snapshots and
// stats run concurrently. The race detector checks the locking; afterwards
// the quiesced table must hold exactly the union of everything ingested,
// matching a single-lock table fed the same batches sequentially.
func TestStripedContention(t *testing.T) {
	const (
		devices   = 16
		workers   = 8
		perWorker = 40
		batchSize = 8
	)
	// No eviction (huge window and entry bound) so the final state is the
	// full union of every batch regardless of interleaving, and dyadic
	// float values (intervals and busy times that are exact binary
	// fractions) so summing them in any order gives bit-identical
	// aggregates.
	cfg := Config{Devices: devices, Window: 1 << 30, MaxEntries: 1 << 20, Procs: 2}
	cfg.Stripes = 8
	striped, err := NewTable(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Stripes = 1
	single, err := NewTable(cfg)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Unix(1700000000, 0)

	// Worker w ingests batches [w*perWorker, (w+1)*perWorker) concurrently
	// into the striped table.
	all := quantizedBatches(7, devices, workers*perWorker, batchSize)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Concurrent readers exercising every snapshot path during the storm.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				striped.Snapshot()
				striped.SnapshotDevices([]int{0, 3, 9, 15}) //nolint:errcheck
				striped.Stats()
				striped.DeviceRates()
				striped.ObservedLatency()
				striped.Revision()
			}
		}()
	}
	var werr sync.Map
	var iw sync.WaitGroup
	for w := 0; w < workers; w++ {
		iw.Add(1)
		go func(w int) {
			defer iw.Done()
			for i := 0; i < perWorker; i++ {
				b := all[w*perWorker+i]
				if err := striped.Ingest(b, now); err != nil {
					werr.Store(fmt.Sprintf("worker %d batch %d", w, i), err)
				}
			}
		}(w)
	}
	iw.Wait()
	close(stop)
	wg.Wait()
	werr.Range(func(k, v any) bool {
		t.Errorf("%s: %v", k, v)
		return true
	})

	// Sequential reference: same batches, same timestamp, single lock.
	// Nothing evicts and every aggregate is an order-insensitive exact sum,
	// so the two tables must agree bit for bit.
	for _, b := range all {
		if err := single.Ingest(b, now); err != nil {
			t.Fatal(err)
		}
	}
	gi, gr := striped.Stats()
	wi, wr := single.Stats()
	if gi != wi || gr != wr {
		t.Errorf("post-storm stats (%d,%d), want (%d,%d)", gi, gr, wi, wr)
	}
	if got := striped.Revision(); got != uint64(workers*perWorker) {
		t.Errorf("revision = %d, want %d", got, workers*perWorker)
	}
	gm, wm := striped.Snapshot(), single.Snapshot()
	if len(gm) != len(wm) {
		t.Fatalf("reporting devices %d != %d", len(gm), len(wm))
	}
	for d := range gm {
		if gm[d] != wm[d] {
			t.Errorf("device slot %d: %+v != %+v", d, gm[d], wm[d])
		}
	}
}

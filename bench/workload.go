package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"

	"cosmodel/internal/core"
	"cosmodel/internal/dist"
	"cosmodel/internal/ingest"
)

// kind is what a request asks the server to do; it selects the invariant
// checked on the answer.
type kind uint8

const (
	kPredict kind = iota
	kAdvise
	kIngest
)

// request is one pre-generated HTTP request. Every request a run sends is
// built from the seed before set-up, so the servers see only these bytes.
type request struct {
	kind kind
	path string // path and query
	body []byte // NDJSON observations for kIngest, nil otherwise
	obs  int    // observations in body
}

// stream is a pool of requests consumed in a fixed order: arrival i of the
// stream sends pool[order[i mod len(order)]], or pool[i mod len(pool)] when
// order is nil.
type stream struct {
	pool  []request
	order []int32
}

func (s *stream) at(i int) *request {
	if s.order == nil {
		return &s.pool[i%len(s.pool)]
	}
	return &s.pool[s.order[i%len(s.order)]]
}

// workload is one traffic mix against one server configuration.
type workload struct {
	name string
	why  string
	// devices is the deployment size; calib starts cosserve with online
	// calibration; cluster fronts three shard-mode cosserves with cosrouter.
	devices int
	calib   bool
	cluster bool
	// mixRate is the primary stream's rate, against bgRate for the
	// background stream, in the request order of the traced run, which
	// sends both back to back over one connection.
	mixRate float64
	// warm is the deterministic (seed-independent) ingest that precedes the
	// correctness gate; inputs builds the seeded primary and background
	// streams.
	warm   func() [][]ingest.Observation
	inputs func(seed int64) (primary, background stream)
	// gate lists the queries whose answers are pinned in golden/<name>.json.
	gate []string
}

// bgRate is the background stream's rate: ~1900 requests to the workload
// and ~600 to the null server in a 25 s run.
const bgRate = 100

// workloads are the benchmark's traffic mixes, in run order.
var workloads = []*workload{
	{
		name:    "read-hot",
		why:     "cached /predict, 8 query shapes over 16 devices, with NDJSON ingest at 100/s: isolates the http+serve wire and encode cost; a core change should not move it",
		devices: 16, mixRate: 2000,
		warm:   func() [][]ingest.Observation { return [][]ingest.Observation{steadyBatch(16, 8)} },
		inputs: readHotInputs,
		gate:   append(append([]string(nil), hotShapes...), "/advise?sla=0.05&target=0.9"),
	},
	{
		name:    "read-cold",
		why:     "fresh SLA grids (plain 60%, write 20%, coded 10%, advise 10%) miss the cache, with ingest at 100/s: core model cost; read-hot predicts no change",
		devices: 16, mixRate: 120,
		warm:   func() [][]ingest.Observation { return [][]ingest.Observation{steadyBatch(16, 16)} },
		inputs: readColdInputs,
		gate: []string{
			"/predict?sla=0.012,0.047,0.113",
			"/predict?sla=0.02,0.06,0.15&writeN=3&writeW=2",
			"/predict?sla=0.012,0.047,0.113&codedN=6&codedK=4",
			"/advise?sla=0.047&target=0.9",
		},
	},
	{
		name:    "ingest-churn",
		why:     "NDJSON /ingest of jittered 64-device batches (gold/bronze) into cosserve -calib, with /predict at 100/s missing the cache: ingest+calib write side",
		devices: 64, calib: true, mixRate: 250,
		warm:   churnWarm,
		inputs: churnInputs,
		gate: []string{
			"/predict",
			"/predict?writeN=3&writeW=2",
			"/predict?codedN=6&codedK=4",
			"/advise?sla=0.05&target=0.9",
		},
	},
	{
		name:    "cluster-read",
		why:     "cached /predict through cosrouter over 3 shards (2 replicas, 16 devices), with dual-written ingest at 100/s: isolates router fan-out and merge",
		devices: 16, cluster: true, mixRate: 500,
		warm:   func() [][]ingest.Observation { return [][]ingest.Observation{readOnly(steadyBatch(16, 8))} },
		inputs: clusterInputs,
		// No router /advise here: its admission search resolves the rate to
		// 0.5%, and shard caches key probes by a quantized load factor, so
		// fresh tiers fed identical inputs answer up to ~0.1% apart.
		gate: clusterShapes,
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %s, all)", name, strings.Join(names, ", "))
}

// serverProps are cosserve's default device properties (its -disk-* and
// -parse-* flag defaults); the in-process engines must match them exactly
// for the golden and router cross-checks to hold.
func serverProps() core.DeviceProperties {
	return core.DeviceProperties{
		IndexDisk: dist.NewGammaMeanSCV(9e-3, 0.45),
		MetaDisk:  dist.NewGammaMeanSCV(6e-3, 0.50),
		DataDisk:  dist.NewGammaMeanSCV(8e-3, 0.40),
		ParseFE:   dist.Degenerate{Value: 300e-6},
		ParseBE:   dist.Degenerate{Value: 500e-6},
	}
}

// shape is one device's steady operating point.
type shape struct {
	rate                       float64 // requests/s
	missIdx, missMeta, missDat float64
	diskMean                   float64 // seconds per disk operation
}

// shapeOf spreads device shapes over moderate load: utilizations stay well
// below saturation, so every SLA grid has a meet ratio strictly inside (0,1).
func shapeOf(i int) shape {
	return shape{
		rate:     12 + 1.5*float64(i%16),
		missIdx:  0.20 + 0.02*float64(i%7),
		missMeta: 0.25 + 0.02*float64(i%5),
		missDat:  0.35 + 0.02*float64(i%9),
		diskMean: 7e-3 + 0.25e-3*float64(i%8),
	}
}

// observation renders one device interval. A fifth of the operations are
// PUTs (writes = requests/4), each writing two chunks: without write
// traffic in the window, writeN queries are refused with 409.
func observation(device int, interval float64, s shape, jitter float64) ingest.Observation {
	reqs := uint64(math.Round(s.rate * jitter * interval))
	dataReads := reqs + reqs/5
	miss := func(ratio float64, n uint64) (hits, misses uint64) {
		misses = uint64(math.Round(ratio * float64(n)))
		return n - misses, misses
	}
	o := ingest.Observation{Device: device, Interval: interval, Requests: reqs, DataReads: dataReads}
	o.IndexHits, o.IndexMisses = miss(s.missIdx, reqs)
	o.MetaHits, o.MetaMisses = miss(s.missMeta, reqs)
	o.DataHits, o.DataMisses = miss(s.missDat, dataReads)
	o.DiskOps = o.IndexMisses + o.MetaMisses + o.DataMisses
	o.DiskBusy = s.diskMean * float64(o.DiskOps)
	o.Writes = reqs / 4
	o.WriteChunks = 2 * o.Writes
	return o
}

// steadyBatch is one 10 s interval per device with device d on shape
// d mod shapes. Re-ingesting it never moves the operating point.
func steadyBatch(devices, shapes int) []ingest.Observation {
	batch := make([]ingest.Observation, devices)
	for d := range batch {
		batch[d] = observation(d, 10, shapeOf(d%shapes), 1)
	}
	return batch
}

func ndjson(batch []ingest.Observation) []byte {
	var b bytes.Buffer
	if err := ingest.EncodeNDJSON(&b, batch); err != nil {
		panic("bench: encoding a generated batch cannot fail: " + err.Error())
	}
	return b.Bytes()
}

func ingestRequest(batch []ingest.Observation) request {
	return request{kind: kIngest, path: "/ingest", body: ndjson(batch), obs: len(batch)}
}

func predictRequests(paths []string) []request {
	out := make([]request, len(paths))
	for i, p := range paths {
		out[i] = request{kind: kPredict, path: p}
		if strings.HasPrefix(p, "/advise") {
			out[i].kind = kAdvise
		}
	}
	return out
}

// hotShapes are read-hot's eight query shapes: five plain grids, two
// W-of-N writes and one (6,4) coded read. All are cached after the first
// pass.
var hotShapes = []string{
	"/predict?sla=0.01,0.05,0.1",
	"/predict?sla=0.005,0.02,0.08",
	"/predict?sla=0.015,0.04,0.2",
	"/predict?sla=0.008,0.03,0.12",
	"/predict?sla=0.025,0.06,0.15",
	"/predict?sla=0.02,0.05,0.1&writeN=3&writeW=2",
	"/predict?sla=0.03,0.08,0.2&writeN=3&writeW=2",
	"/predict?sla=0.01,0.05,0.1&codedN=6&codedK=4",
}

// clusterShapes are cluster-read's five plain grids (the router refuses
// coded and write queries).
var clusterShapes = hotShapes[:5]

func readHotInputs(int64) (stream, stream) {
	return stream{pool: predictRequests(hotShapes)},
		stream{pool: []request{ingestRequest(steadyBatch(16, 8))}}
}

func clusterInputs(int64) (stream, stream) {
	return stream{pool: predictRequests(clusterShapes)},
		stream{pool: []request{ingestRequest(readOnly(steadyBatch(16, 8)))}}
}

// readOnly drops the PUT counters. cluster-read needs it: the router builds
// the frontend at the rate of reads alone while a single engine adds the
// write rate, so with PUTs in the window the two answers differ by ~1e-5
// and the router cross-check could not hold.
func readOnly(batch []ingest.Observation) []ingest.Observation {
	for i := range batch {
		batch[i].Writes, batch[i].WriteChunks = 0, 0
	}
	return batch
}

// coldPoolSize is the number of read-cold primary requests generated; a
// run sends fewer, so no grid repeats within a run.
const coldPoolSize = 1 << 16

// readColdInputs draws every plain, write and coded grid as three distinct
// SLAs from a pool of 10^4 log-spaced bounds (5 ms .. 500 ms, 4 significant
// digits), and every advise bound without replacement from the ~1800
// distinct 3-digit bounds the server's cache key quantizes to, so no query
// repeats within a run. The few cache hits left come from each /advise
// search re-probing entries it stored itself.
func readColdInputs(seed int64) (stream, stream) {
	rng := rand.New(rand.NewSource(seed))
	slas := make([]string, 10000)
	for i := range slas {
		v := 0.005 * math.Pow(100, float64(i)/float64(len(slas)-1))
		slas[i] = strconv.FormatFloat(v, 'g', 4, 64)
	}
	advise := quantaBetween(5e-3, 0.5)
	rng.Shuffle(len(advise), func(i, j int) { advise[i], advise[j] = advise[j], advise[i] })
	grid := func() string {
		idx := make([]int, 0, 3)
		for len(idx) < 3 {
			if k := rng.Intn(len(slas)); !slices.Contains(idx, k) {
				idx = append(idx, k)
			}
		}
		sort.Ints(idx)
		return slas[idx[0]] + "," + slas[idx[1]] + "," + slas[idx[2]]
	}
	pool := make([]request, coldPoolSize)
	nAdvise := 0
	for i := range pool {
		switch u := rng.Float64(); {
		case u < 0.6:
			pool[i] = request{kind: kPredict, path: "/predict?sla=" + grid()}
		case u < 0.8:
			pool[i] = request{kind: kPredict, path: "/predict?sla=" + grid() + "&writeN=3&writeW=2"}
		case u < 0.9:
			pool[i] = request{kind: kPredict, path: "/predict?sla=" + grid() + "&codedN=6&codedK=4"}
		default:
			pool[i] = request{kind: kAdvise, path: "/advise?sla=" + advise[nAdvise%len(advise)] + "&target=0.9"}
			nAdvise++
		}
	}
	return stream{pool: pool}, stream{pool: []request{ingestRequest(steadyBatch(16, 16))}}
}

// quantaBetween lists every 3-significant-digit value in [lo, hi).
func quantaBetween(lo, hi float64) []string {
	var out []string
	for dec := math.Floor(math.Log10(lo)); math.Pow(10, dec) < hi; dec++ {
		for m := 100; m < 1000; m++ {
			v := float64(m) * math.Pow(10, dec-2)
			if v >= lo && v < hi {
				out = append(out, strconv.FormatFloat(v, 'g', 3, 64))
			}
		}
	}
	return out
}

const (
	churnDevices  = 64
	churnInterval = 10.0
	churnPool     = 128
	churnSamples  = 8
)

// churnBatch is one ingest-churn batch: every device reports one interval
// with its rate jittered by ±20%, eight raw disk samples per operation
// class drawn from the served Gamma fits, and a gold or bronze tenant
// label. The disk mean and miss ratios stay put, so the drift detectors
// see no drift.
func churnBatch(rng *rand.Rand) []ingest.Observation {
	props := serverProps()
	batch := make([]ingest.Observation, churnDevices)
	samples := func(d dist.Distribution) []float64 {
		out := make([]float64, churnSamples)
		for i := range out {
			out[i] = math.Round(d.Sample(rng)*1e6) / 1e6 // µs resolution keeps lines short
		}
		return out
	}
	for d := range batch {
		o := observation(d, churnInterval, shapeOf(d), 0.8+0.4*rng.Float64())
		o.Class = "gold"
		if rng.Intn(2) == 1 {
			o.Class = "bronze"
		}
		o.DiskIndexLat = samples(props.IndexDisk)
		o.DiskMetaLat = samples(props.MetaDisk)
		o.DiskDataLat = samples(props.DataDisk)
		batch[d] = o
	}
	return batch
}

// churnWarm fills every device's 60 s window from a fixed seed, so the
// golden answers do not depend on the run's seed.
func churnWarm() [][]ingest.Observation {
	rng := rand.New(rand.NewSource(0))
	out := make([][]ingest.Observation, 7)
	for i := range out {
		out[i] = churnBatch(rng)
	}
	return out
}

// churnInputs sends the batches of a 128-body pool in a seeded random
// order: the sliding window then never returns to an earlier operating
// point, so the background /predict stream mostly misses the cache.
func churnInputs(seed int64) (stream, stream) {
	rng := rand.New(rand.NewSource(seed))
	pool := make([]request, churnPool)
	for i := range pool {
		pool[i] = ingestRequest(churnBatch(rng))
	}
	order := make([]int32, 1<<16)
	for i := range order {
		order[i] = int32(rng.Intn(churnPool))
	}
	return stream{pool: pool, order: order}, stream{pool: predictRequests([]string{"/predict"})}
}

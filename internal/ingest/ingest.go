// Package ingest is the high-throughput observation-ingest subsystem: the
// data plane between the HTTP layer and the prediction engine's sliding
// windows. Three pieces make a million observations per second feasible on
// one serving node:
//
//   - a striped state Table: device d lands in stripe d mod S, each stripe
//     with its own lock and windows, so concurrent batches for disjoint
//     devices update state without serializing on one mutex (Stripes=1 is
//     exactly the original single-lock layout);
//   - a bounded Ring hand-off that decouples ingest acceptance from
//     downstream consumers (the online-calibration feed): pushes never
//     block, and overflow is counted — dropped work is surfaced, never
//     silent;
//   - a streaming NDJSON decoder with pooled chunk buffers, so a large
//     batch is validated and absorbed chunk by chunk with O(chunk) live
//     memory instead of materializing the whole payload.
//
// The package owns the Observation wire type; internal/serve aliases it so
// the HTTP surface is unchanged.
package ingest

import (
	"errors"
	"fmt"
	"math"
)

// ErrInvalid reports an observation or batch that failed validation.
var ErrInvalid = errors.New("ingest: invalid observation")

// MaxClassLen bounds tenant class labels: long enough for any sane tenant
// name, short enough that labels can't balloon cache keys.
const MaxClassLen = 64

// Observation is one batch of per-device measurements covering Interval
// seconds of operation — the raw material of the paper's §IV-B online
// metrics. Counters are deltas over the interval, not cumulative totals.
type Observation struct {
	// Device identifies the storage device, 0 <= Device < Config.Devices.
	Device int `json:"device"`
	// Class optionally labels the tenant / SLA class the counters belong
	// to. Empty is the default (single-tenant) class. Class-labelled
	// observations land both in the aggregate table and in the per-class
	// partition, so per-tenant rates can be read without touching the
	// shared operating point.
	Class string `json:"class,omitempty"`
	// Interval is the wall-clock span the counters cover (seconds).
	Interval float64 `json:"interval"`
	// Requests is the number of requests routed to the device (r·Interval).
	Requests uint64 `json:"requests"`
	// DataReads is the number of data read operations, cache hits and
	// misses alike (rdata·Interval).
	DataReads uint64 `json:"dataReads"`
	// Cache accesses per operation class.
	IndexHits   uint64 `json:"indexHits"`
	IndexMisses uint64 `json:"indexMisses"`
	MetaHits    uint64 `json:"metaHits"`
	MetaMisses  uint64 `json:"metaMisses"`
	DataHits    uint64 `json:"dataHits"`
	DataMisses  uint64 `json:"dataMisses"`
	// DiskBusy is the disk busy time (seconds) over DiskOps operations;
	// together they give the observed overall mean disk service time b.
	DiskBusy float64 `json:"diskBusy"`
	DiskOps  uint64  `json:"diskOps"`
	// Writes is the number of PUT replica sub-requests the device served
	// over the interval and WriteChunks the number of data chunk write
	// operations they issued; their ratio is the model's mean
	// chunks-per-write. Zero means a read-only interval — the exact
	// read-path pipeline of the paper.
	Writes      uint64 `json:"writes,omitempty"`
	WriteChunks uint64 `json:"writeChunks,omitempty"`
	// Latencies are optional raw response latencies (seconds) observed at
	// the frontend, kept in sliding-window histograms for the observed
	// SLA-compliance diagnostics in /metrics.
	Latencies []float64 `json:"latencies,omitempty"`
	// DiskIndexLat, DiskMetaLat and DiskDataLat are optional raw disk
	// service times (seconds) per operation class sampled during the
	// interval — the feed for the online calibration subsystem's live
	// refits and shape checks. Ignored (beyond validation) when
	// calibration is disabled.
	DiskIndexLat []float64 `json:"diskIndexLat,omitempty"`
	DiskMetaLat  []float64 `json:"diskMetaLat,omitempty"`
	DiskDataLat  []float64 `json:"diskDataLat,omitempty"`
}

// Validate checks one observation against the deployment size.
func (o *Observation) Validate(devices int) error {
	switch {
	case o.Device < 0 || o.Device >= devices:
		return fmt.Errorf("%w: device %d outside [0,%d)", ErrInvalid, o.Device, devices)
	case o.Interval <= 0 || math.IsNaN(o.Interval) || math.IsInf(o.Interval, 0):
		return fmt.Errorf("%w: interval %v must be positive and finite", ErrInvalid, o.Interval)
	case o.DiskBusy < 0 || math.IsNaN(o.DiskBusy) || math.IsInf(o.DiskBusy, 0):
		return fmt.Errorf("%w: disk busy time %v", ErrInvalid, o.DiskBusy)
	case len(o.Class) > MaxClassLen:
		return fmt.Errorf("%w: class label longer than %d bytes", ErrInvalid, MaxClassLen)
	case o.WriteChunks > 0 && o.Writes == 0:
		return fmt.Errorf("%w: %d write chunks without writes", ErrInvalid, o.WriteChunks)
	}
	for i := 0; i < len(o.Class); i++ {
		if c := o.Class[i]; c < 0x20 || c == 0x7f {
			return fmt.Errorf("%w: control character in class label", ErrInvalid)
		}
	}
	for _, l := range o.Latencies {
		if l < 0 || math.IsNaN(l) || math.IsInf(l, 0) {
			return fmt.Errorf("%w: latency %v", ErrInvalid, l)
		}
	}
	for _, set := range [][]float64{o.DiskIndexLat, o.DiskMetaLat, o.DiskDataLat} {
		for _, l := range set {
			if l < 0 || math.IsNaN(l) || math.IsInf(l, 0) {
				return fmt.Errorf("%w: disk service sample %v", ErrInvalid, l)
			}
		}
	}
	return nil
}

// MissRatio converts hit/miss counters into the model's miss ratio.
func MissRatio(misses, hits uint64) float64 {
	if misses+hits == 0 {
		return 0
	}
	return float64(misses) / float64(misses+hits)
}

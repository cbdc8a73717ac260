package ingest

import (
	"math"

	"cosmodel/internal/core"
	"cosmodel/internal/stats"
)

// windowEntry is what the window keeps of one observation: the interval,
// the counters and busy time metrics sums, and the latency histogram.
type windowEntry struct {
	interval, diskBusy     float64
	requests, dataReads    uint64
	idxH, idxM, metH, metM uint64
	datH, datM, diskOps    uint64
	writes, writeChunks    uint64
	lat                    *stats.Histogram // nil when the observation carried no latencies
}

// fill sets e to the summed fields of o, with no histogram. Field by field,
// so the entry is written in place rather than built and then copied.
func (e *windowEntry) fill(o *Observation) {
	e.interval, e.diskBusy = o.Interval, o.DiskBusy
	e.requests, e.dataReads = o.Requests, o.DataReads
	e.idxH, e.idxM, e.metH, e.metM = o.IndexHits, o.IndexMisses, o.MetaHits, o.MetaMisses
	e.datH, e.datM, e.diskOps = o.DataHits, o.DataMisses, o.DiskOps
	e.writes, e.writeChunks = o.Writes, o.WriteChunks
	e.lat = nil
}

// deviceWindow is the sliding window of one device's observations: a ring
// read oldest first, so every sum over it runs in the order the entries
// arrived. The ring grows by doubling up to the entry bound and is then
// reused in place; a steady stream adds and evicts without allocating.
type deviceWindow struct {
	ring []windowEntry
	head int     // ring index of the oldest entry
	n    int     // retained entries
	span float64 // summed intervals of the retained entries
}

// at returns the i-th retained entry, oldest first.
func (w *deviceWindow) at(i int) *windowEntry { return &w.ring[(w.head+i)%len(w.ring)] }

// add appends an entry and evicts the oldest ones that fall outside the
// window span or the entry-count bound. At least one entry is always kept
// so a device that reports rarely still has an operating point. The span
// adds the new interval before subtracting any evicted one: that order fixes
// the span's last bits, and with them every windowed rate.
func (w *deviceWindow) add(e *windowEntry, window float64, maxEntries int) {
	w.span += e.interval
	if w.n >= maxEntries {
		w.evict()
	} else if w.n == len(w.ring) {
		w.grow(maxEntries)
	}
	*w.at(w.n) = *e
	w.n++
	for w.n > 1 && w.span-w.at(0).interval >= window {
		w.evict()
	}
}

// evict drops the oldest entry, releasing its histogram.
func (w *deviceWindow) evict() {
	w.span -= w.ring[w.head].interval
	w.ring[w.head] = windowEntry{}
	w.head = (w.head + 1) % len(w.ring)
	w.n--
}

// grow doubles the ring (from 8, never past maxEntries), re-laying the
// entries oldest first.
func (w *deviceWindow) grow(maxEntries int) {
	ring := make([]windowEntry, min(max(8, 2*len(w.ring)), maxEntries))
	for i := 0; i < w.n; i++ {
		ring[i] = *w.at(i)
	}
	w.ring, w.head = ring, 0
}

// metrics derives the device's current online metrics from the window.
// ok is false when the window holds no requests (idle device).
func (w *deviceWindow) metrics(procs int) (core.OnlineMetrics, bool) {
	if w.span <= 0 {
		return core.OnlineMetrics{}, false
	}
	var (
		requests, dataReads    uint64
		idxH, idxM, metH, metM uint64
		datH, datM, diskOps    uint64
		writes, writeChunks    uint64
		diskBusy               float64
	)
	for i := 0; i < w.n; i++ {
		e := w.at(i)
		requests += e.requests
		dataReads += e.dataReads
		idxH += e.idxH
		idxM += e.idxM
		metH += e.metH
		metM += e.metM
		datH += e.datH
		datM += e.datM
		diskBusy += e.diskBusy
		diskOps += e.diskOps
		writes += e.writes
		writeChunks += e.writeChunks
	}
	if requests == 0 {
		return core.OnlineMetrics{}, false
	}
	m := core.OnlineMetrics{
		Rate:      float64(requests) / w.span,
		MissIndex: MissRatio(idxM, idxH),
		MissMeta:  MissRatio(metM, metH),
		MissData:  MissRatio(datM, datH),
		Procs:     procs,
	}
	m.DataRate = math.Max(float64(dataReads)/w.span, m.Rate)
	if diskOps > 0 {
		m.DiskMean = diskBusy / float64(diskOps)
	}
	setWriteMetrics(&m, writes, writeChunks, w.span)
	return m, true
}

// setWriteMetrics fills the write-class fields of an operating point from
// window counters: the replica PUT rate and the mean chunks per write
// (clamped at 1 — every write lands at least one chunk).
func setWriteMetrics(m *core.OnlineMetrics, writes, chunks uint64, span float64) {
	if writes == 0 || span <= 0 {
		return
	}
	m.WriteRate = float64(writes) / span
	m.WriteChunks = math.Max(float64(chunks)/float64(writes), 1)
}

// Metrics derives the operating point of this single observation — the
// per-window feed of the online calibration controller, which judges each
// reported interval on its own rather than through the sliding window.
func (o *Observation) Metrics(procs int) core.OnlineMetrics {
	m := core.OnlineMetrics{
		Rate:      float64(o.Requests) / o.Interval,
		MissIndex: MissRatio(o.IndexMisses, o.IndexHits),
		MissMeta:  MissRatio(o.MetaMisses, o.MetaHits),
		MissData:  MissRatio(o.DataMisses, o.DataHits),
		Procs:     procs,
	}
	m.DataRate = math.Max(float64(o.DataReads)/o.Interval, m.Rate)
	if o.DiskOps > 0 {
		m.DiskMean = o.DiskBusy / float64(o.DiskOps)
	}
	setWriteMetrics(&m, o.Writes, o.WriteChunks, o.Interval)
	return m
}

package ingest

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"cosmodel/internal/core"
	"cosmodel/internal/stats"
)

// ingestScratch is absorb's pooled per-batch scratch: the batch's window
// entries grouped by stripe, each entry's window index within its stripe,
// and the per-stripe group cursors.
type ingestScratch struct {
	entries []windowEntry
	local   []int
	next    []int
}

var scratchPool = sync.Pool{New: func() any { return new(ingestScratch) }}

// release drops the entries' references and pools the scratch, unless an
// oversized batch grew it past the chunk bound.
func (sc *ingestScratch) release() {
	clear(sc.entries)
	if cap(sc.entries) <= maxPooledChunk {
		scratchPool.Put(sc)
	}
}

// Config sizes a state Table.
type Config struct {
	// Devices is the number of storage devices reporting observations.
	Devices int
	// Stripes is the lock-stripe count: device d lands in stripe d mod
	// Stripes. 0 picks an automatic count (≈2× GOMAXPROCS, capped at
	// Devices); 1 is the single-lock layout every striped configuration
	// must be observably equivalent to.
	Stripes int
	// Window is the sliding-window span in seconds of observation coverage.
	Window float64
	// MaxEntries bounds the retained observations per device.
	MaxEntries int
	// Procs is the process count per device used when deriving metrics.
	Procs int
}

func (c Config) validate() error {
	switch {
	case c.Devices < 1:
		return fmt.Errorf("%w: need at least one device", ErrInvalid)
	case c.Stripes < 0:
		return fmt.Errorf("%w: stripe count %d negative", ErrInvalid, c.Stripes)
	case c.Window <= 0:
		return fmt.Errorf("%w: window must be positive", ErrInvalid)
	case c.MaxEntries < 1:
		return fmt.Errorf("%w: need at least one retained entry", ErrInvalid)
	case c.Procs < 1:
		return fmt.Errorf("%w: need at least one process per device", ErrInvalid)
	}
	return nil
}

// DefaultStripes returns the automatic stripe count for a deployment size:
// enough stripes that GOMAXPROCS concurrent ingesters rarely collide, never
// more than there are devices (extra stripes would sit empty).
func DefaultStripes(devices int) int {
	s := 2 * runtime.GOMAXPROCS(0)
	if s > devices {
		s = devices
	}
	if s < 1 {
		s = 1
	}
	return s
}

// stripe is one lock domain of the table. The padding keeps hot stripes on
// separate cache lines so uncontended stripes don't false-share.
type stripe struct {
	mu         sync.Mutex
	windows    []deviceWindow // local index i holds device i·Stripes + s
	lastIngest time.Time
	_          [64]byte
}

// Table is the striped ingest state: every device's sliding window plus
// ingest bookkeeping, partitioned into independently locked stripes. All
// methods are safe for concurrent use. A batch is validated and its
// histograms built before any lock is taken, and stripes are updated one at
// a time in index order, so two batches for disjoint stripe sets proceed
// fully in parallel.
//
// Concurrency note: a batch spanning multiple stripes is applied stripe by
// stripe, so a snapshot racing an ingest can observe some stripes updated
// and others not yet. Each device's window is always internally consistent,
// and the revision counter advances only after the whole batch landed, so
// memoized snapshots self-heal on the next lookup. Quiesced (the test and
// equivalence condition), the table is state-for-state identical to the
// single-lock layout.
type Table struct {
	cfg      Config
	nstripes int
	stripes  []stripe
	revision atomic.Uint64 // accepted batches; snapshot memo key
	ingested atomic.Uint64 // accepted observations
}

// NewTable builds a striped table; Config.Stripes 0 selects DefaultStripes.
func NewTable(cfg Config) (*Table, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	n := cfg.Stripes
	if n == 0 {
		n = DefaultStripes(cfg.Devices)
	}
	if n > cfg.Devices {
		n = cfg.Devices
	}
	t := &Table{cfg: cfg, nstripes: n, stripes: make([]stripe, n)}
	for s := range t.stripes {
		// Stripe s owns devices s, s+n, s+2n, …
		t.stripes[s].windows = make([]deviceWindow, (cfg.Devices-s+n-1)/n)
	}
	return t, nil
}

// Stripes returns the effective stripe count.
func (t *Table) Stripes() int { return t.nstripes }

// Devices returns the configured device count.
func (t *Table) Devices() int { return t.cfg.Devices }

// Ingest validates and absorbs a batch of observations stamped at now. The
// batch is all-or-nothing: a single invalid observation rejects the whole
// batch so partial state never depends on payload order.
func (t *Table) Ingest(batch []Observation, now time.Time) error {
	if len(batch) == 0 {
		return fmt.Errorf("%w: empty observation batch", ErrInvalid)
	}
	for i := range batch {
		if err := batch[i].Validate(t.cfg.Devices); err != nil {
			return err
		}
	}
	t.absorb(batch, "", true, now)
	return nil
}

// Absorb absorbs, stamped at now, a non-empty batch whose every
// observation has already passed Validate with the table's device count:
// a chunk DecodeNDJSON emits, which it validates line by line. It does not
// validate again.
func (t *Table) Absorb(batch []Observation, now time.Time) {
	t.absorb(batch, "", true, now)
}

// AbsorbClass absorbs, stamped at now, the observations of batch labelled
// class — a tenant partition's share of a batch that an Ingest of a table
// with the same device count has already accepted. It does not validate
// again. A batch with no observation of the class changes nothing.
func (t *Table) AbsorbClass(batch []Observation, class string, now time.Time) {
	t.absorb(batch, class, false, now)
}

// absorb lands the observations of a validated batch (all of them, or those
// labelled class) in their windows. Entries, including latency histograms,
// are built outside any lock, grouped by stripe in batch order; then each
// stripe takes its lock once.
func (t *Table) absorb(batch []Observation, class string, all bool, now time.Time) {
	sc := scratchPool.Get().(*ingestScratch)
	defer sc.release()
	next := slices.Grow(sc.next[:0], t.nstripes)[:t.nstripes]
	clear(next)
	n := 0
	for i := range batch {
		if o := &batch[i]; all || o.Class == class {
			next[o.Device%t.nstripes]++
			n++
		}
	}
	if n == 0 {
		return
	}
	lo := 0
	for s, c := range next {
		next[s] = lo
		lo += c
	}
	entries := slices.Grow(sc.entries[:0], n)[:n]
	local := slices.Grow(sc.local[:0], n)[:n]
	for i := range batch {
		o := &batch[i]
		if !all && o.Class != class {
			continue
		}
		s := o.Device % t.nstripes
		j := next[s]
		next[s]++
		// Raw latencies are retained as a histogram, and raw disk samples
		// feed the calibration controller, not the sliding windows: the
		// window keeps no sample array, so the caller may reuse them.
		entries[j].fill(o)
		if len(o.Latencies) > 0 {
			h := stats.NewLatencyHistogram()
			for _, l := range o.Latencies {
				h.Observe(l)
			}
			entries[j].lat = h
		}
		local[j] = o.Device / t.nstripes
	}
	sc.entries, sc.local, sc.next = entries, local, next
	lo = 0
	for s, hi := range next {
		if lo == hi {
			continue
		}
		st := &t.stripes[s]
		st.mu.Lock()
		for j := lo; j < hi; j++ {
			st.windows[local[j]].add(&entries[j], t.cfg.Window, t.cfg.MaxEntries)
		}
		if now.After(st.lastIngest) {
			st.lastIngest = now
		}
		st.mu.Unlock()
		lo = hi
	}
	t.ingested.Add(uint64(n))
	t.revision.Add(1)
}

// Revision returns the accepted-batch revision — the memo key for derived
// snapshots (it advances only after a batch fully landed).
func (t *Table) Revision() uint64 { return t.revision.Load() }

// Snapshot derives the current per-device online metrics in device order.
// Idle devices are omitted (they contribute nothing to the system mixture);
// an empty result means no device has observations yet.
func (t *Table) Snapshot() []core.OnlineMetrics {
	type devMetric struct {
		m  core.OnlineMetrics
		ok bool
	}
	tmp := make([]devMetric, t.cfg.Devices)
	for s := range t.stripes {
		st := &t.stripes[s]
		st.mu.Lock()
		for li := range st.windows {
			d := li*t.nstripes + s
			tmp[d].m, tmp[d].ok = st.windows[li].metrics(t.cfg.Procs)
		}
		st.mu.Unlock()
	}
	var out []core.OnlineMetrics
	for d := range tmp {
		if tmp[d].ok {
			out = append(out, tmp[d].m)
		}
	}
	return out
}

// SnapshotDevices derives the current online metrics of a device subset —
// the shard-local slice of the cluster mixture — in the order given. Idle
// devices in the subset are skipped; covered counts the subset devices that
// contributed an operating point. A device listed twice is rejected: it
// would enter the mixture with double weight.
func (t *Table) SnapshotDevices(devs []int) (ms []core.OnlineMetrics, covered int, err error) {
	seen := make([]bool, t.cfg.Devices)
	for _, d := range devs {
		if d < 0 || d >= t.cfg.Devices {
			return nil, 0, fmt.Errorf("%w: device %d outside [0,%d)", ErrInvalid, d, t.cfg.Devices)
		}
		if seen[d] {
			return nil, 0, fmt.Errorf("%w: device %d listed twice", ErrInvalid, d)
		}
		seen[d] = true
	}
	for _, d := range devs {
		st := &t.stripes[d%t.nstripes]
		st.mu.Lock()
		m, ok := st.windows[d/t.nstripes].metrics(t.cfg.Procs)
		st.mu.Unlock()
		if ok {
			ms = append(ms, m)
			covered++
		}
	}
	return ms, covered, nil
}

// DeviceRates returns every device's current windowed request and PUT
// replica rates (0 for idle devices) — the state a restarted router seeds
// its rate tracker from.
func (t *Table) DeviceRates() (reads, writes []float64) {
	reads = make([]float64, t.cfg.Devices)
	writes = make([]float64, t.cfg.Devices)
	for s := range t.stripes {
		st := &t.stripes[s]
		st.mu.Lock()
		for li := range st.windows {
			if m, ok := st.windows[li].metrics(t.cfg.Procs); ok {
				reads[li*t.nstripes+s] = m.Rate
				writes[li*t.nstripes+s] = m.WriteRate
			}
		}
		st.mu.Unlock()
	}
	return reads, writes
}

// ObservedLatency merges the windowed latency histograms of all devices
// (nil when no latencies were ingested).
func (t *Table) ObservedLatency() *stats.Histogram {
	var merged *stats.Histogram
	for s := range t.stripes {
		st := &t.stripes[s]
		st.mu.Lock()
		for li := range st.windows {
			w := &st.windows[li]
			for i := 0; i < w.n; i++ {
				e := w.at(i)
				if e.lat == nil {
					continue
				}
				if merged == nil {
					merged = stats.NewLatencyHistogram()
				}
				// Layouts always match (both NewLatencyHistogram).
				merged.Merge(e.lat) //nolint:errcheck
			}
		}
		st.mu.Unlock()
	}
	return merged
}

// LastIngest returns the newest accepted-ingest timestamp across stripes,
// and whether any ingest happened at all.
func (t *Table) LastIngest() (time.Time, bool) {
	var last time.Time
	for s := range t.stripes {
		st := &t.stripes[s]
		st.mu.Lock()
		if st.lastIngest.After(last) {
			last = st.lastIngest
		}
		st.mu.Unlock()
	}
	return last, !last.IsZero()
}

// Stats returns the ingest counters: total accepted observations and the
// number of devices currently reporting an operating point.
func (t *Table) Stats() (ingested uint64, reporting int) {
	for s := range t.stripes {
		st := &t.stripes[s]
		st.mu.Lock()
		for li := range st.windows {
			if _, ok := st.windows[li].metrics(t.cfg.Procs); ok {
				reporting++
			}
		}
		st.mu.Unlock()
	}
	return t.ingested.Load(), reporting
}

package ingest

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"cosmodel/internal/core"
	"cosmodel/internal/stats"
)

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
	for _, o := range batch {
		if err := o.Validate(t.cfg.Devices); err != nil {
			return err
		}
	}
	// Build entries (including latency histograms) outside any lock.
	byStripe := make([][]windowEntry, t.nstripes)
	for _, o := range batch {
		e := windowEntry{obs: o}
		if len(o.Latencies) > 0 {
			e.lat = stats.NewLatencyHistogram()
			for _, l := range o.Latencies {
				e.lat.Observe(l)
			}
			e.obs.Latencies = nil // retained as a histogram, not raw samples
		}
		// Raw disk samples feed the calibration controller, not the
		// sliding windows; don't retain them here.
		e.obs.DiskIndexLat, e.obs.DiskMetaLat, e.obs.DiskDataLat = nil, nil, nil
		s := o.Device % t.nstripes
		byStripe[s] = append(byStripe[s], e)
	}
	for s := range byStripe {
		if len(byStripe[s]) == 0 {
			continue
		}
		st := &t.stripes[s]
		st.mu.Lock()
		for _, e := range byStripe[s] {
			st.windows[e.obs.Device/t.nstripes].add(e, t.cfg.Window, t.cfg.MaxEntries)
		}
		if now.After(st.lastIngest) {
			st.lastIngest = now
		}
		st.mu.Unlock()
	}
	t.ingested.Add(uint64(len(batch)))
	t.revision.Add(1)
	return nil
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
// contributed an operating point.
func (t *Table) SnapshotDevices(devs []int) (ms []core.OnlineMetrics, covered int, err error) {
	for _, d := range devs {
		if d < 0 || d >= t.cfg.Devices {
			return nil, 0, fmt.Errorf("%w: device %d outside [0,%d)", ErrInvalid, d, t.cfg.Devices)
		}
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
			for _, e := range st.windows[li].entries {
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

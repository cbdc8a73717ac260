package serve

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"cosmodel/internal/core"
	"cosmodel/internal/ingest"
	"cosmodel/internal/stats"
)

// Observation is one batch of per-device measurements covering Interval
// seconds of operation. The wire type lives in internal/ingest (the
// high-throughput ingest subsystem owns decoding and validation); the alias
// keeps the serve API unchanged.
type Observation = ingest.Observation

// maxTenantClasses bounds the per-class partition registry: enough for any
// sane multi-tenant deployment, small enough that a client inventing class
// labels cannot grow server state without bound.
const maxTenantClasses = 64

// stateTable adapts the striped ingest.Table to the engine: it wraps the
// ingest-level errors into the serve error taxonomy and memoizes the derived
// snapshot and its operating-point key on the table's revision counter.
// All methods are safe for concurrent use.
type stateTable struct {
	cfg   *Config
	table *ingest.Table

	// classes holds one striped partition per tenant class, created lazily
	// on the first class-labelled ingest. A class-labelled observation lands
	// both here and in the aggregate table: the aggregate stays the shared
	// operating point every prediction evaluates (FCFS queues are
	// classless), while the partition carries the per-tenant rates the
	// weighted admission controller sheds by.
	classMu sync.Mutex
	classes map[string]*ingest.Table

	// Snapshot memo: the derived metrics and their quantized operating-point
	// key are pure functions of the ingest history, so between ingests every
	// query can reuse one immutable slice instead of re-deriving both.
	snapMu    sync.Mutex
	snapValid bool
	snapRev   uint64 // table revision the memo was derived from
	snapMS    []core.OnlineMetrics
	snapKey   string
	snapErr   error
}

func newStateTable(cfg *Config) (*stateTable, error) {
	table, err := ingest.NewTable(ingest.Config{
		Devices:    cfg.Devices,
		Stripes:    cfg.IngestStripes,
		Window:     cfg.Window,
		MaxEntries: cfg.MaxObservations,
		Procs:      cfg.ProcsPerDevice,
	})
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadConfig, err)
	}
	return &stateTable{cfg: cfg, table: table}, nil
}

// wrapIngestErr converts the ingest package's validation errors into the
// serve taxonomy (ErrBadQuery → 400 at the HTTP layer).
func wrapIngestErr(err error) error {
	if err == nil {
		return nil
	}
	if errors.Is(err, ingest.ErrInvalid) {
		return fmt.Errorf("%w: %v", ErrBadQuery, err)
	}
	return err
}

// ingest validates and absorbs a batch of observations. The batch is
// all-or-nothing: a single invalid observation rejects the whole batch so
// partial state never depends on payload order. Class-labelled observations
// additionally land in their tenant partition; the class-count bound is
// checked up front so a rejected batch leaves neither table touched.
func (t *stateTable) ingest(batch []Observation) error {
	if err := t.checkClassBound(batch); err != nil {
		return err
	}
	if err := wrapIngestErr(t.table.Ingest(batch, t.cfg.now())); err != nil {
		return err
	}
	t.ingestClasses(batch)
	return nil
}

// checkClassBound rejects a batch whose new class labels would grow the
// tenant registry past maxTenantClasses. Checked before the aggregate ingest
// so the all-or-nothing contract holds across both tables.
func (t *stateTable) checkClassBound(batch []Observation) error {
	var fresh map[string]bool
	t.classMu.Lock()
	defer t.classMu.Unlock()
	n := len(t.classes)
	for _, o := range batch {
		if o.Class == "" || t.classes[o.Class] != nil || fresh[o.Class] {
			continue
		}
		if fresh == nil {
			fresh = make(map[string]bool)
		}
		fresh[o.Class] = true
		if n++; n > maxTenantClasses {
			return fmt.Errorf("%w: tenant class %q would exceed the %d-class limit",
				ErrBadQuery, o.Class, maxTenantClasses)
		}
	}
	return nil
}

// ingestClasses routes the class-labelled observations of an already
// accepted batch into their tenant partitions, creating partitions lazily.
// The batch passed aggregate validation, so the per-class ingests cannot
// reject; a partition-construction failure would be a config bug and is
// surfaced through the aggregate path's validation at engine start.
func (t *stateTable) ingestClasses(batch []Observation) {
	var byClass map[string][]Observation
	for _, o := range batch {
		if o.Class == "" {
			continue
		}
		if byClass == nil {
			byClass = make(map[string][]Observation)
		}
		byClass[o.Class] = append(byClass[o.Class], o)
	}
	if byClass == nil {
		return
	}
	now := t.cfg.now()
	for class, sub := range byClass {
		tab, err := t.classTable(class)
		if err != nil {
			continue // bounded above; unreachable after checkClassBound
		}
		tab.Ingest(sub, now) //nolint:errcheck // validated by the aggregate ingest
	}
}

// classTable returns (creating if needed) the partition for class.
func (t *stateTable) classTable(class string) (*ingest.Table, error) {
	t.classMu.Lock()
	defer t.classMu.Unlock()
	if tab := t.classes[class]; tab != nil {
		return tab, nil
	}
	if len(t.classes) >= maxTenantClasses {
		return nil, fmt.Errorf("%w: tenant class limit reached", ErrBadQuery)
	}
	tab, err := ingest.NewTable(ingest.Config{
		Devices:    t.cfg.Devices,
		Stripes:    t.cfg.IngestStripes,
		Window:     t.cfg.Window,
		MaxEntries: t.cfg.MaxObservations,
		Procs:      t.cfg.ProcsPerDevice,
	})
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadConfig, err)
	}
	if t.classes == nil {
		t.classes = make(map[string]*ingest.Table)
	}
	t.classes[class] = tab
	return tab, nil
}

// tenantTable looks up the partition of one tenant class.
func (t *stateTable) tenantTable(class string) (*ingest.Table, bool) {
	t.classMu.Lock()
	defer t.classMu.Unlock()
	tab, ok := t.classes[class]
	return tab, ok
}

// tenantNames lists the known tenant classes in sorted order.
func (t *stateTable) tenantNames() []string {
	t.classMu.Lock()
	names := make([]string, 0, len(t.classes))
	for c := range t.classes {
		names = append(names, c)
	}
	t.classMu.Unlock()
	sort.Strings(names)
	return names
}

// snapshot derives the current per-device online metrics. Idle devices are
// omitted (they contribute nothing to the system mixture). ErrNotReady is
// returned when no device has observations.
func (t *stateTable) snapshot() ([]core.OnlineMetrics, error) {
	ms := t.table.Snapshot()
	if len(ms) == 0 {
		return nil, ErrNotReady
	}
	return ms, nil
}

// snapshotKeyed returns the current per-device metrics together with their
// quantized operating-point key (opKey), memoized on the table revision:
// repeated queries at a stable operating point share one derivation and one
// key string. Callers must treat the returned slice as immutable.
func (t *stateTable) snapshotKeyed() ([]core.OnlineMetrics, string, error) {
	rev := t.table.Revision()
	t.snapMu.Lock()
	defer t.snapMu.Unlock()
	if !t.snapValid || t.snapRev != rev {
		t.snapMS, t.snapErr = t.snapshot()
		t.snapKey = ""
		if t.snapErr == nil {
			t.snapKey = opKey(t.snapMS)
		}
		t.snapRev, t.snapValid = rev, true
	}
	return t.snapMS, t.snapKey, t.snapErr
}

// snapshotDevices derives the current online metrics of a device subset —
// the shard-local slice of the cluster mixture. Idle devices in the subset
// are skipped; covered counts the subset devices that contributed an
// operating point. Unlike snapshot, an empty result is not an error: a shard
// that has not yet ingested for its devices legitimately contributes zero
// weight to the merged mixture.
func (t *stateTable) snapshotDevices(devs []int) (ms []core.OnlineMetrics, covered int, err error) {
	ms, covered, err = t.table.SnapshotDevices(devs)
	return ms, covered, wrapIngestErr(err)
}

// deviceRates returns every device's windowed request and PUT rates (0 when
// idle) — the warm-start state a restarted router rebuilds its rate tracker
// from.
func (t *stateTable) deviceRates() (reads, writes []float64) { return t.table.DeviceRates() }

// observedLatency merges the windowed latency histograms of all devices
// (nil when no latencies were ingested).
func (t *stateTable) observedLatency() *stats.Histogram {
	return t.table.ObservedLatency()
}

// calibrationAge returns the seconds since the last accepted ingest, and
// whether any ingest happened at all.
func (t *stateTable) calibrationAge() (float64, bool) {
	last, ok := t.table.LastIngest()
	if !ok {
		return 0, false
	}
	return t.cfg.now().Sub(last).Seconds(), true
}

// stats returns ingest counters.
func (t *stateTable) stats() (ingested uint64, reporting int) {
	return t.table.Stats()
}

// stripes returns the effective lock-stripe count of the state table.
func (t *stateTable) stripes() int { return t.table.Stripes() }

// lastIngestTime exposes the newest accepted-ingest timestamp.
func (t *stateTable) lastIngestTime() (time.Time, bool) { return t.table.LastIngest() }

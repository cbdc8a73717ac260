package serve

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"

	"cosmodel/internal/core"
	"cosmodel/internal/ingest"
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

	// Snapshot memo: the derived operating point is a pure function of the
	// ingest history, so between ingests every query reuses one immutable
	// opPoint instead of re-deriving it.
	snapMu    sync.Mutex
	snapValid bool
	snapRev   uint64   // table revision the memo was derived from
	snap      *opPoint // nil when no device has observations

	// Device-subset memo for shard partials: the same per revision, for at
	// most maxSubsetMemo device lists. The lists come from the request, so
	// the memo is bounded and replaces its entries round robin.
	subMu   sync.Mutex
	subRev  uint64
	subs    []*subsetPoint
	subNext int
}

// maxSubsetMemo bounds the device-subset memo. A shard sees one device
// list per coverage group it answers for, a handful in any topology.
const maxSubsetMemo = 8

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

// ingestDecoded is ingest for a chunk DecodeNDJSON has validated line by
// line against the engine's device count: the class bound and the absorb,
// without a second validation.
func (t *stateTable) ingestDecoded(chunk []Observation) error {
	if err := t.checkClassBound(chunk); err != nil {
		return err
	}
	t.table.Absorb(chunk, t.cfg.now())
	t.ingestClasses(chunk)
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
	for i := range batch {
		c := batch[i].Class
		if c == "" || t.classes[c] != nil || fresh[c] {
			continue
		}
		if fresh == nil {
			fresh = make(map[string]bool)
		}
		fresh[c] = true
		if n++; n > maxTenantClasses {
			return fmt.Errorf("%w: tenant class %q would exceed the %d-class limit",
				ErrBadQuery, c, maxTenantClasses)
		}
	}
	return nil
}

// ingestClasses routes the class-labelled observations of an already
// accepted batch into their tenant partitions, creating partitions lazily.
// Each class present takes one pass over the batch, absorbing its
// observations in place; a batch carries a handful of classes, so the
// passes cost less than a per-batch map. The batch passed aggregate
// validation, so the partitions absorb it without validating again; a
// partition-construction failure would be a config bug and is surfaced
// through the aggregate path's validation at engine start.
func (t *stateTable) ingestClasses(batch []Observation) {
	var seen [4]string
	classes := seen[:0]
	for i := range batch {
		if c := batch[i].Class; c != "" && !slices.Contains(classes, c) {
			classes = append(classes, c)
		}
	}
	if len(classes) == 0 {
		return
	}
	now := t.cfg.now()
	for _, class := range classes {
		tab, err := t.classTable(class)
		if err != nil {
			continue // bounded above; unreachable after checkClassBound
		}
		tab.AbsorbClass(batch, class, now)
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

// opPoint is one derivation of the current operating point: the
// per-device metrics, their quantized key (opKey) and the aggregate rates.
// It is immutable once built.
type opPoint struct {
	ms  []core.OnlineMetrics
	key string
	// rate and writeRate are the aggregate read request and PUT replica
	// rates of the window.
	rate, writeRate float64
}

// snapshotKeyed returns the current operating point, memoized on the table
// revision: repeated queries at a stable operating point share one
// derivation, one key string and one pair of rate sums. Idle devices are
// omitted (they contribute nothing to the system mixture); ErrNotReady is
// returned when no device has observations.
func (t *stateTable) snapshotKeyed() (*opPoint, error) {
	rev := t.table.Revision()
	t.snapMu.Lock()
	defer t.snapMu.Unlock()
	if !t.snapValid || t.snapRev != rev {
		t.snap = nil
		if ms := t.table.Snapshot(); len(ms) > 0 {
			p := &opPoint{ms: ms, key: opKey(ms)}
			for _, m := range ms {
				p.rate += m.Rate
				p.writeRate += m.WriteRate
			}
			t.snap = p
		}
		t.snapRev, t.snapValid = rev, true
	}
	if t.snap == nil {
		return nil, ErrNotReady
	}
	return t.snap, nil
}

// subsetPoint is one derivation of a device subset's operating point — the
// shard-local slice of the cluster mixture. It is immutable once built.
type subsetPoint struct {
	devs []int // the requested list, owned by the memo
	ms   []core.OnlineMetrics
	// covered counts the listed devices that contributed an operating point.
	covered int
	key     string // opKey(ms)
}

// snapshotDevices returns the current operating point of a device subset,
// memoized on the table revision and the device list like snapshotKeyed.
// Idle devices in the subset are skipped. Unlike snapshotKeyed, an empty
// result is not an error: a shard that has not yet ingested for its devices
// legitimately contributes zero weight to the merged mixture.
func (t *stateTable) snapshotDevices(devs []int) (*subsetPoint, error) {
	rev := t.table.Revision()
	t.subMu.Lock()
	defer t.subMu.Unlock()
	if t.subRev != rev {
		clear(t.subs)
		t.subs, t.subRev = t.subs[:0], rev
	}
	for _, p := range t.subs {
		if slices.Equal(p.devs, devs) {
			return p, nil
		}
	}
	ms, covered, err := t.table.SnapshotDevices(devs)
	if err != nil {
		return nil, wrapIngestErr(err)
	}
	p := &subsetPoint{devs: slices.Clone(devs), ms: ms, covered: covered, key: opKey(ms)}
	if len(t.subs) < maxSubsetMemo {
		t.subs = append(t.subs, p)
	} else {
		t.subs[t.subNext] = p
		t.subNext = (t.subNext + 1) % maxSubsetMemo
	}
	return p, nil
}

// deviceRates returns every device's windowed request and PUT rates (0 when
// idle) — the warm-start state a restarted router rebuilds its rate tracker
// from.
func (t *stateTable) deviceRates() (reads, writes []float64) { return t.table.DeviceRates() }

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

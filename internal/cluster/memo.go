package cluster

import (
	"encoding/binary"
	"math"
	"sync"
	"sync/atomic"
)

// answerMemo keeps the router's /predict answers for one router epoch.
//
// A merged answer is a function of what the tier has ingested, the shards'
// states and the live set (paper Eq. 3 makes the merge exact, so nothing
// else enters it). The epoch is one counter that moves on every change to
// any of them: an ingest forward, a warmup seed, a new live set, and a
// shard cache generation or table revision differing from the last one
// seen. An answer fanned out at epoch e is served again only while the
// epoch still reads e, so a hit writes exactly the bytes a fresh fan-out
// would.
type answerMemo struct {
	epoch atomic.Uint64

	mu      sync.Mutex
	entries map[string]memoEntry // key: appendGridKey of the SLA grid
}

type memoEntry struct {
	epoch uint64
	body  []byte // the encoded answer, never modified
}

// memoEntries bounds the memo. A client asks a handful of grids; past
// this many the oldest epochs' entries go first.
const memoEntries = 64

// appendGridKey appends the memo key of an SLA grid: each bound's float
// bits, so grids that parse to the same floats share one answer.
func appendGridKey(b []byte, slas []float64) []byte {
	for _, s := range slas {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(s))
	}
	return b
}

// bump moves the epoch: every memoized answer is stale from here on.
func (m *answerMemo) bump() { m.epoch.Add(1) }

// get returns the answer memoized for key at epoch.
func (m *answerMemo) get(key []byte, epoch uint64) ([]byte, bool) {
	m.mu.Lock()
	e, ok := m.entries[string(key)]
	m.mu.Unlock()
	if !ok || e.epoch != epoch {
		return nil, false
	}
	return e.body, true
}

// put memoizes body as key's answer at epoch, the epoch read before the
// fan-out that produced it. It never replaces a newer epoch's answer.
func (m *answerMemo) put(key []byte, epoch uint64, body []byte) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if e, ok := m.entries[string(key)]; ok {
		if e.epoch <= epoch {
			m.entries[string(key)] = memoEntry{epoch: epoch, body: body}
		}
		return
	}
	if m.entries == nil {
		m.entries = make(map[string]memoEntry, memoEntries)
	}
	if len(m.entries) >= memoEntries {
		oldest := uint64(math.MaxUint64)
		for _, e := range m.entries {
			oldest = min(oldest, e.epoch)
		}
		if epoch < oldest {
			return // older than everything kept: not worth a slot
		}
		for k, e := range m.entries {
			if e.epoch == oldest {
				delete(m.entries, k)
			}
		}
	}
	m.entries[string(key)] = memoEntry{epoch: epoch, body: body}
}

package cluster

import (
	"context"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"cosmodel/internal/serve"
)

// nodeState is one shard node's health bookkeeping.
type nodeState struct {
	up    bool
	fails int    // consecutive failures (probe or live traffic)
	gen   uint64 // last observed cache generation
	rev   uint64 // last probed table revision
}

// prober tracks shard liveness by periodically fetching /shard/state and by
// absorbing live-traffic outcomes the router reports. A node goes down
// after FailThreshold consecutive failures and comes back on the first
// successful probe — recovery needs no restart and no operator action.
// Each probe round also gossips cache generations: replicas lagging the
// group's maximum generation get a /shard/invalidate push, so one replica's
// recalibration invalidates stale predictions cluster-wide (the sync takes
// max-of-generations on the shard side, so gossip converges and a stale
// push can never roll a shard backwards).
//
// Every change a merged answer can see moves the router epoch through
// bump: a new live set, and a node's generation or table revision
// differing from the last one seen. "Differing", not "growing": a
// restarted shard's drop back to zero is a change too.
type prober struct {
	client    *shardClient
	interval  time.Duration
	threshold int
	logf      func(format string, args ...any)
	bump      func()

	mu     sync.Mutex
	states []nodeState
	// live is the up verdicts as an immutable bitmask, replaced under mu on
	// every transition, so readers need no lock.
	live atomic.Pointer[liveMask]

	onTransition func(node int, up bool) // metrics hook, optional

	startOnce sync.Once
	stopOnce  sync.Once
	stop      chan struct{}
	done      chan struct{}
}

func newProber(cfg Config, client *shardClient, bump func()) *prober {
	p := &prober{
		client:    client,
		interval:  cfg.ProbeInterval,
		threshold: cfg.FailThreshold,
		logf:      cfg.Logf,
		bump:      bump,
		states:    make([]nodeState, len(cfg.Nodes)),
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
	}
	// Optimistic start: every node is presumed up until it proves otherwise,
	// so a router booting before its shards merely fails over on the first
	// calls instead of refusing to serve.
	for i := range p.states {
		p.states[i].up = true
	}
	p.publishLocked()
	return p
}

// liveMask is a set of node ids as a bitmask. It is immutable once
// published.
type liveMask struct {
	words []uint64
	count int
}

func (m *liveMask) has(node int) bool { return m.words[node/64]&(1<<(node%64)) != 0 }

func (m *liveMask) equal(o *liveMask) bool { return m == o || slices.Equal(m.words, o.words) }

// publishLocked publishes the current up verdicts and moves the router
// epoch. Callers hold p.mu.
func (p *prober) publishLocked() {
	m := &liveMask{words: make([]uint64, (len(p.states)+63)/64)}
	for n, st := range p.states {
		if st.up {
			m.words[n/64] |= 1 << (n % 64)
			m.count++
		}
	}
	p.live.Store(m)
	p.bump()
}

// liveNodes returns the current up verdicts.
func (p *prober) liveNodes() *liveMask { return p.live.Load() }

// start launches the probe loop; with interval 0 there is no loop (tests
// drive probeOnce explicitly). Idempotent.
func (p *prober) start() {
	p.startOnce.Do(func() {
		if p.interval <= 0 {
			close(p.done)
			return
		}
		go func() {
			defer close(p.done)
			t := time.NewTicker(p.interval)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					ctx, cancel := context.WithTimeout(context.Background(), p.interval)
					p.probeOnce(ctx)
					cancel()
				case <-p.stop:
					return
				}
			}
		}()
	})
}

// close stops the probe loop and waits it out. Safe to call whether or not
// start ran: the stop channel is closed first, so a loop started here (or
// racing with close) exits on its first select.
func (p *prober) close() {
	p.stopOnce.Do(func() { close(p.stop) })
	p.start()
	<-p.done
}

// up reports the node's current liveness verdict.
func (p *prober) up(node int) bool { return p.liveNodes().has(node) }

// note absorbs one observation of a node (probe or live traffic): success
// revives it immediately, failures accumulate toward the threshold.
func (p *prober) note(node int, ok bool) {
	p.mu.Lock()
	st := &p.states[node]
	was := st.up
	if ok {
		st.fails = 0
		st.up = true
	} else {
		st.fails++
		if st.fails >= p.threshold {
			st.up = false
		}
	}
	now := st.up
	if was != now {
		p.publishLocked()
	}
	p.mu.Unlock()
	if was != now && p.onTransition != nil {
		p.onTransition(node, now)
	}
}

// noteSuccess / noteFailure absorb live-traffic outcomes from the router.
func (p *prober) noteSuccess(node int) { p.note(node, true) }
func (p *prober) noteFailure(node int) { p.note(node, false) }

// observeGeneration records a generation seen on a live response (partial
// answers piggyback it), keeping gossip fresh between probe rounds.
func (p *prober) observeGeneration(node int, gen uint64) {
	p.mu.Lock()
	st := &p.states[node]
	changed := st.gen != gen
	st.gen = gen
	p.mu.Unlock()
	if changed {
		p.bump()
	}
}

// observeState records a probed node's generation and table revision.
func (p *prober) observeState(node int, st serve.ShardStateResponse) {
	p.mu.Lock()
	ns := &p.states[node]
	changed := ns.gen != st.Generation || ns.rev != st.Revision
	ns.gen, ns.rev = st.Generation, st.Revision
	p.mu.Unlock()
	if changed {
		p.bump()
	}
}

// snapshot returns a copy of the per-node states.
func (p *prober) snapshot() []nodeState {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]nodeState, len(p.states))
	copy(out, p.states)
	return out
}

// probeOnce probes every node concurrently, then gossips generations: any
// up node lagging the maximum observed generation is pushed forward.
func (p *prober) probeOnce(ctx context.Context) {
	var wg sync.WaitGroup
	for n := range p.states {
		wg.Add(1)
		go func(node int) {
			defer wg.Done()
			st, err := p.client.getState(ctx, node)
			if err != nil {
				p.note(node, false)
				return
			}
			p.note(node, true)
			p.observeState(node, st)
		}(n)
	}
	wg.Wait()

	states := p.snapshot()
	var maxGen uint64
	for _, st := range states {
		if st.up && st.gen > maxGen {
			maxGen = st.gen
		}
	}
	for n, st := range states {
		if !st.up || st.gen >= maxGen {
			continue
		}
		node := n
		if err := p.client.postInvalidate(ctx, node, maxGen); err != nil {
			if p.logf != nil {
				p.logf("cluster: generation gossip to node %d: %v", node, err)
			}
			continue
		}
		p.observeGeneration(node, maxGen)
	}
}

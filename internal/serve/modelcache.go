package serve

import (
	"container/list"
	"context"
	"errors"
	"sync"
)

// cachedValue is one memoized prediction: the fractions of requests
// meeting each SLA of a grid at a quantized operating point, or the fact
// that the operating point is saturated (core.ErrOverload — a legitimate,
// cacheable answer). A shard partial entry carries its weighted sums in ps
// and the local mixture rate in rate.
type cachedValue struct {
	ps        []float64
	saturated bool
	rate      float64
}

// modelCache memoizes predictions keyed by quantized operating point. It
// reuses the ideas of internal/cache's byte-LRU (recency list + map) but is
// keyed by operating point, generation-aware — Invalidate makes every
// existing entry stale without touching it, so a recalibration never serves
// predictions computed from old device properties — and deduplicating:
// concurrent lookups of the same key block on a single computation
// (singleflight) instead of inverting the same transform in parallel.
type modelCache struct {
	mu       sync.Mutex
	capacity int
	gen      uint64
	ll       *list.List               // front = most recently used
	items    map[string]*list.Element // key -> element holding *cacheEntry
	hits     uint64                   // lookups served from memory or deduped onto an in-flight computation
	misses   uint64                   // lookups that had to compute
	// budget bounds a lookup that waits or computes (nil: no bound). A hit
	// on a finished entry never arms it.
	budget func(context.Context) (context.Context, context.CancelFunc)
}

type cacheEntry struct {
	key   string
	gen   uint64
	ready chan struct{} // closed once val/err are set
	val   cachedValue
	err   error
}

func newModelCache(capacity int, budget func(context.Context) (context.Context, context.CancelFunc)) *modelCache {
	if capacity < 1 {
		capacity = 1
	}
	return &modelCache{
		capacity: capacity,
		ll:       list.New(),
		items:    make(map[string]*list.Element),
		budget:   budget,
	}
}

// do returns the cached value for key, computing it with fn exactly once
// per (key, generation) no matter how many goroutines ask concurrently.
// cached reports whether the caller was served without running fn itself.
// A computation that fails with a non-cacheable error is forgotten so later
// lookups retry.
//
// ctx governs the caller's wait, not the shared computation: a waiter whose
// context expires abandons the entry immediately (the computing goroutine
// finishes and caches on its own), and a waiter whose computing owner was
// itself cancelled retries the lookup — one request's client hanging up
// must never poison the answer for everyone deduplicated behind it.
//
// The budget is armed once per call, the first time the caller has to wait
// or compute, and spans its retries: a waiter that takes over from an owner
// whose budget ran out inherits what is left of its own, so n identical
// concurrent lookups all end within about one budget.
func (c *modelCache) do(ctx context.Context, key string, fn func(context.Context) (cachedValue, error)) (v cachedValue, cached bool, err error) {
	var cancel context.CancelFunc
	defer func() {
		if cancel != nil {
			cancel()
		}
	}()
	arm := func() {
		if cancel == nil && c.budget != nil {
			ctx, cancel = c.budget(ctx)
		}
	}
	for {
		c.mu.Lock()
		if el, ok := c.items[key]; ok {
			e := el.Value.(*cacheEntry)
			if e.gen == c.gen {
				c.hits++
				c.ll.MoveToFront(el)
				c.mu.Unlock()
				select {
				case <-e.ready:
					if e.err == nil {
						return e.val, true, nil
					}
				default:
				}
				arm()
				select {
				case <-e.ready:
				case <-ctx.Done():
					return cachedValue{}, false, ctx.Err()
				}
				if e.err != nil && isContextErr(e.err) && ctx.Err() == nil {
					// The owner's client hung up mid-computation but ours is
					// still here: take over with a fresh lookup.
					continue
				}
				return e.val, true, e.err
			}
			// Stale generation: drop and recompute below.
			c.removeLocked(el)
		}
		e := &cacheEntry{key: key, gen: c.gen, ready: make(chan struct{})}
		el := c.ll.PushFront(e)
		c.items[key] = el
		c.misses++
		for c.ll.Len() > c.capacity {
			// Evicting an in-flight entry is safe: waiters hold the entry
			// pointer and its ready channel is still closed by the computer.
			c.removeLocked(c.ll.Back())
		}
		c.mu.Unlock()

		arm()
		e.val, e.err = fn(ctx)
		close(e.ready)
		if e.err != nil {
			c.mu.Lock()
			if cur, ok := c.items[key]; ok && cur.Value.(*cacheEntry) == e {
				c.removeLocked(cur)
			}
			c.mu.Unlock()
		}
		return e.val, false, e.err
	}
}

// isContextErr reports whether err is (or wraps) a context cancellation or
// deadline error.
func isContextErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// invalidate makes every current entry stale (a new generation).
func (c *modelCache) invalidate() {
	c.mu.Lock()
	c.gen++
	c.mu.Unlock()
}

// invalidateTo raises the generation to at least gen — the cluster
// generation-gossip primitive. Taking the max (never stepping backwards)
// makes concurrent syncs from multiple routers converge instead of
// ping-ponging: a replica that already recalibrated past gen keeps its newer
// generation, and a lagging replica jumps forward exactly once.
func (c *modelCache) invalidateTo(gen uint64) {
	c.mu.Lock()
	if gen > c.gen {
		c.gen = gen
	}
	c.mu.Unlock()
}

// generation returns the current cache generation.
func (c *modelCache) generation() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.gen
}

// cacheStats is a point-in-time view of the cache counters.
type cacheStats struct {
	Hits       uint64
	Misses     uint64
	Entries    int
	Generation uint64
}

func (s cacheStats) hitRatio() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

func (c *modelCache) stats() cacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return cacheStats{Hits: c.hits, Misses: c.misses, Entries: c.ll.Len(), Generation: c.gen}
}

func (c *modelCache) removeLocked(el *list.Element) {
	e := el.Value.(*cacheEntry)
	c.ll.Remove(el)
	delete(c.items, e.key)
}

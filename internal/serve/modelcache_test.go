package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// ctxBG saves typing in tests that don't exercise cancellation.
var ctxBG = context.Background()

func TestModelCacheMemoizes(t *testing.T) {
	c := newModelCache(16, nil)
	calls := 0
	fn := func(context.Context) (cachedValue, error) {
		calls++
		return cachedValue{rate: 0.9}, nil
	}
	v, cached, err := c.do(ctxBG, "k", fn)
	if err != nil || cached || v.rate != 0.9 {
		t.Fatalf("first call: v=%v cached=%v err=%v", v, cached, err)
	}
	v, cached, err = c.do(ctxBG, "k", fn)
	if err != nil || !cached || v.rate != 0.9 {
		t.Fatalf("second call: v=%v cached=%v err=%v", v, cached, err)
	}
	if calls != 1 {
		t.Errorf("fn ran %d times, want 1", calls)
	}
	st := c.stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Errorf("stats %+v", st)
	}
	if got := st.hitRatio(); got != 0.5 {
		t.Errorf("hit ratio %v, want 0.5", got)
	}
}

// TestModelCacheBudgetOnlyOffHits checks that the evaluation budget is
// armed for the computing lookup and for a waiter, and never for a hit on
// a finished entry.
func TestModelCacheBudgetOnlyOffHits(t *testing.T) {
	var armed atomic.Int32
	c := newModelCache(16, func(ctx context.Context) (context.Context, context.CancelFunc) {
		armed.Add(1)
		return context.WithCancel(ctx)
	})
	release := make(chan struct{})
	fn := func(context.Context) (cachedValue, error) {
		<-release
		return cachedValue{rate: 1}, nil
	}
	done := make(chan struct{})
	go func() { c.do(ctxBG, "k", fn); close(done) }() //nolint:errcheck // only the budget count matters
	for armed.Load() != 1 {
		runtime.Gosched()
	}
	waited := make(chan struct{})
	go func() { c.do(ctxBG, "k", fn); close(waited) }() //nolint:errcheck // only the budget count matters
	for armed.Load() != 2 {
		runtime.Gosched()
	}
	close(release)
	<-done
	<-waited
	if _, cached, err := c.do(ctxBG, "k", fn); err != nil || !cached {
		t.Fatalf("hit: cached=%v err=%v", cached, err)
	}
	if n := armed.Load(); n != 2 {
		t.Errorf("budget armed %d times, want 2 (owner and waiter, not the hit)", n)
	}
}

func TestModelCacheGeneration(t *testing.T) {
	c := newModelCache(16, nil)
	calls := 0
	fn := func(context.Context) (cachedValue, error) {
		calls++
		return cachedValue{rate: float64(calls)}, nil
	}
	c.do(ctxBG, "k", fn) //nolint:errcheck
	c.invalidate()
	v, cached, err := c.do(ctxBG, "k", fn)
	if err != nil || cached {
		t.Fatalf("stale entry served: v=%v cached=%v err=%v", v, cached, err)
	}
	if v.rate != 2 {
		t.Errorf("got stale value %v", v.rate)
	}
	if calls != 2 {
		t.Errorf("fn ran %d times, want 2 (recompute after invalidate)", calls)
	}
	if gen := c.stats().Generation; gen != 1 {
		t.Errorf("generation %d", gen)
	}
}

func TestModelCacheErrorNotCached(t *testing.T) {
	c := newModelCache(16, nil)
	boom := errors.New("boom")
	calls := 0
	if _, _, err := c.do(ctxBG, "k", func(context.Context) (cachedValue, error) { calls++; return cachedValue{}, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	v, cached, err := c.do(ctxBG, "k", func(context.Context) (cachedValue, error) { calls++; return cachedValue{rate: 1}, nil })
	if err != nil || cached || v.rate != 1 {
		t.Fatalf("retry after error: v=%v cached=%v err=%v", v, cached, err)
	}
	if calls != 2 {
		t.Errorf("fn ran %d times, want 2", calls)
	}
}

func TestModelCacheEvicts(t *testing.T) {
	c := newModelCache(4, nil)
	for i := 0; i < 10; i++ {
		key := fmt.Sprintf("k%d", i)
		c.do(ctxBG, key, func(context.Context) (cachedValue, error) { return cachedValue{rate: float64(i)}, nil }) //nolint:errcheck
	}
	if st := c.stats(); st.Entries > 4 {
		t.Errorf("entries %d exceed capacity 4", st.Entries)
	}
	// Most recent key still resident.
	_, cached, _ := c.do(ctxBG, "k9", func(context.Context) (cachedValue, error) { return cachedValue{}, nil })
	if !cached {
		t.Error("most recently used entry was evicted")
	}
	// Oldest key evicted.
	_, cached, _ = c.do(ctxBG, "k0", func(context.Context) (cachedValue, error) { return cachedValue{}, nil })
	if cached {
		t.Error("least recently used entry survived beyond capacity")
	}
}

// TestModelCacheSingleflight checks that concurrent lookups of one key run
// the computation exactly once and everyone gets its value.
func TestModelCacheSingleflight(t *testing.T) {
	c := newModelCache(16, nil)
	var calls atomic.Int64
	gate := make(chan struct{})
	const waiters = 16
	var wg sync.WaitGroup
	values := make([]float64, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, _, err := c.do(ctxBG, "k", func(context.Context) (cachedValue, error) {
				calls.Add(1)
				<-gate // hold the computation open so everyone piles up
				return cachedValue{rate: 0.75}, nil
			})
			if err != nil {
				t.Error(err)
				return
			}
			values[i] = v.rate
		}(i)
	}
	close(gate)
	wg.Wait()
	if n := calls.Load(); n != 1 {
		t.Errorf("computation ran %d times, want 1", n)
	}
	for i, v := range values {
		if v != 0.75 {
			t.Errorf("waiter %d got %v", i, v)
		}
	}
	st := c.stats()
	if st.Misses != 1 || st.Hits != waiters-1 {
		t.Errorf("stats %+v, want 1 miss and %d hits", st, waiters-1)
	}
}

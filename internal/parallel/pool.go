// Package parallel provides the bounded worker pool behind the model's
// device-parallel evaluation engine and the experiment sweep drivers.
//
// The pool is deliberately tiny: a semaphore bounding helper goroutines plus
// a work-stealing ForEach. Two properties matter to its callers:
//
//   - The calling goroutine always participates in the fan-out, so nested
//     ForEach calls (a pooled experiment sweep whose steps evaluate pooled
//     device mixtures) can never deadlock — when the helper budget is
//     exhausted an inner call simply degrades to a sequential loop.
//   - Results are written by iteration index, never reduced concurrently,
//     so callers that fold results in index order get deterministic output
//     regardless of scheduling.
//
// ForEachContext adds the fail-safe variant the serving stack is built on:
// cooperative cancellation between iterations and panic capture, so a
// poisoned task surfaces as an error on the caller instead of killing the
// process or leaking a helper token.
package parallel

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Pool bounds the helper goroutines used by ForEach fan-outs. A nil *Pool
// is valid and means "no helpers": ForEach runs every iteration inline on
// the caller. Pools are safe for concurrent use; the helper budget is
// shared by all concurrent ForEach calls on the same pool.
type Pool struct {
	helpers chan struct{} // semaphore: one token per live helper goroutine

	// Utilization meters, read by observability gauges. A nil pool runs
	// sequentially and meters nothing.
	tasks atomic.Uint64 // iterations completed (or failed) across all fan-outs
	busy  atomic.Int64  // goroutines currently inside fn, caller included
}

// New returns a pool allowing up to workers goroutines per fan-out,
// counting the calling goroutine. workers <= 1 returns nil: a purely
// sequential pool.
func New(workers int) *Pool {
	if workers <= 1 {
		return nil
	}
	return &Pool{helpers: make(chan struct{}, workers-1)}
}

var defaultPool = sync.OnceValue(func() *Pool { return New(runtime.GOMAXPROCS(0)) })

// Default returns the process-wide shared pool, sized to GOMAXPROCS at
// first use. With GOMAXPROCS=1 it is nil (sequential).
func Default() *Pool { return defaultPool() }

// Workers reports the concurrency bound of the pool, counting the caller.
func (p *Pool) Workers() int {
	if p == nil {
		return 1
	}
	return cap(p.helpers) + 1
}

// Tasks reports the total number of iterations the pool has executed across
// all fan-outs (including failed and panicked ones). 0 for a nil pool.
func (p *Pool) Tasks() uint64 {
	if p == nil {
		return 0
	}
	return p.tasks.Load()
}

// Busy reports how many goroutines are currently executing an iteration,
// callers included — an instantaneous utilization reading against Workers.
// 0 for a nil pool.
func (p *Pool) Busy() int {
	if p == nil {
		return 0
	}
	return int(p.busy.Load())
}

// HelpersInUse reports how many helper goroutines are currently live —
// the pool's instantaneous queue depth against its helper budget
// (Workers - 1). 0 for a nil pool.
func (p *Pool) HelpersInUse() int {
	if p == nil {
		return 0
	}
	return len(p.helpers)
}

// PanicError is the error a panicking task is converted into by
// ForEachContext: the panic is recovered on the worker, captured with its
// stack, and returned to the caller instead of unwinding through the pool.
// A panicking task therefore can never kill the process, strand a helper
// token, or deadlock sibling workers.
type PanicError struct {
	// Value is the value the task panicked with.
	Value any
	// Stack is the stack trace captured at the recovery point.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("parallel: task panicked: %v", e.Value)
}

// IsPanic reports whether err carries a task panic captured by the pool.
func IsPanic(err error) bool {
	var pe *PanicError
	return errors.As(err, &pe)
}

// ForEach runs fn(i) for every i in [0, n) and returns once all iterations
// have completed. Iterations are spread across the calling goroutine plus
// as many helper goroutines as the pool's remaining budget allows (at most
// n-1). fn must be safe for concurrent invocation with distinct indices
// and must not assume any iteration ordering. If any iteration panics, the
// remaining iterations are abandoned and the first panic is re-raised on
// the calling goroutine.
func (p *Pool) ForEach(n int, fn func(int)) {
	err := p.ForEachContext(context.Background(), n, func(i int) error {
		fn(i)
		return nil
	})
	var pe *PanicError
	if errors.As(err, &pe) {
		panic(pe.Value)
	}
}

// Do runs fn once on the calling goroutine as one task of the pool: a
// panic in fn is recovered and returned as a *PanicError, exactly as
// ForEachContext returns a panicking iteration's. A nil pool runs fn the
// same way, without the busy and task accounting.
func (p *Pool) Do(fn func() error) (err error) {
	if p != nil {
		p.busy.Add(1)
		defer p.busy.Add(-1)
		defer p.tasks.Add(1)
	}
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	return fn()
}

// ForEachContext runs fn(i) for every i in [0, n) with cooperative
// cancellation and panic capture. Scheduling stops as soon as ctx is done or
// any iteration fails; iterations already running are allowed to finish
// (fn itself must poll ctx if a single iteration can be long). The first
// failure wins and is returned: a task error, a *PanicError wrapping a task
// panic, or ctx.Err(). A nil return means every iteration ran and
// succeeded. Like ForEach, the calling goroutine participates, so nested
// calls cannot deadlock, and helper tokens are always returned — even when
// tasks panic.
func (p *Pool) ForEachContext(ctx context.Context, n int, fn func(int) error) error {
	if n <= 0 {
		return nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	var (
		next     atomic.Int64
		failure  atomic.Pointer[error]
		wg       sync.WaitGroup
		done     = ctx.Done()
		fail     = func(err error) { failure.CompareAndSwap(nil, &err) }
		safeCall = func(i int) error { return p.Do(func() error { return fn(i) }) }
	)
	run := func() {
		for failure.Load() == nil {
			if done != nil {
				select {
				case <-done:
					fail(ctx.Err())
					return
				default:
				}
			}
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			if err := safeCall(i); err != nil {
				fail(err)
				return
			}
		}
	}
	if p != nil && n > 1 {
	spawn:
		for spawned := 0; spawned < n-1; spawned++ {
			select {
			case p.helpers <- struct{}{}:
				wg.Add(1)
				go func() {
					defer wg.Done()
					defer func() { <-p.helpers }()
					run()
				}()
			default:
				break spawn // budget exhausted; the caller picks up the slack
			}
		}
	}
	run()
	wg.Wait()
	if e := failure.Load(); e != nil {
		return *e
	}
	return nil
}

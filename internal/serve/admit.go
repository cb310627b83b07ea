package serve

import (
	"context"
	"errors"
	"sync"
	"time"
)

// This file is the server's overload front door: a bounded admission queue
// ahead of the identify pool. The ladder, in order of pressure: admit (a
// running slot is free) → queue (bounded wait for one) → shed (429 once the
// queue is full or the wait exceeds its budget). Shedding early and cheaply
// is what keeps the latency of *admitted* requests bounded when offered
// load exceeds capacity — the load harness (cmd/gparload -overload)
// measures exactly that.

// Shed verdicts, distinguished so the handler can phrase the 429 and the
// counters can tell queue-full (instant reject) from queue-timeout (waited,
// then gave up).
var (
	errQueueFull    = errors.New("serve: admission queue full")
	errQueueTimeout = errors.New("serve: admission queue wait exceeded budget")
)

// admitter is the bounded admission queue: at most cap(slots) requests
// evaluate concurrently, at most maxQueue more wait for a slot, and no
// request waits longer than timeout. Everything beyond that is shed
// immediately — a full queue means the server is already running at
// capacity plus a timeout's worth of backlog, so the honest answer is 429
// now, not 200 in ten seconds.
type admitter struct {
	slots    chan struct{}
	queued   int64 // guarded by mu
	mu       sync.Mutex
	maxQueue int
	timeout  time.Duration
}

func newAdmitter(running, maxQueue int, timeout time.Duration) *admitter {
	if running < 1 {
		running = 1
	}
	return &admitter{
		slots:    make(chan struct{}, running),
		maxQueue: maxQueue,
		timeout:  timeout,
	}
}

// admit blocks until a running slot is free, the queue budget is exceeded
// (errQueueFull / errQueueTimeout), or ctx is done (its error). On success
// the caller must invoke release exactly once when its evaluation finishes.
func (a *admitter) admit(ctx context.Context) (release func(), err error) {
	release = func() { <-a.slots }
	select {
	case a.slots <- struct{}{}:
		return release, nil
	default:
	}
	a.mu.Lock()
	if a.queued >= int64(a.maxQueue) {
		a.mu.Unlock()
		return nil, errQueueFull
	}
	a.queued++
	a.mu.Unlock()
	defer func() {
		a.mu.Lock()
		a.queued--
		a.mu.Unlock()
	}()
	t := time.NewTimer(a.timeout)
	defer t.Stop()
	select {
	case a.slots <- struct{}{}:
		return release, nil
	case <-t.C:
		return nil, errQueueTimeout
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// depth is the current queue depth — the saturation signal /stats exposes:
// a persistently non-zero depth means shedding is imminent.
func (a *admitter) depth() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.queued
}

// inUse is how many admitted requests are currently evaluating.
func (a *admitter) inUse() int { return len(a.slots) }

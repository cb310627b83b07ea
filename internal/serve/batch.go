package serve

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Batcher coalesces concurrent executions that share a key into one: the
// first caller (the leader) runs fn, every caller that arrives while it is
// in flight blocks and receives the leader's result. This turns a stampede
// of identical identify queries into a single match execution.
type Batcher[V any] struct {
	mu       sync.Mutex
	inflight map[string]*batchCall[V]

	executions atomic.Int64
	coalesced  atomic.Int64
}

type batchCall[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// BatchStats is a point-in-time counter snapshot for /stats.
type BatchStats struct {
	Executions int64 `json:"executions"`
	Coalesced  int64 `json:"coalesced"`
}

// NewBatcher returns an empty Batcher.
func NewBatcher[V any]() *Batcher[V] {
	return &Batcher[V]{inflight: make(map[string]*batchCall[V])}
}

// Do executes fn under key, coalescing with any in-flight call for the same
// key. shared reports whether this call joined another's execution rather
// than running fn itself. If fn panics, the callers that joined it get an
// error, the key is released for the next caller, and the panic continues
// on the goroutine that ran fn.
func (b *Batcher[V]) Do(key string, fn func() (V, error)) (v V, shared bool, err error) {
	b.mu.Lock()
	if c, ok := b.inflight[key]; ok {
		b.mu.Unlock()
		b.coalesced.Add(1) // on joining, so the count includes callers still waiting
		<-c.done
		return c.val, true, c.err
	}
	c := &batchCall[V]{done: make(chan struct{})}
	b.inflight[key] = c
	b.mu.Unlock()

	defer func() {
		rec := recover()
		if rec != nil {
			c.err = fmt.Errorf("serve: coalesced evaluation panicked: %v", rec)
		}
		b.mu.Lock()
		delete(b.inflight, key)
		b.mu.Unlock()
		close(c.done)
		if rec != nil {
			panic(rec)
		}
	}()
	c.val, c.err = fn()
	b.executions.Add(1)
	return c.val, false, c.err
}

// Stats returns current counters.
func (b *Batcher[V]) Stats() BatchStats {
	return BatchStats{
		Executions: b.executions.Load(),
		Coalesced:  b.coalesced.Load(),
	}
}

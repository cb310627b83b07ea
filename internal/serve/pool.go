package serve

import (
	"sync"
	"sync/atomic"
)

// Pool bounds the total matching concurrency of the server. Every rule
// evaluation runs its filter task, then its per-chunk confirm tasks, through
// the one shared Pool: N clients cannot run more than PoolSize at once.
type Pool struct {
	sem chan struct{}
}

// NewPool returns a pool running at most n tasks concurrently. n < 1 is
// treated as 1.
func NewPool(n int) *Pool {
	if n < 1 {
		n = 1
	}
	return &Pool{sem: make(chan struct{}, n)}
}

// Size reports the concurrency bound.
func (p *Pool) Size() int { return cap(p.sem) }

// InUse reports how many tasks hold a slot right now — the /stats
// saturation signal for the identify pool.
func (p *Pool) InUse() int { return len(p.sem) }

// runOne is Do for one task, on the caller: no goroutine to escape into.
func (p *Pool) runOne(task func()) {
	p.sem <- struct{}{}
	defer func() { <-p.sem }()
	task()
}

// Do runs all tasks, at most Size at a time pool-wide, and waits for them.
// The calling goroutine also executes tasks (it runs the last one inline
// once a slot is free), so Do never deadlocks on an exhausted pool. A task
// that panics gives its slot back, the other tasks still finish, and the
// first panic continues on the caller — never on a pool goroutine, where
// nothing could recover it.
func (p *Pool) Do(tasks ...func()) {
	if len(tasks) == 0 {
		return
	}
	var panicked atomic.Pointer[any]
	run := func(task func()) {
		defer func() {
			if rec := recover(); rec != nil {
				panicked.CompareAndSwap(nil, &rec)
			}
			<-p.sem
		}()
		task()
	}
	var wg sync.WaitGroup
	for _, task := range tasks[:len(tasks)-1] {
		p.sem <- struct{}{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			run(task)
		}()
	}
	// Run the final task on the caller: it charges a slot like the others
	// but keeps the caller productive instead of idle-waiting.
	p.sem <- struct{}{}
	run(tasks[len(tasks)-1])
	wg.Wait()
	if rec := panicked.Load(); rec != nil {
		panic(*rec)
	}
}

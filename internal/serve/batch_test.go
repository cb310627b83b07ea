package serve

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// waitCoalesced blocks until n callers have joined in-flight executions.
func waitCoalesced[V any](t *testing.T, b *Batcher[V], n int64) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); b.Stats().Coalesced < n; {
		if time.Now().After(deadline) {
			t.Fatalf("%d callers joined, want %d", b.Stats().Coalesced, n)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestBatcherCoalescesConcurrentCalls(t *testing.T) {
	b := NewBatcher[int]()
	var calls atomic.Int64
	started := make(chan struct{})
	release := make(chan struct{})
	fn := func() (int, error) {
		calls.Add(1)
		close(started)
		<-release
		return 42, nil
	}

	const n = 16
	var wg sync.WaitGroup
	results := make([]int, n)
	shared := make([]bool, n)
	wg.Add(1)
	go func() { // leader
		defer wg.Done()
		results[0], shared[0], _ = b.Do("k", fn)
	}()
	<-started // fn is in flight; everyone below must coalesce
	for i := 1; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], shared[i], _ = b.Do("k", func() (int, error) {
				t.Error("follower executed fn")
				return 0, nil
			})
		}(i)
	}
	waitCoalesced(t, b, n-1) // every follower is parked behind the leader
	close(release)
	wg.Wait()

	if got := calls.Load(); got != 1 {
		t.Fatalf("fn ran %d times, want 1", got)
	}
	for i, r := range results {
		if r != 42 {
			t.Errorf("caller %d got %d, want 42", i, r)
		}
		if i > 0 && !shared[i] {
			t.Errorf("caller %d not marked shared", i)
		}
	}
	if shared[0] {
		t.Error("leader marked shared")
	}
	st := b.Stats()
	if st.Executions != 1 || st.Coalesced != n-1 {
		t.Errorf("stats %+v, want 1 execution, %d coalesced", st, n-1)
	}
}

func TestBatcherDistinctKeysRunIndependently(t *testing.T) {
	b := NewBatcher[string]()
	a, sharedA, _ := b.Do("a", func() (string, error) { return "va", nil })
	c, sharedC, _ := b.Do("c", func() (string, error) { return "vc", nil })
	if a != "va" || c != "vc" || sharedA || sharedC {
		t.Fatalf("got (%q,%v) (%q,%v)", a, sharedA, c, sharedC)
	}
	if st := b.Stats(); st.Executions != 2 || st.Coalesced != 0 {
		t.Errorf("stats %+v", st)
	}
}

func TestBatcherPropagatesErrors(t *testing.T) {
	b := NewBatcher[int]()
	boom := errors.New("boom")
	_, _, err := b.Do("k", func() (int, error) { return 0, boom })
	if err != boom {
		t.Fatalf("err %v, want boom", err)
	}
	// The failed call is not pinned: a later call re-executes.
	v, shared, err := b.Do("k", func() (int, error) { return 7, nil })
	if v != 7 || shared || err != nil {
		t.Fatalf("retry got (%d,%v,%v)", v, shared, err)
	}
}

// TestBatcherLeaderPanicReleasesKey: a leader whose fn panics must not
// strand the key. The panic continues on the leader's goroutine, a caller
// that had joined gets an error instead of blocking forever, and the next
// Do on the key runs its fn.
func TestBatcherLeaderPanicReleasesKey(t *testing.T) {
	b := NewBatcher[int]()
	started := make(chan struct{})
	release := make(chan struct{})
	leaderPanic := make(chan any, 1)
	go func() {
		defer func() { leaderPanic <- recover() }()
		b.Do("k", func() (int, error) {
			close(started)
			<-release
			panic("boom")
		})
	}()
	<-started

	waiter := make(chan error, 1)
	go func() {
		_, _, err := b.Do("k", func() (int, error) {
			t.Error("waiter executed fn while the leader was in flight")
			return 0, nil
		})
		waiter <- err
	}()
	waitCoalesced(t, b, 1) // the waiter is parked behind the leader
	close(release)

	if rec := <-leaderPanic; rec != "boom" {
		t.Fatalf("leader recovered %v, want its own panic value", rec)
	}
	select {
	case err := <-waiter:
		if err == nil {
			t.Fatal("waiter got no error from the leader's panic")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter still blocked after the leader panicked")
	}
	v, shared, err := b.Do("k", func() (int, error) { return 7, nil })
	if v != 7 || shared || err != nil {
		t.Fatalf("Do after the panic got (%d,%v,%v), want fn to run", v, shared, err)
	}
}

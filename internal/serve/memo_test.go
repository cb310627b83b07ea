package serve

import (
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gpar/internal/mine"
)

// The memo's unit tests. TestBatcher* pin its single-flight half, TestCache*
// its LRU half and TestMineContextCacheUnit the struct-keyed use — the names
// these behaviours have been pinned under since before the three mechanisms
// became one.

// waitCoalesced blocks until n callers have joined builds in flight.
func waitCoalesced[K comparable, V any](t *testing.T, m *memo[K, V], n int64) {
	t.Helper()
	waitFor(t, 10*time.Second, func() bool {
		_, joined := m.Stats()
		return joined >= n
	})
}

// put makes key resident with a finished value.
func put[K comparable](m *memo[K, int], key K) {
	m.GetOrBuild(key, func() (int, error) { return 1, nil })
}

// resident reports whether key has an entry, without touching recency or
// the hit counters.
func resident[K comparable, V any](m *memo[K, V], key K) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, ok := m.byKey[key]
	return ok
}

func TestBatcherCoalescesConcurrentCalls(t *testing.T) {
	m := newMemo[string, int](4)
	var calls atomic.Int64
	started := make(chan struct{})
	release := make(chan struct{})
	build := func() (int, error) {
		calls.Add(1)
		close(started)
		<-release
		return 42, nil
	}

	const n = 16
	var wg sync.WaitGroup
	results := make([]int, n)
	how := make([]memoOutcome, n)
	wg.Add(1)
	go func() { // builder
		defer wg.Done()
		results[0], how[0], _ = m.GetOrBuild("k", build)
	}()
	<-started // build is in flight; everyone below must join it
	for i := 1; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], how[i], _ = m.GetOrBuild("k", func() (int, error) {
				t.Error("joiner ran build")
				return 0, nil
			})
		}(i)
	}
	waitCoalesced(t, m, n-1) // every joiner is parked behind the builder
	close(release)
	wg.Wait()

	if got := calls.Load(); got != 1 {
		t.Fatalf("build ran %d times, want 1", got)
	}
	for i, r := range results {
		if r != 42 {
			t.Errorf("caller %d got %d, want 42", i, r)
		}
		if i > 0 && how[i] != memoJoined {
			t.Errorf("caller %d outcome %d, want joined", i, how[i])
		}
	}
	if how[0] != memoBuilt {
		t.Errorf("builder outcome %d, want built", how[0])
	}
	if st, joined := m.Stats(); st.Misses != 1 || joined != n-1 || st.Hits != 0 {
		t.Errorf("stats %+v joined %d, want 1 build, %d joined, 0 hits", st, joined, n-1)
	}
	if v, h, _ := m.GetOrBuild("k", build); v != 42 || h != memoHit {
		t.Errorf("finished entry answered (%d, %d), want a hit on 42", v, h)
	}
}

func TestBatcherDistinctKeysRunIndependently(t *testing.T) {
	m := newMemo[string, string](4)
	a, howA, _ := m.GetOrBuild("a", func() (string, error) { return "va", nil })
	c, howC, _ := m.GetOrBuild("c", func() (string, error) { return "vc", nil })
	if a != "va" || c != "vc" || howA != memoBuilt || howC != memoBuilt {
		t.Fatalf("got (%q,%v) (%q,%v)", a, howA, c, howC)
	}
	if st, joined := m.Stats(); st.Misses != 2 || joined != 0 {
		t.Errorf("stats %+v joined %d", st, joined)
	}
}

func TestBatcherPropagatesErrors(t *testing.T) {
	m := newMemo[string, int](4)
	boom := errors.New("boom")
	_, _, err := m.GetOrBuild("k", func() (int, error) { return 0, boom })
	if err != boom {
		t.Fatalf("err %v, want boom", err)
	}
	// The failed build is not kept: no entry, no Get, and a later call
	// rebuilds.
	if _, ok := m.Get("k"); ok {
		t.Fatal("Get returned a failed build")
	}
	if st, _ := m.Stats(); st.Entries != 0 {
		t.Fatalf("failed build left %d entries behind", st.Entries)
	}
	v, how, err := m.GetOrBuild("k", func() (int, error) { return 7, nil })
	if v != 7 || how != memoBuilt || err != nil {
		t.Fatalf("retry got (%d,%v,%v)", v, how, err)
	}
}

// TestBatcherLeaderPanicReleasesKey: a builder that panics must not strand
// the key. The panic continues on the builder's goroutine, a caller that
// had joined gets an error instead of blocking forever, and the next
// GetOrBuild on the key runs its build.
func TestBatcherLeaderPanicReleasesKey(t *testing.T) {
	m := newMemo[string, int](4)
	started := make(chan struct{})
	release := make(chan struct{})
	leaderPanic := make(chan any, 1)
	go func() {
		defer func() { leaderPanic <- recover() }()
		m.GetOrBuild("k", func() (int, error) {
			close(started)
			<-release
			panic("boom")
		})
	}()
	<-started

	waiter := make(chan error, 1)
	go func() {
		_, _, err := m.GetOrBuild("k", func() (int, error) {
			t.Error("waiter ran build while the builder was in flight")
			return 0, nil
		})
		waiter <- err
	}()
	waitCoalesced(t, m, 1) // the waiter is parked behind the builder
	close(release)

	if rec := <-leaderPanic; rec != "boom" {
		t.Fatalf("builder recovered %v, want its own panic value", rec)
	}
	select {
	case err := <-waiter:
		if err == nil {
			t.Fatal("waiter got no error from the builder's panic")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter still blocked after the builder panicked")
	}
	v, how, err := m.GetOrBuild("k", func() (int, error) { return 7, nil })
	if v != 7 || how != memoBuilt || err != nil {
		t.Fatalf("GetOrBuild after the panic got (%d,%v,%v), want build to run", v, how, err)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	m := newMemo[string, int](2)
	put(m, "a")
	put(m, "b")
	put(m, "a") // a hit: a is now most recently used
	put(m, "c") // evicts b, the LRU entry
	if resident(m, "b") {
		t.Error("b survived eviction")
	}
	for _, k := range []string{"a", "c"} {
		if !resident(m, k) {
			t.Errorf("%s evicted, want resident", k)
		}
	}
	if st, _ := m.Stats(); st.Evictions != 1 || st.Entries != 2 || st.Hits != 1 || st.Misses != 3 {
		t.Errorf("stats %+v, want 1 eviction, 2 entries, 1 hit, 3 builds", st)
	}
	if !m.Remove("a") || m.Remove("a") || resident(m, "a") {
		t.Error("Remove did not drop a exactly once")
	}
	if st, _ := m.Stats(); st.Evictions != 2 {
		t.Errorf("Remove not counted as an eviction: %+v", st)
	}
}

func TestCachePurge(t *testing.T) {
	m := newMemo[string, int](8)
	for i := 0; i < 5; i++ {
		put(m, fmt.Sprintf("k%d", i))
	}
	if n := m.Purge(); n != 5 {
		t.Fatalf("purged %d, want 5", n)
	}
	if resident(m, "k0") {
		t.Error("entry survived purge")
	}
	if st, _ := m.Stats(); st.Entries != 0 || st.Purges != 1 {
		t.Errorf("stats %+v after purge", st)
	}
	if n := m.Purge(); n != 0 {
		t.Errorf("second purge dropped %d", n)
	}
	if st, _ := m.Stats(); st.Purges != 1 {
		t.Errorf("empty purge counted: %+v", st)
	}
}

func TestCacheMinimumCapacity(t *testing.T) {
	m := newMemo[string, int](0)
	put(m, "a")
	put(m, "b")
	if !resident(m, "b") {
		t.Error("latest entry missing from capacity-1 memo")
	}
	if st, _ := m.Stats(); st.Entries != 1 || st.Capacity != 1 {
		t.Errorf("stats %+v, want 1 entry of capacity 1", st)
	}
}

func TestCacheConcurrentAccess(t *testing.T) {
	m := newMemo[string, int](16)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				k := fmt.Sprintf("k%d", (i+j)%32)
				switch j % 5 {
				case 0:
					m.Remove(k)
				case 1:
					to := fmt.Sprintf("k%d", (i+j+1)%32)
					m.Retarget(func(key string) (string, bool) {
						if key == k {
							return to, true
						}
						return key, true
					})
				default:
					if v, _, err := m.GetOrBuild(k, func() (int, error) { return j, nil }); err != nil || v < 0 {
						t.Errorf("GetOrBuild(%s) = %d, %v", k, v, err)
					}
				}
			}
		}(i)
	}
	wg.Wait()
	if st, _ := m.Stats(); st.Entries > 16 {
		t.Errorf("entries %d exceed capacity", st.Entries)
	}
}

// TestRetargetMovesInFlightBuild: the publish walk moves a build still in
// flight to its new key and drops the entry it rejects. The waiter joined
// under the old key still gets the value, which then answers the new key;
// the rejected key is gone, and the drop counts one purge.
func TestRetargetMovesInFlightBuild(t *testing.T) {
	m := newMemo[string, int](4)
	put(m, "old-b")
	started, release := make(chan struct{}), make(chan struct{})
	builder := make(chan int, 1)
	go func() {
		v, _, _ := m.GetOrBuild("old-a", func() (int, error) {
			close(started)
			<-release
			return 42, nil
		})
		builder <- v
	}()
	<-started
	waiter := make(chan int, 1)
	go func() {
		v, _, _ := m.GetOrBuild("old-a", func() (int, error) { return 0, errors.New("waiter built") })
		waiter <- v
	}()
	waitCoalesced(t, m, 1)
	kept, dropped := m.Retarget(func(k string) (string, bool) { return "new" + k[3:], k == "old-a" })
	if kept != 1 || dropped != 1 || resident(m, "old-a") || resident(m, "new-b") || !resident(m, "new-a") {
		t.Fatalf("retarget kept %d, dropped %d", kept, dropped)
	}
	if _, ok := m.Get("new-a"); ok {
		t.Fatal("Get returned a build still in flight")
	}
	close(release)
	if b, w := <-builder, <-waiter; b != 42 || w != 42 {
		t.Fatalf("builder got %d, waiter %d, want 42", b, w)
	}
	if v, ok := m.Get("new-a"); !ok || v != 42 {
		t.Fatalf("Get(new-a) = %d, %v after the build, want 42", v, ok)
	}
	if st, _ := m.Stats(); st.Purges != 1 || st.Entries != 1 {
		t.Errorf("stats %+v, want one purge and one entry", st)
	}
}

// TestPutEvictsLeastRecentlyUsed: Put inserts a finished value as the most
// recently used, Get counts as a use, and past capacity the least recently
// used entry goes.
func TestPutEvictsLeastRecentlyUsed(t *testing.T) {
	m := newMemo[string, int](2)
	m.Put("a", 1)
	m.Put("b", 2)
	m.Get("a") // b is now the least recently used
	m.Put("c", 3)
	if resident(m, "b") || !resident(m, "a") || !resident(m, "c") {
		t.Fatal("Put did not evict the least recently used entry")
	}
	m.Put("a", 4) // a replacement is not an eviction
	if v, ok := m.Get("a"); !ok || v != 4 {
		t.Fatalf("Get(a) = %d, %v after a second Put, want 4", v, ok)
	}
	if st, _ := m.Stats(); st.Evictions != 1 || st.Entries != 2 || st.Hits != 2 || st.Misses != 4 {
		t.Errorf("stats %+v, want 1 eviction, 2 entries, 2 hits, 4 puts", st)
	}
}

// TestMineContextCacheUnit exercises the memo as the mine-context cache uses
// it: hit on a repeated key, separate builds across keys differing in one
// field, eviction of the least recently used context, Remove and Purge.
func TestMineContextCacheUnit(t *testing.T) {
	m := newMemo[MineCtxKey, *mine.Context](2)
	builds := 0
	built := func(k MineCtxKey) bool {
		_, how, _ := m.GetOrBuild(k, func() (*mine.Context, error) {
			builds++
			return nil, nil // the memo never dereferences contexts
		})
		return how == memoBuilt
	}

	k1 := MineCtxKey{Gen: 1, XLabel: 3, D: 2}
	k2 := MineCtxKey{Gen: 1, XLabel: 3, D: 3} // differing d
	k3 := MineCtxKey{Gen: 1, XLabel: 5, D: 2} // differing xLabel

	if !built(k1) {
		t.Fatal("first lookup reported a hit")
	}
	if built(k1) {
		t.Fatal("repeat lookup missed")
	}
	if !built(k2) {
		t.Fatal("differing d hit k1's context")
	}
	if !built(k3) {
		t.Fatal("differing xLabel hit a cached context")
	}
	// Capacity 2: inserting k3 must have evicted the LRU entry (k1 — it
	// was touched before k2).
	if !built(k1) {
		t.Fatal("evicted key still reported a hit")
	}
	if st, _ := m.Stats(); st.Evictions != 2 || st.Hits != 1 || st.Misses != 4 || builds != 4 {
		t.Fatalf("stats = %+v after %d builds, want hits=1 misses=4 evictions=2", st, builds)
	}
	// Remove (the stale-generation path of runMine) drops one entry and
	// is a no-op for absent keys.
	m.Remove(k1)
	if !built(k1) {
		t.Fatal("removed key still reported a hit")
	}
	m.Remove(MineCtxKey{Gen: 99})
	if n := m.Purge(); n != 2 {
		t.Fatalf("Purge dropped %d entries, want 2", n)
	}
	if st, _ := m.Stats(); st.Entries != 0 || st.Purges != 1 {
		t.Fatalf("post-purge stats = %+v", st)
	}
}

// heldEvaluation starts an identify for rule 1 (R2, radius 1) on a server
// whose pool slots are all taken, so the evaluation is an entry in flight,
// and returns a function that frees the slots and waits for the answer.
func heldEvaluation(t *testing.T) (s *Server, url string, finish func() IdentifyResponse) {
	t.Helper()
	s, ts, _ := newTestServer(t, Config{Workers: 2, PoolSize: 2, MaxQueue: -1})
	for i := 0; i < s.pool.Size(); i++ {
		s.pool.sem <- struct{}{}
	}
	var held IdentifyResponse
	code := make(chan int, 1)
	go func() { code <- doJSON(t, "POST", ts.URL+"/v1/identify", []byte(`{"indices":[1]}`), &held) }()
	waitFor(t, 10*time.Second, func() bool { // the entry is in the LRU, its build blocked
		st, _ := s.cache.Stats()
		return st.Misses == 1
	})
	return s, ts.URL, func() IdentifyResponse {
		for i := 0; i < s.pool.Size(); i++ {
			<-s.pool.sem
		}
		if c := <-code; c != 200 {
			t.Fatalf("held identify: status %d", c)
		}
		return held
	}
}

// TestDeltaCarriesEvaluationInFlight: an evaluation still running when a
// delta that cannot affect it lands moves to the new generation's key like
// a finished one — the next identify is answered from it, not re-evaluated.
func TestDeltaCarriesEvaluationInFlight(t *testing.T) {
	s, url, finish := heldEvaluation(t)
	code, dr := deltaJSON(t, url, `{"ops":[{"op":"addNode","label":"island"}]}`)
	if code != http.StatusAccepted || dr.RulesCarried != 1 || dr.RulesInvalidated != 0 {
		t.Fatalf("island delta: %d %+v", code, dr)
	}
	held := finish()
	if held.Generation != 1 || held.Rules[0].Cached {
		t.Fatalf("held identify answered %+v, want an uncached generation-1 answer", held)
	}
	var next IdentifyResponse
	doJSON(t, "POST", url+"/v1/identify", []byte(`{"indices":[1]}`), &next)
	if next.Generation != 2 || !next.Rules[0].Cached {
		t.Errorf("identify after the carry: generation %d cached %v, want 2 true", next.Generation, next.Rules[0].Cached)
	}
	if next.Rules[0].Matches != held.Rules[0].Matches {
		t.Errorf("carried answer has %d matches, the evaluation found %d", next.Rules[0].Matches, held.Rules[0].Matches)
	}
	if _, batch := s.cacheStats(); batch.Executions != 1 {
		t.Errorf("%d evaluations ran, want the carried one only", batch.Executions)
	}
}

// TestDeltaDropsAffectedEvaluationInFlight: a delta inside the rule's radius
// drops the running evaluation's entry; the caller waiting on it still gets
// its answer, and the new generation evaluates afresh.
func TestDeltaDropsAffectedEvaluationInFlight(t *testing.T) {
	s, url, finish := heldEvaluation(t)
	// A new node hung off the bar: distance 1 from a cust candidate.
	code, dr := deltaJSON(t, url, `{"ops":[
		{"op":"addNode","label":"island"},
		{"op":"addEdge","from":10,"to":11,"label":"bridge"}]}`)
	if code != http.StatusAccepted || dr.RulesCarried != 0 || dr.RulesInvalidated != 1 {
		t.Fatalf("bridge delta: %d %+v", code, dr)
	}
	if held := finish(); held.Generation != 1 || len(held.Rules) != 1 {
		t.Fatalf("held identify answered %+v, want its generation-1 answer", held)
	}
	if st, _ := s.cache.Stats(); st.Entries != 0 {
		t.Errorf("%d entries resident after the dropped evaluation finished, want 0", st.Entries)
	}
	var next IdentifyResponse
	doJSON(t, "POST", url+"/v1/identify", []byte(`{"indices":[1]}`), &next)
	if next.Generation != 2 || next.Rules[0].Cached {
		t.Errorf("identify after the drop: generation %d cached %v, want 2 false", next.Generation, next.Rules[0].Cached)
	}
	if _, batch := s.cacheStats(); batch.Executions != 2 {
		t.Errorf("%d evaluations ran, want 2", batch.Executions)
	}
}

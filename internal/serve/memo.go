package serve

import (
	"container/list"
	"fmt"
	"sync"
)

// memo is the serving layer's one "build a missing value once and remember
// it" mechanism — the match-set cache and the mine-context cache are both
// one: a bounded, locked LRU whose only read is GetOrBuild. An entry enters
// the LRU when its build starts, so eviction, Carry, Remove and Purge
// treat a build in flight like a finished value: they move or drop
// the memo's reference, and whoever holds the entry still gets its value.
type memo[K comparable, V any] struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // of *memoEntry[K, V]; front = most recently used
	byKey map[K]*list.Element

	hits, joined, built, evictions, purges int64
}

// memoEntry is one value, finished or still being built: the builder writes
// val and err, then closes done. key is guarded by memo.mu (Carry renames it).
type memoEntry[K comparable, V any] struct {
	key  K
	done chan struct{}
	val  V
	err  error
}

// memoOutcome says how a GetOrBuild call was answered.
type memoOutcome int

const (
	memoHit    memoOutcome = iota // a finished entry was resident
	memoJoined                    // blocked on another caller's build and shared its result
	memoBuilt                     // ran build
)

// CacheStats is a point-in-time counter snapshot for /stats, shared by the
// match-set cache and the mine-context cache.
type CacheStats struct {
	Entries   int   `json:"entries"`
	Capacity  int   `json:"capacity"`
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	Purges    int64 `json:"purges"`
}

// BatchStats is the match-set memo's single-flight view for /stats:
// evaluations run, and callers that shared one instead of running their own.
type BatchStats struct {
	Executions int64 `json:"executions"`
	Coalesced  int64 `json:"coalesced"`
}

// newMemo returns a memo bounded to capacity entries (minimum 1).
func newMemo[K comparable, V any](capacity int) *memo[K, V] {
	if capacity < 1 {
		capacity = 1
	}
	return &memo[K, V]{cap: capacity, ll: list.New(), byKey: map[K]*list.Element{}}
}

// GetOrBuild returns key's value, marking it most recently used. A finished
// entry is a hit; an entry still being built blocks this caller until the
// builder is done and shares its value or error; otherwise this caller runs
// build, with every concurrent caller for key joined onto it. If build
// returns an error or panics the entry is dropped, the callers that joined
// get the error, the key is free for the next caller, and a panic continues
// on the goroutine that ran build.
func (m *memo[K, V]) GetOrBuild(key K, build func() (V, error)) (v V, how memoOutcome, err error) {
	m.mu.Lock()
	if el, ok := m.byKey[key]; ok {
		m.ll.MoveToFront(el)
		e := el.Value.(*memoEntry[K, V])
		select {
		case <-e.done:
			m.hits++
			m.mu.Unlock()
			return e.val, memoHit, nil
		default:
		}
		m.joined++ // on joining, so the count includes callers still waiting
		m.mu.Unlock()
		<-e.done
		return e.val, memoJoined, e.err
	}
	e := &memoEntry[K, V]{key: key, done: make(chan struct{})}
	el := m.ll.PushFront(e)
	m.byKey[key] = el
	m.built++
	for m.ll.Len() > m.cap {
		delete(m.byKey, m.ll.Remove(m.ll.Back()).(*memoEntry[K, V]).key)
		m.evictions++
	}
	m.mu.Unlock()

	defer func() {
		rec := recover()
		if rec != nil {
			e.err = fmt.Errorf("serve: memoised build panicked: %v", rec)
		}
		if e.err != nil {
			// Dropped (unless the memo already let go of it) before done
			// closes, so no caller finds a failed entry finished.
			m.mu.Lock()
			if m.byKey[e.key] == el {
				m.ll.Remove(el)
				delete(m.byKey, e.key)
			}
			m.mu.Unlock()
		}
		close(e.done)
		if rec != nil {
			panic(rec)
		}
	}()
	e.val, e.err = build()
	return e.val, memoBuilt, e.err
}

// Carry renames oldKey's entry to newKey — the delta path's selective
// invalidation: a value a mutation batch provably cannot affect moves to the
// new generation's key instead of being recomputed. A rename is not an
// access: recency and every counter stay as they are. It reports whether an
// entry was carried; an existing newKey entry is replaced.
func (m *memo[K, V]) Carry(oldKey, newKey K) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	el, ok := m.byKey[oldKey]
	if !ok {
		return false
	}
	if old, ok := m.byKey[newKey]; ok {
		m.ll.Remove(old)
	}
	delete(m.byKey, oldKey)
	el.Value.(*memoEntry[K, V]).key = newKey
	m.byKey[newKey] = el
	return true
}

// Remove drops key's entry if present (counted as an eviction) and reports
// whether one existed.
func (m *memo[K, V]) Remove(key K) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	el, ok := m.byKey[key]
	if ok {
		m.ll.Remove(el)
		delete(m.byKey, key)
		m.evictions++
	}
	return ok
}

// Purge drops every entry (snapshot swap) and returns how many were dropped.
func (m *memo[K, V]) Purge() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := m.ll.Len()
	m.ll.Init()
	clear(m.byKey)
	if n > 0 {
		m.purges++
	}
	return n
}

// Stats returns the counters: st.Hits finished entries found, st.Misses
// builds run, joined callers that waited on another's build — a miss to the
// match-set cache, a hit to the mine-context cache, so each adds it itself.
func (m *memo[K, V]) Stats() (st CacheStats, joined int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return CacheStats{
		Entries:   m.ll.Len(),
		Capacity:  m.cap,
		Hits:      m.hits,
		Misses:    m.built,
		Evictions: m.evictions,
		Purges:    m.purges,
	}, m.joined
}

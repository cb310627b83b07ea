package serve

import (
	"container/list"
	"fmt"
	"sync"
)

// memo is the serving layer's one "remember a value for a generation"
// mechanism — match sets, mined results and mine contexts are all one: a
// bounded, locked LRU keyed by (generation, …). GetOrBuild builds a missing
// value once for every concurrent caller; Get and Put read and insert
// finished values; Retarget is the publish step's walk, which moves each
// entry to the next generation's key or drops it. An entry enters the LRU
// when its build starts, so eviction, Retarget, Remove and Purge treat a
// build in flight like a finished value: they move or drop the memo's
// reference, and whoever holds the entry still gets its value.
type memo[K comparable, V any] struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // of *memoEntry[K, V]; front = most recently used
	byKey map[K]*list.Element

	hits, joined, built, evictions, purges int64
}

// memoEntry is one value, finished or still being built: the builder writes
// val and err, then closes done. key is guarded by memo.mu (Retarget
// renames it).
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
	el := m.insertLocked(e)
	m.built++
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

// insertLocked makes e the most recently used entry under e.key, replacing
// any entry there, and evicts the least recently used past capacity.
func (m *memo[K, V]) insertLocked(e *memoEntry[K, V]) *list.Element {
	if old, ok := m.byKey[e.key]; ok {
		m.ll.Remove(old)
	}
	el := m.ll.PushFront(e)
	m.byKey[e.key] = el
	for m.ll.Len() > m.cap {
		delete(m.byKey, m.ll.Remove(m.ll.Back()).(*memoEntry[K, V]).key)
		m.evictions++
	}
	return el
}

// Get returns key's finished value, marking it most recently used: an
// absent entry, a build in flight and a failed build (never kept) miss.
func (m *memo[K, V]) Get(key K) (v V, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if el, in := m.byKey[key]; in {
		e := el.Value.(*memoEntry[K, V])
		select {
		case <-e.done:
			m.ll.MoveToFront(el)
			m.hits++
			return e.val, true
		default:
		}
	}
	return v, false
}

// Put inserts v as key's finished value, replacing any entry there (a build
// in flight still delivers to its own waiters), as the most recently used.
func (m *memo[K, V]) Put(key K, v V) {
	e := &memoEntry[K, V]{key: key, done: make(chan struct{}), val: v}
	close(e.done)
	m.mu.Lock()
	defer m.mu.Unlock()
	m.insertLocked(e)
	m.built++
}

// Retarget is the publish step's walk: next maps each resident key, finished
// or in flight, to its key in the new generation, or reports that the entry
// does not survive the change. A moved build still delivers to its waiters
// and then stays under its new key; two entries mapped to one key keep the
// more recently used. A move is not an access, so recency and hits stay as
// they are; a walk that drops anything counts as one purge. next runs
// under the memo's lock and must not call back into the memo. It returns
// how many entries moved and how many were dropped.
func (m *memo[K, V]) Retarget(next func(K) (K, bool)) (kept, dropped int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	byKey := make(map[K]*list.Element, len(m.byKey))
	for el := m.ll.Front(); el != nil; {
		nx, e := el.Next(), el.Value.(*memoEntry[K, V])
		if k, ok := next(e.key); ok && byKey[k] == nil {
			e.key = k
			byKey[k] = el
			kept++
		} else {
			m.ll.Remove(el)
			dropped++
		}
		el = nx
	}
	m.byKey = byKey
	if dropped > 0 {
		m.purges++
	}
	return kept, dropped
}

// Keys returns the resident keys, finished or in flight.
func (m *memo[K, V]) Keys() []K {
	m.mu.Lock()
	defer m.mu.Unlock()
	keys := make([]K, 0, len(m.byKey))
	for k := range m.byKey {
		keys = append(keys, k)
	}
	return keys
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

// Purge drops every entry — a walk that keeps nothing — and returns how
// many were dropped.
func (m *memo[K, V]) Purge() int {
	_, n := m.Retarget(func(k K) (K, bool) { return k, false })
	return n
}

// Stats returns the counters: st.Hits counts finished entries found;
// st.Misses, builds run and values put; st.Purges, walks that dropped
// entries; joined, callers that waited on another's build (a miss to the
// match-set cache, a hit to the mine-context cache, so each adds it itself).
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

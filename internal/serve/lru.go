package serve

import "container/list"

// lru is the shared bounded-LRU core of the serving caches (the match-set
// Cache and the MineContextCache): recency list + key index + the counter
// set CacheStats reports. It is not locked — each wrapping cache holds its
// own mutex around these methods, because their hit semantics differ (the
// mine cache, for instance, must release its lock before blocking on an
// in-flight build).
type lru[K comparable, V any] struct {
	cap   int
	ll    *list.List // front = most recently used
	byKey map[K]*list.Element

	hits      int64
	misses    int64
	evictions int64
	purges    int64
}

type lruEntry[K comparable, V any] struct {
	key K
	val V
}

// newLRU returns a core bounded to capacity entries (minimum 1).
func newLRU[K comparable, V any](capacity int) *lru[K, V] {
	if capacity < 1 {
		capacity = 1
	}
	return &lru[K, V]{
		cap:   capacity,
		ll:    list.New(),
		byKey: make(map[K]*list.Element),
	}
}

// get returns the value for key, marking it most recently used and
// counting the hit or miss.
func (l *lru[K, V]) get(key K) (V, bool) {
	el, ok := l.byKey[key]
	if !ok {
		l.misses++
		var zero V
		return zero, false
	}
	l.hits++
	l.ll.MoveToFront(el)
	return el.Value.(*lruEntry[K, V]).val, true
}

// put inserts or refreshes key, evicting the least recently used entries
// while over capacity.
func (l *lru[K, V]) put(key K, val V) {
	if el, ok := l.byKey[key]; ok {
		el.Value.(*lruEntry[K, V]).val = val
		l.ll.MoveToFront(el)
		return
	}
	l.byKey[key] = l.ll.PushFront(&lruEntry[K, V]{key: key, val: val})
	for l.ll.Len() > l.cap {
		oldest := l.ll.Back()
		l.ll.Remove(oldest)
		delete(l.byKey, oldest.Value.(*lruEntry[K, V]).key)
		l.evictions++
	}
}

// remove drops key's entry if present, counting an eviction, and reports
// whether an entry was dropped.
func (l *lru[K, V]) remove(key K) bool {
	if el, ok := l.byKey[key]; ok {
		l.ll.Remove(el)
		delete(l.byKey, key)
		l.evictions++
		return true
	}
	return false
}

// carry renames oldKey's entry to newKey, keeping its recency position and
// leaving every counter alone — it is a rename, not an access, an eviction
// or an insertion, so hit/miss arithmetic stays meaningful across it. It
// reports whether an entry was carried; an existing newKey entry is
// replaced.
func (l *lru[K, V]) carry(oldKey, newKey K) bool {
	el, ok := l.byKey[oldKey]
	if !ok {
		return false
	}
	if old, ok := l.byKey[newKey]; ok {
		l.ll.Remove(old)
		delete(l.byKey, newKey)
	}
	delete(l.byKey, oldKey)
	el.Value.(*lruEntry[K, V]).key = newKey
	l.byKey[newKey] = el
	return true
}

// shrink evicts up to n least-recently-used entries, returning how many
// were dropped. Unlike purge it preserves the hot end — the memory-pressure
// ladder halves caches rather than emptying them, so the working set that
// is still earning its keep survives.
func (l *lru[K, V]) shrink(n int) int {
	dropped := 0
	for dropped < n && l.ll.Len() > 0 {
		oldest := l.ll.Back()
		l.ll.Remove(oldest)
		delete(l.byKey, oldest.Value.(*lruEntry[K, V]).key)
		l.evictions++
		dropped++
	}
	return dropped
}

// purge drops every entry and returns how many were dropped.
func (l *lru[K, V]) purge() int {
	n := l.ll.Len()
	l.ll.Init()
	l.byKey = make(map[K]*list.Element)
	if n > 0 {
		l.purges++
	}
	return n
}

// stats returns the current counter snapshot.
func (l *lru[K, V]) stats() CacheStats {
	return CacheStats{
		Entries:   l.ll.Len(),
		Capacity:  l.cap,
		Hits:      l.hits,
		Misses:    l.misses,
		Evictions: l.evictions,
		Purges:    l.purges,
	}
}

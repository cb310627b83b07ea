package diversify

import (
	"math"
	"sort"
)

// Queue is the incremental top-k structure of procedure incDiv (Section
// 4.2): a max priority queue of at most ⌈k/2⌉ pairwise-disjoint GPAR pairs,
// each scored by F'. Instead of recomputing the diversification from
// scratch each round (the DMineNo behaviour), the queue is improved
// incrementally as new rules arrive.
type Queue struct {
	p     Params
	pairs []qpair
	used  map[uint32]bool
	// memo caches pairwise diffs within one Update: bestFreePair re-scans
	// the same pool O(k) times and bestPartner once per new rule, so each
	// distinct pair's distance is computed once per round, not per scan.
	// The table is recycled (cleared, capacity kept) across rounds.
	memo map[uint64]float64

	entries []Entry         // recycled Update working list (deltaE ++ sigma)
	seen    map[uint32]bool // recycled dedupe set
}

type qpair struct {
	a, b Entry
	f    float64
}

// NewQueue returns an empty incDiv queue with the given objective
// parameters.
func NewQueue(p Params) *Queue {
	return &Queue{p: p, used: make(map[uint32]bool)}
}

// capPairs is ⌈k/2⌉.
func (q *Queue) capPairs() int { return (q.p.K + 1) / 2 }

// Len reports the number of pairs currently held.
func (q *Queue) Len() int { return len(q.pairs) }

// pairDiff returns the memoized Jaccard distance of two entries. Entries
// are identified by ID, so the memo is only valid within one Update (sets
// are immutable per rule, but IDs are per-run).
func (q *Queue) pairDiff(a, b *Entry) float64 {
	lo, hi := a.ID, b.ID
	if lo > hi {
		lo, hi = hi, lo
	}
	key := uint64(lo)<<32 | uint64(hi)
	if d, ok := q.memo[key]; ok {
		return d
	}
	d := diff(a, b)
	q.memo[key] = d
	return d
}

func (q *Queue) fprime(a, b *Entry) float64 {
	return fprime(a, b, q.p, q.pairDiff(a, b))
}

// Update incorporates the round's newly discovered rules deltaE, choosing
// partners from sigma (all rules known so far, including deltaE). It
// implements the two phases of incDiv: fill the queue with the best disjoint
// pairs while below capacity, then replace minimum pairs whenever a new pair
// (R, R') with R ∈ ∆E scores higher.
func (q *Queue) Update(deltaE, sigma []Entry) {
	q.entries = append(append(q.entries[:0], deltaE...), sigma...)
	pool := q.dedupe(q.entries)
	if q.memo == nil {
		q.memo = make(map[uint64]float64)
	}
	clear(q.memo)

	// Phase 1: fill while below capacity.
	for len(q.pairs) < q.capPairs() {
		a, b, f := q.bestFreePair(pool)
		if a < 0 {
			break
		}
		q.insert(pool[a], pool[b], f)
	}
	if len(q.pairs) < q.capPairs() {
		return
	}
	// Phase 2: try to improve the minimum pair with each new rule.
	for i := range deltaE {
		e := &deltaE[i]
		if q.used[e.ID] {
			continue
		}
		partner, f := q.bestPartner(e, pool)
		if partner < 0 {
			continue
		}
		minIx := q.minPairIx()
		if f > q.pairs[minIx].f {
			old := q.pairs[minIx]
			delete(q.used, old.a.ID)
			delete(q.used, old.b.ID)
			q.pairs[minIx] = qpair{a: *e, b: pool[partner], f: f}
			q.used[e.ID] = true
			q.used[pool[partner].ID] = true
		}
	}
}

// bestFreePair scans pool for the unused pair maximizing F'. Ties are
// broken by pool order for determinism.
func (q *Queue) bestFreePair(pool []Entry) (ai, bi int, f float64) {
	ai, bi, f = -1, -1, math.Inf(-1)
	for i := range pool {
		if q.used[pool[i].ID] {
			continue
		}
		for j := i + 1; j < len(pool); j++ {
			if q.used[pool[j].ID] {
				continue
			}
			if g := q.fprime(&pool[i], &pool[j]); g > f {
				f, ai, bi = g, i, j
			}
		}
	}
	return ai, bi, f
}

// bestPartner finds the unused pool entry (≠ e) maximizing F'(e, ·).
func (q *Queue) bestPartner(e *Entry, pool []Entry) (int, float64) {
	best, bf := -1, math.Inf(-1)
	for i := range pool {
		if pool[i].ID == e.ID || q.used[pool[i].ID] {
			continue
		}
		if g := q.fprime(e, &pool[i]); g > bf {
			bf, best = g, i
		}
	}
	return best, bf
}

func (q *Queue) minPairIx() int {
	minIx := 0
	for i := 1; i < len(q.pairs); i++ {
		if q.pairs[i].f < q.pairs[minIx].f {
			minIx = i
		}
	}
	return minIx
}

func (q *Queue) insert(a, b Entry, f float64) {
	q.pairs = append(q.pairs, qpair{a: a, b: b, f: f})
	q.used[a.ID] = true
	q.used[b.ID] = true
}

// Entries flattens the queue's pairs into Lk. For odd k (the queue holds
// k+1 rules) the lowest-contribution rule is dropped, as in Greedy.
func (q *Queue) Entries() []Entry {
	var out []Entry
	for _, pr := range q.pairs {
		out = append(out, pr.a, pr.b)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	if len(out) > q.p.K {
		picked := make([]int, len(out))
		for i := range picked {
			picked[i] = i
		}
		worst, worstIx := math.Inf(1), -1
		for i := range out {
			if c := contribution(out, picked, i, q.p); c < worst {
				worst, worstIx = c, i
			}
		}
		out = append(out[:worstIx], out[worstIx+1:]...)
	}
	return out
}

// dedupe keeps the first occurrence of each ID, preserving order. It
// compacts es in place (the queue owns es) and reuses the seen set; pairs
// only ever store Entry copies, so nothing outlives the round.
func (q *Queue) dedupe(es []Entry) []Entry {
	if q.seen == nil {
		q.seen = make(map[uint32]bool, len(es))
	}
	clear(q.seen)
	out := es[:0]
	for _, e := range es {
		if !q.seen[e.ID] {
			q.seen[e.ID] = true
			out = append(out, e)
		}
	}
	return out
}

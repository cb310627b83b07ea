package mine

import (
	"slices"

	"gpar/internal/graph"
)

// This file holds the per-worker round arenas of the mining loop. A BSP
// round produces thousands of short-lived []graph.NodeID center sets — the
// three lanes of every <R, conf, flag> message, the per-group union buffers
// of the assembly shards, and the next round's per-rule center frontiers.
// All of them share one lifecycle: born inside one phase of a round, read
// until the matching phase of the next round starts, then dead. A nodeArena
// exploits that: each lane is a flat recycled backing store, individual
// sets are offset-length views carved from it, and resetting the lane at
// its phase boundary reclaims everything at once. After the first round
// has grown the backing stores, a steady-state round allocates nothing.
//
// Ownership discipline (see DESIGN.md, "Arena round lifecycle"):
//
//   - message lanes (q, r, qqb) are reset by localMine at the start
//     of the generate phase; their views live in messages, which assemble
//     consumes in the same round;
//   - the assembly shard arena is reset by asmScratch.merge; its views live
//     in groups, which assemble consumes before returning — any set that
//     survives into Σ (Mined.Set, Mined.qCenters) is cloned out;
//   - the frontier lane is reset by diversifyAndDistribute; its views live in
//     worker.centersFor, which the next round's localMine consumes.
//
// No view ever escapes a run: everything reachable from a Result is cloned.

// nodeArena is a recycled flat backing store for node-ID sets. Views are
// carved with mark/take; reset reclaims the whole store in O(1) while the
// retained capacity keeps future rounds allocation-free.
type nodeArena struct {
	buf []graph.NodeID
}

// poisonArenas is the test-only lifetime oracle: while set, reset overwrites
// the region it reclaims with NodeID(-1), so a view read past its phase
// boundary indexes out of range or corrupts a pinned digest instead of
// silently reading the previous round's (often identical) IDs. Only the
// package's TestMain sets it, before any test runs.
var poisonArenas bool

// reset reclaims the whole store, keeping capacity.
func (a *nodeArena) reset() {
	if poisonArenas {
		for i := range a.buf {
			a.buf[i] = -1
		}
	}
	a.buf = a.buf[:0]
}

// mark returns the current fill point; the caller passes it to take after
// pushing one set's elements.
func (a *nodeArena) mark() int { return len(a.buf) }

// push appends one element to the set being built.
func (a *nodeArena) push(v graph.NodeID) { a.buf = append(a.buf, v) }

// pushAll appends a whole slice to the set being built.
func (a *nodeArena) pushAll(vs []graph.NodeID) { a.buf = append(a.buf, vs...) }

// take finalizes the set started at mark and returns it. The view is
// capacity-capped so a later append by a confused caller copies out instead
// of clobbering the neighboring set. Growth between mark and take may have
// reallocated the backing store; earlier views then point into the old
// store, which is correct (they are read-only from birth) — only the
// capacity is wasted until the next reset.
func (a *nodeArena) take(mark int) []graph.NodeID {
	view := a.buf[mark:len(a.buf):len(a.buf)]
	if len(view) == 0 {
		return nil
	}
	return view
}

// takeSortedDedup sorts the set started at mark, removes duplicates in
// place, rewinds the store to the deduplicated length and returns the set.
func (a *nodeArena) takeSortedDedup(mark int) []graph.NodeID {
	region := a.buf[mark:]
	slices.Sort(region)
	region = slices.Compact(region)
	a.buf = a.buf[:mark+len(region)]
	return a.take(mark)
}

// unionInto merges two sorted deduplicated sets into a new set carved from
// the arena. As an optimization it returns the non-empty input unchanged
// when the other is empty; inputs are read-only so aliasing is safe.
func (a *nodeArena) unionInto(x, y []graph.NodeID) []graph.NodeID {
	if len(y) == 0 {
		return x
	}
	if len(x) == 0 {
		return y
	}
	mark := a.mark()
	i, j := 0, 0
	for i < len(x) && j < len(y) {
		switch {
		case x[i] == y[j]:
			a.push(x[i])
			i++
			j++
		case x[i] < y[j]:
			a.push(x[i])
			i++
		default:
			a.push(y[j])
			j++
		}
	}
	a.pushAll(x[i:])
	a.pushAll(y[j:])
	return a.take(mark)
}

// roundArenas is one worker's set of recycled lanes. The three message lanes
// reset together at the start of generate; the frontier lane resets at the
// start of diversifyAndDistribute (by which point the previous round's
// frontier views have all been consumed by localMine).
type roundArenas struct {
	q, r, qqb nodeArena // message center-set lanes
	frontier  nodeArena // next-round per-rule center lists
}

// resetMessages reclaims the three message lanes (start of a generate phase).
func (ar *roundArenas) resetMessages() {
	ar.q.reset()
	ar.r.reset()
	ar.qqb.reset()
}

// Gate bounds how many mining worker goroutines execute simultaneously
// across any number of runs sharing it. Worker count N fixes the mining
// *layout* (and is part of the context identity); the gate fixes only how
// much CPU those N workers may occupy at once, so a server can cap all
// mine jobs collectively to a share of GOMAXPROCS while identify traffic
// keeps the rest. A nil *Gate means unbounded (one goroutine per worker).
type Gate struct {
	sem chan struct{}
}

// NewGate returns a gate admitting at most n concurrent workers (minimum 1).
func NewGate(n int) *Gate {
	if n < 1 {
		n = 1
	}
	return &Gate{sem: make(chan struct{}, n)}
}

// Size reports the concurrency bound.
func (g *Gate) Size() int { return cap(g.sem) }

func (g *Gate) acquire() { g.sem <- struct{}{} }
func (g *Gate) release() { <-g.sem }

// Acquire blocks until a worker slot is free and takes it. It lets a caller
// that shares the gate with mining runs charge its own work against the same
// CPU budget (or deliberately saturate the gate, parking every run at its
// next superstep — the serving layer's tests open deterministic cancellation
// windows this way). Pair with Release.
func (g *Gate) Acquire() { g.acquire() }

// Release returns a slot taken by Acquire.
func (g *Gate) Release() { g.release() }

package mine

import (
	"sync"
	"sync/atomic"

	"gpar/internal/eip"
	"gpar/internal/graph"
)

// This file is how the coordinator drives its N workers: goroutines over
// the context's one graph, each owning a contiguous chunk of the candidate
// centers. Every superstep runs them in parallel and concatenates their
// messages in worker order, so results never depend on the interleaving.

// attach binds the run's workers, classifies every owned center against the
// predicate (round 0 — Pq, q̄ and their supports never change), installs the
// round-1 frontier (all owned centers match the seed rule's empty
// antecedent), and sums the workers' shares of supp(q) and supp(q̄).
func (m *miner) attach() error {
	// Workers come from the global pool (release returns them), so even a
	// cold DMine reuses previously grown arenas and scratch.
	m.workers = make([]*worker, m.ctx.n)
	for i := range m.workers {
		m.workers[i] = acquireWorker(m, i)
	}
	err := m.parallel(func(w *worker) {
		w.classify()
		w.seedFrontier()
	})
	if err != nil {
		return err
	}
	for _, w := range m.workers {
		m.suppQ1 += w.npq
		m.suppQbr += w.npqbar
	}
	return nil
}

// generate runs the localMine superstep over the frontier on every worker
// and returns the messages concatenated in worker order.
func (m *miner) generate(frontier []*Mined) ([]message, error) {
	if err := m.parallel(func(w *worker) { w.localMine(frontier) }); err != nil {
		return nil, err
	}
	msgs := m.msgBuf[:0]
	for _, w := range m.workers {
		msgs = append(msgs, w.msgs...)
	}
	m.msgBuf = msgs
	return msgs, nil
}

// distribute hands each frontier rule's Q-match centers back to the workers
// that own them, for the next round's localMine.
func (m *miner) distribute(frontier []*Mined) error {
	return m.parallel(func(w *worker) {
		w.beginFrontier()
		for _, mined := range frontier {
			w.setFrontierCenters(mined.id, mined.qCenters)
		}
	})
}

// work returns the cumulative per-worker match-operation counts and the
// run's total of enumerations that reached EmbedCap.
func (m *miner) work() (ops []int64, capped int64) {
	ops = make([]int64, 0, len(m.workers))
	for _, w := range m.workers {
		ops = append(ops, w.ops)
		capped += w.capped
	}
	return ops, capped
}

// release returns the run's workers to the pool. runE defers it, so workers
// are returned on every exit path, including cancellation.
func (m *miner) release() {
	releaseWorkers(m.workers...)
	m.workers = nil
}

// parallel runs fn on every worker concurrently and waits (one BSP
// superstep). A configured Gate bounds how many run at once; results never
// depend on the interleaving, only on the per-worker outputs. A done
// Options.Ctx makes workers skip fn — both while queued on the gate and
// once scheduled — and the superstep reports the context error: a partial
// superstep (some workers ran, some skipped) must never reach assembly, so
// the coordinator abandons the round entirely.
func (m *miner) parallel(fn func(w *worker)) error {
	ctx, gate := m.opts.Ctx, m.opts.Gate
	var skipped atomic.Bool
	var wg sync.WaitGroup
	for _, w := range m.workers {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			if gate != nil {
				if err := gate.acquireCtx(ctx); err != nil {
					skipped.Store(true)
					return
				}
				defer gate.release()
			}
			if ctx != nil && ctx.Err() != nil {
				skipped.Store(true)
				return
			}
			fn(w)
		}(w)
	}
	wg.Wait()
	if skipped.Load() {
		return ctx.Err()
	}
	return nil
}

// classify files the worker's owned centers by LCWA class (round 0 — they
// never change for the run) into its node-indexed class buffer, and counts
// its shares of supp(q) and supp(q̄).
func (w *worker) classify() {
	n := w.g.NumNodes()
	if len(w.class) == n { // pooled worker: reuse the class buffer
		clear(w.class)
	} else {
		w.class = make([]eip.Class, n)
	}
	cs := eip.ClassifyCenters(w.g, w.centers, w.pred)
	for _, c := range cs.Nodes {
		w.class[c] = cs.Class(c)
	}
	w.npq, w.npqbar = cs.Count()
}

// seedFrontier installs the round-1 frontier: every owned center matches
// the seed rule's empty antecedent. The copy is the worker's to sort; the
// owned centers are a view into the shared graph's label index.
func (w *worker) seedFrontier() {
	w.centersFor[seedID] = append([]graph.NodeID(nil), w.centers...)
}

// beginFrontier starts a new frontier hand-off: previous entries are
// dropped (they would otherwise alias the recycled lane and pin the map
// forever) and the frontier lane is reclaimed — by this point the previous
// round's frontier views have all been consumed by localMine.
func (w *worker) beginFrontier() {
	clear(w.centersFor)
	w.ar.frontier.reset()
}

// setFrontierCenters installs one frontier rule's next-round center list:
// the subset of its Q-match centers this worker owns, carved from the
// frontier lane.
func (w *worker) setFrontierCenters(id ruleID, qCenters []graph.NodeID) {
	mark := w.ar.frontier.mark()
	for _, v := range qCenters {
		if w.ownsCenter(v) {
			w.ar.frontier.push(v)
		}
	}
	w.centersFor[id] = w.ar.frontier.take(mark)
}

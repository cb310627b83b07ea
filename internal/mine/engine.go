package mine

import (
	"sync"
	"sync/atomic"

	"gpar/internal/core"
	"gpar/internal/eip"
	"gpar/internal/graph"
	"gpar/internal/pattern"
)

// engine abstracts where the N mining workers execute. The coordinator loop
// (miner.runE) is engine-agnostic: it drives BSP supersteps and runs the
// deterministic assemble/diversify reduce, while the engine owns worker
// placement — goroutines over the shared graph (localEngine) or remote
// worker services reached over connections (remoteEngine). Both produce the
// same message stream in the same order, so results are byte-identical by
// construction; the differential tests pin it.
//
// Engine errors only occur on the remote path (a worker connection failing
// mid-superstep); the local engine never fails.
type engine interface {
	// attach binds the run's workers, classifies every owned center against
	// the predicate (round 0 — Pq, q̄ and their supports never change),
	// installs the round-1 frontier (all owned centers match the seed rule's
	// empty antecedent), and returns the per-worker (|Pq|, |q̄|) counts over
	// its owned centers.
	attach(m *miner) (npq, npqbar []int, err error)
	// generate runs the localMine superstep over the frontier on every
	// worker and returns the messages concatenated in worker order.
	generate(m *miner, frontier []*Mined) ([]message, error)
	// distribute hands each frontier rule's Q-match centers back to the
	// workers that own them, for the next round's localMine.
	distribute(m *miner, frontier []*Mined) error
	// shard exposes assembly shard i's recycled scratch; the coordinator's
	// merge phase runs on these regardless of where the workers execute.
	shard(i int) *asmScratch
	// work returns the cumulative per-worker match-operation counts and
	// the run's total of enumerations that reached EmbedCap.
	work() (ops []int64, capped int64)
	// close releases worker resources. It is idempotent; runE defers it so
	// workers are returned on every exit path, including errors.
	close(m *miner)
}

// localParams is the slice of coordinator state localMine actually reads —
// extracted from *miner so the same verification code runs inside a remote
// worker service, which has no coordinator.
type localParams struct {
	pred     core.Predicate
	d        int
	embedCap int
	syms     *graph.Symbols
}

// localParams bundles the run parameters a localMine superstep needs.
func (m *miner) localParams() localParams {
	return localParams{pred: m.pred, d: m.opts.D, embedCap: m.opts.EmbedCap, syms: m.ctx.g.Symbols()}
}

// localRule is a frontier rule as localMine sees it: its run-wide id and its
// antecedent pattern. Coordinator-side bookkeeping (stats, diversification
// bits) never reaches the workers.
type localRule struct {
	id ruleID
	q  *pattern.Pattern
}

// localEngine runs the workers as goroutines over the context's graph, each
// on its chunk of the candidate centers — the single-process mode of
// DMine/DMineCtx.
type localEngine struct {
	workers []*worker
	msgBuf  []message   // recycled concatenation buffer (generate)
	lrBuf   []localRule // recycled frontier projection (generate)
	closed  bool
}

func (e *localEngine) attach(m *miner) ([]int, []int, error) {
	// Workers come from the global pool (close returns them), so even a
	// cold DMine reuses previously grown arenas and scratch.
	e.workers = make([]*worker, m.ctx.n)
	for i := range e.workers {
		e.workers[i] = acquireWorker(m.ctx.fragment(i))
		e.workers[i].disc, e.workers[i].slot = m.ctx.memo(), i
	}
	pred := m.pred
	err := e.parallel(m, func(w *worker) {
		w.classify(pred)
		w.seedFrontier()
	})
	if err != nil {
		return nil, nil, err
	}
	npq := make([]int, len(e.workers))
	npqbar := make([]int, len(e.workers))
	for i, w := range e.workers {
		npq[i], npqbar[i] = w.npq, w.npqbar
	}
	return npq, npqbar, nil
}

func (e *localEngine) generate(m *miner, frontier []*Mined) ([]message, error) {
	lr := e.lrBuf[:0]
	for _, p := range frontier {
		lr = append(lr, localRule{id: p.id, q: p.Rule.Q})
	}
	e.lrBuf = lr
	lp := m.localParams()
	if err := e.parallel(m, func(w *worker) { w.localMine(lp, lr) }); err != nil {
		return nil, err
	}
	msgs := e.msgBuf[:0]
	for _, w := range e.workers {
		msgs = append(msgs, w.msgs...)
	}
	e.msgBuf = msgs
	return msgs, nil
}

func (e *localEngine) distribute(m *miner, frontier []*Mined) error {
	return e.parallel(m, func(w *worker) {
		w.beginFrontier()
		for _, mined := range frontier {
			w.setFrontierCenters(mined.id, mined.qCenters)
		}
	})
}

func (e *localEngine) shard(i int) *asmScratch { return &e.workers[i].asm }

func (e *localEngine) work() (ops []int64, capped int64) {
	ops = make([]int64, 0, len(e.workers))
	for _, w := range e.workers {
		ops = append(ops, w.ops)
		capped += w.capped
	}
	return ops, capped
}

func (e *localEngine) close(m *miner) {
	if e.closed {
		return
	}
	e.closed = true
	releaseWorkers(e.workers...)
	e.workers = nil
}

// parallel runs fn on every worker concurrently and waits (one BSP
// superstep). A configured Gate bounds how many run at once; results never
// depend on the interleaving, only on the per-worker outputs. A done
// Options.Ctx makes workers skip fn — both while queued on the gate and
// once scheduled — and the superstep reports the context error: a partial
// superstep (some workers ran, some skipped) must never reach assembly, so
// the coordinator abandons the round entirely.
func (e *localEngine) parallel(m *miner, fn func(w *worker)) error {
	ctx, gate := m.opts.Ctx, m.opts.Gate
	var skipped atomic.Bool
	var wg sync.WaitGroup
	for _, w := range e.workers {
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
func (w *worker) classify(pred core.Predicate) {
	n := w.frag.G.NumNodes()
	if len(w.class) == n { // pooled worker: reuse the class buffer
		clear(w.class)
	} else {
		w.class = make([]eip.Class, n)
	}
	cs := eip.ClassifyCenters(w.frag.G, w.frag.Centers, pred)
	for i, c := range cs.Nodes {
		w.class[c] = cs.Class[i]
	}
	w.npq, w.npqbar = cs.Count()
}

// seedFrontier installs the round-1 frontier: every owned center matches
// the seed rule's empty antecedent. The copy is the worker's to sort; the
// fragment's center list may be a view into the shared graph's label index.
func (w *worker) seedFrontier() {
	w.centersFor[seedID] = append([]graph.NodeID(nil), w.frag.Centers...)
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
// the subset of its Q-match centers (global IDs) this worker owns, as local
// IDs carved from the frontier lane.
func (w *worker) setFrontierCenters(id ruleID, qCenters []graph.NodeID) {
	mark := w.ar.frontier.mark()
	for _, gv := range qCenters {
		if lv, ok := w.frag.Local(gv); ok && w.ownsCenter(lv) {
			w.ar.frontier.push(lv)
		}
	}
	w.centersFor[id] = w.ar.frontier.take(mark)
}

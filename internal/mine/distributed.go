package mine

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"gpar/internal/core"
	"gpar/internal/graph"
	"gpar/internal/mine/wire"
	"gpar/internal/partition"
	"gpar/internal/pattern"
)

// This file is distributed DMine: the same coordinator loop (miner.runE)
// driving workers that live in other processes. The remoteEngine implements
// the engine interface over wire-protocol connections — job setup ships
// each worker its fragment and symbols; every superstep ships the frontier
// structurally (id, parent, extension, Q-centers) and receives the worker's
// candidate messages back — and the WorkerRuntime is the other end: the
// per-job state a worker service keeps between frames, running the
// unmodified localMine over a decoded fragment.
//
// Determinism carries over wire boundaries by construction: workers emit in
// the same (frontier, extension) order as in-process goroutines, frames
// preserve that order, and the coordinator's assemble reduce re-sorts by
// group key exactly as before — so distributed results are byte-identical
// to DMineCtx on the same context. The differential tests in
// internal/mine/remote pin it over real TCP.

// WorkerConn is one remote worker as the coordinator sees it: a blocking
// request/reply channel for the three job phases. Implementations own
// transport concerns — framing, deadlines, connection reuse; the canonical
// one is internal/mine/remote's TCP client. Calls on different WorkerConns
// happen concurrently (one goroutine per worker), calls on one WorkerConn
// are sequential.
type WorkerConn interface {
	// Setup starts a job on the worker and blocks for its classification
	// counts.
	Setup(s *wire.JobSetup) (*wire.SetupAck, error)
	// Mine runs one superstep: the worker installs the frontier, runs
	// localMine, and replies with its messages.
	Mine(rd *wire.Round) (*wire.Messages, error)
	// Finish ends the job, leaving the connection ready for the next one.
	Finish() error
}

// CancelableConn is the optional WorkerConn extension the coordinator uses
// to abandon a superstep that is already in flight: Cancel must unwedge any
// blocked exchange promptly (the subsequent call on the connection fails
// instead of waiting out its deadline) and may notify the worker so it
// drops the job state early. Connections without it are simply left to
// their per-step deadline, which bounds the hang either way.
type CancelableConn interface {
	Cancel()
}

// WorkerError is the typed failure of a distributed run: which worker broke
// the superstep, and how. The job fails cleanly — no partial Σ is ever
// installed, because the coordinator returns before diversification — but
// other workers may still carry the dead job until their deadline fires;
// the remote package's connections are single-job, so abandoning them is
// the cleanup.
type WorkerError struct {
	Worker int
	Err    error
}

func (e *WorkerError) Error() string {
	return fmt.Sprintf("mine: worker %d: %v", e.Worker, e.Err)
}

func (e *WorkerError) Unwrap() error { return e.Err }

// jobIDs distinguishes concurrent distributed jobs in logs and frames; IDs
// are process-local and never influence results.
var jobIDs atomic.Uint64

// DMineDistributed mines pred over ctx's d-neighbourhood fragments placed
// on remote workers, one per connection (len(conns) must equal opts.N, the
// context's worker count). The coordinator keeps the whole graph — it
// partitions on the context's first fleet job, ships fragments, and runs
// the deterministic assemble and diversification — while generate
// supersteps run on the workers. The result is byte-identical to
// DMineCtx(ctx, pred, opts); the error is a *WorkerError as soon as any
// worker fails a superstep.
func DMineDistributed(ctx *Context, pred core.Predicate, opts Options, conns []WorkerConn) (*Result, error) {
	opts = opts.Defaults()
	if err := ctx.check(pred, opts); err != nil {
		return nil, err
	}
	if len(conns) != ctx.n {
		return nil, fmt.Errorf("mine: %d worker connections for %d workers", len(conns), ctx.n)
	}
	m := newMiner(ctx, pred, opts)
	m.eng = &remoteEngine{conns: conns, jobID: jobIDs.Add(1)}
	return m.runE()
}

// remoteEngine drives the BSP supersteps over worker connections. Assembly
// shards — coordinator work — live here, one per worker, so mergeShards
// parallelism is unchanged; the per-worker ops and capped slices mirror the
// latest cumulative counts piggybacked on each Messages frame.
type remoteEngine struct {
	conns []WorkerConn
	jobID uint64

	shards     []asmScratch
	workOps    []int64
	workCapped []int64
	round      int

	frontBuf []wire.FrontierEntry // recycled Round frame scratch
	msgBuf   []message            // recycled concatenation buffer
	closed   bool
}

// fanOut runs fn per worker concurrently and returns the lowest-indexed
// failure wrapped as a *WorkerError (lowest-indexed so the reported error
// does not depend on goroutine scheduling).
func (e *remoteEngine) fanOut(fn func(i int, c WorkerConn) error) error {
	errs := make([]error, len(e.conns))
	var wg sync.WaitGroup
	for i, c := range e.conns {
		wg.Add(1)
		go func(i int, c WorkerConn) {
			defer wg.Done()
			errs[i] = fn(i, c)
		}(i, c)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			if _, ok := err.(*WorkerError); ok {
				return err
			}
			return &WorkerError{Worker: i, Err: err}
		}
	}
	return nil
}

// fanOutCtx is fanOut with mid-superstep cancellation: while the fan-out is
// in flight, a watcher cancels every CancelableConn as soon as ctx is done,
// so a superstep blocked on a stalled worker unwedges immediately instead
// of waiting out its step deadline. The coordinator maps the resulting
// transport error back to a *CanceledError (miner.wrapCanceled). Contexts
// with a nil Done channel (the poll-only test contexts) fall back to the
// coordinator's superstep-boundary polls.
func (e *remoteEngine) fanOutCtx(ctx context.Context, fn func(i int, c WorkerConn) error) error {
	if ctx == nil || ctx.Done() == nil {
		return e.fanOut(fn)
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		select {
		case <-ctx.Done():
			for _, c := range e.conns {
				if cc, ok := c.(CancelableConn); ok {
					cc.Cancel()
				}
			}
		case <-stop:
		}
	}()
	err := e.fanOut(fn)
	close(stop)
	<-done
	return err
}

func (e *remoteEngine) attach(m *miner) ([]int, []int, error) {
	e.shards = make([]asmScratch, len(e.conns))
	e.workOps = make([]int64, len(e.conns))
	e.workCapped = make([]int64, len(e.conns))
	syms := m.ctx.g.Symbols().Names()
	npq := make([]int, len(e.conns))
	npqbar := make([]int, len(e.conns))
	err := e.fanOutCtx(m.opts.Ctx, func(i int, c WorkerConn) error {
		setup := &wire.JobSetup{
			JobID:     e.jobID,
			Worker:    i,
			D:         m.opts.D,
			EmbedCap:  m.opts.EmbedCap,
			XLabel:    m.pred.XLabel,
			EdgeLabel: m.pred.EdgeLabel,
			YLabel:    m.pred.YLabel,
			Symbols:   syms,
			Fragment:  m.ctx.WireFragment(i),
		}
		ack, err := c.Setup(setup)
		if err != nil {
			return err
		}
		if ack.JobID != e.jobID {
			return fmt.Errorf("setup ack for job %d, want %d", ack.JobID, e.jobID)
		}
		npq[i], npqbar[i] = ack.NPq, ack.NPqbar
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return npq, npqbar, nil
}

func (e *remoteEngine) generate(m *miner, frontier []*Mined) ([]message, error) {
	e.round++
	entries := e.frontBuf[:0]
	for _, p := range frontier {
		entries = append(entries, wire.FrontierEntry{
			ID:       uint32(p.id),
			Parent:   uint32(p.parent),
			Ext:      p.ext,
			QCenters: p.qCenters,
		})
	}
	e.frontBuf = entries
	rd := &wire.Round{Round: e.round, Frontier: entries}
	replies := make([]*wire.Messages, len(e.conns))
	err := e.fanOutCtx(m.opts.Ctx, func(i int, c WorkerConn) error {
		ms, err := c.Mine(rd)
		if err != nil {
			return err
		}
		if ms.Round != e.round {
			return fmt.Errorf("messages for round %d, want %d", ms.Round, e.round)
		}
		replies[i] = ms
		return nil
	})
	if err != nil {
		return nil, err
	}
	msgs := e.msgBuf[:0]
	for i, ms := range replies {
		e.workOps[i], e.workCapped[i] = ms.Ops, ms.Capped
		for j := range ms.Msgs {
			wm := &ms.Msgs[j]
			msgs = append(msgs, message{
				parent:     ruleID(wm.Parent),
				ext:        wm.Ext,
				qCenters:   wm.QCenters,
				rSet:       wm.RSet,
				qqbCenters: wm.QqbCenters,
			})
		}
	}
	e.msgBuf = msgs
	return msgs, nil
}

// distribute is a no-op: the frontier hand-off piggybacks on the next
// round's Round frame (generate receives the same frontier distribute
// would ship), halving the superstep round trips.
func (e *remoteEngine) distribute(m *miner, frontier []*Mined) error { return nil }

func (e *remoteEngine) shard(i int) *asmScratch { return &e.shards[i] }

func (e *remoteEngine) work() (ops []int64, capped int64) {
	for _, c := range e.workCapped {
		capped += c
	}
	return slices.Clone(e.workOps), capped
}

// close ends the job on every worker, best-effort: on the error path some
// connections are already broken and their Finish just fails fast.
func (e *remoteEngine) close(m *miner) {
	if e.closed {
		return
	}
	e.closed = true
	_ = e.fanOut(func(i int, c WorkerConn) error { return c.Finish() })
}

// ---------------------------------------------------------------------------
// Worker side

// WorkerRuntime is one mining job on a remote worker: the decoded fragment
// bound to a fresh worker state, the job's parameters, and the frontier
// pattern table the superstep loop rotates. A runtime serves exactly one
// job; the service layer (internal/mine/remote) creates one per JobSetup
// frame and drives it with Round frames until Finish.
//
// Patterns are rebuilt structurally: entry 0 is the seed (single x node),
// and every other frontier entry names a parent in the previous round's
// frontier plus the extension to apply — pattern.Apply is deterministic, so
// the rebuilt antecedents equal the coordinator's materializations.
type WorkerRuntime struct {
	w    *worker
	lp   localParams
	seed *pattern.Pattern

	rules map[uint32]*pattern.Pattern // previous round's frontier patterns
	next  map[uint32]*pattern.Pattern
	lr    []localRule // recycled frontier projection
	round int
	out   wire.Messages // recycled reply
}

// NewWorkerRuntime builds the job state from a setup frame, decoding the
// fragment it carries against its symbol table, and returns the ack the
// coordinator is waiting for (the round-0 classification counts). A
// fragment that fails to decode, or is followed by trailing bytes, is an
// error and starts no job.
func NewWorkerRuntime(s *wire.JobSetup) (*WorkerRuntime, *wire.SetupAck, error) {
	syms := graph.NewSymbols()
	for _, name := range s.Symbols {
		syms.Intern(name)
	}
	frag, rest, err := partition.DecodeFragment(s.Fragment, syms)
	if err != nil {
		return nil, nil, err
	}
	if len(rest) != 0 {
		return nil, nil, fmt.Errorf("mine: %d trailing bytes after the job's fragment", len(rest))
	}
	pred := core.Predicate{XLabel: s.XLabel, EdgeLabel: s.EdgeLabel, YLabel: s.YLabel}
	w := acquireWorker(frag)
	w.classify(pred)

	seedQ := pattern.New(syms)
	seedQ.X = seedQ.AddNodeL(s.XLabel)
	rt := &WorkerRuntime{
		w:     w,
		lp:    localParams{pred: pred, d: s.D, embedCap: s.EmbedCap, syms: syms},
		seed:  seedQ,
		rules: make(map[uint32]*pattern.Pattern),
		next:  make(map[uint32]*pattern.Pattern),
	}
	return rt, &wire.SetupAck{JobID: s.JobID, NPq: w.npq, NPqbar: w.npqbar}, nil
}

// Round runs one superstep: install the frame's frontier (rebuilding each
// antecedent from its parent + extension), run localMine, and return the
// reply frame. The returned Messages aliases runtime-owned storage that the
// next Round call overwrites; callers encode it before continuing.
func (rt *WorkerRuntime) Round(rd *wire.Round) (*wire.Messages, error) {
	rt.round++
	if rd.Round != rt.round {
		return nil, fmt.Errorf("mine: round frame %d, want %d", rd.Round, rt.round)
	}
	w := rt.w
	w.beginFrontier()
	// Rotate the pattern table: parents always sit in the previous round's
	// frontier (or are the seed), so only that generation is retained.
	rt.rules, rt.next = rt.next, rt.rules
	clear(rt.next)
	lr := rt.lr[:0]
	for i := range rd.Frontier {
		fe := &rd.Frontier[i]
		var q *pattern.Pattern
		if fe.ID == uint32(seedID) {
			// The seed travels as entry 0 of the first Round frame. Its
			// frontier is every owned center; its centers lane never
			// crosses the wire.
			q = rt.seed
			w.seedFrontier()
		} else {
			parent := rt.rules[fe.Parent]
			if fe.Parent == uint32(seedID) {
				parent = rt.seed
			}
			if parent == nil {
				return nil, fmt.Errorf("mine: frontier rule %d names unknown parent %d", fe.ID, fe.Parent)
			}
			q = parent.Apply(fe.Ext)
			if q == nil {
				return nil, fmt.Errorf("mine: frontier rule %d: extension inapplicable to parent %d", fe.ID, fe.Parent)
			}
			w.setFrontierCenters(ruleID(fe.ID), fe.QCenters)
		}
		rt.next[fe.ID] = q
		lr = append(lr, localRule{id: ruleID(fe.ID), q: q})
	}
	rt.lr = lr
	w.localMine(rt.lp, lr)

	out := &rt.out
	out.Round = rd.Round
	out.Ops, out.Capped = w.ops, w.capped
	out.Msgs = out.Msgs[:0]
	for i := range w.msgs {
		msg := &w.msgs[i]
		out.Msgs = append(out.Msgs, wire.Msg{
			Parent:     uint32(msg.parent),
			Ext:        msg.ext,
			QCenters:   msg.qCenters,
			RSet:       msg.rSet,
			QqbCenters: msg.qqbCenters,
		})
	}
	return out, nil
}

// Close releases the runtime's worker back to the pool. The runtime is dead
// afterwards.
func (rt *WorkerRuntime) Close() {
	if rt.w != nil {
		releaseWorkers(rt.w)
		rt.w = nil
	}
}

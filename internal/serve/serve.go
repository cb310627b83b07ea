// Package serve is the GPAR serving subsystem: it keeps a frozen data graph
// and a mined (or loaded) rule set Σ resident in memory and answers
// entity-identification queries concurrently over HTTP — the
// "mine once, match many" shape of the paper's two headline use cases
// (identifying potential customers, Section 1, and EIP, Section 5).
//
// The subsystem is built from these pieces:
//
//   - Snapshot: an immutable unit of serving state — the graph (frozen, or
//     frozen with a delta overlay), the rule set with precomputed keys and
//     renderings, and the predicate's candidates, each classified under
//     the LCWA. One constructor builds every generation and one EvalRule
//     answers from it: plain matchers over the one shared graph.
//     Snapshots are swapped atomically (LoadSnapshot / SwapRules /
//     ApplyDelta / Compact), so in-flight queries keep the state they
//     started with.
//   - memo: a bounded LRU with single-flight builds, keyed by generation
//     and used three times: per-rule match-set evaluations (concurrent
//     identify calls for one rule share one execution), finished mine
//     results (a repeated job is answered without mining) and mine.Context
//     values (a hit brings the context's discovery memo, so the job skips
//     re-discovering the extensions earlier jobs found: mine-jobs
//     cpu_ms_per_req went 1.61 → 0.60 when the memo moved onto the context;
//     the benchmark reads the hit ratio). One publish step installs every
//     generation: match sets cross a delta batch repaired at the centres it
//     can affect, mine results by reach.
//   - Pool: a bounded worker pool shared by all requests; per-rule
//     evaluation fans out through it over Config.Workers ranges of the
//     candidates, so total matching concurrency is bounded no matter how
//     many clients connect.
//   - mine.Gate: the mining half of the CPU budget — all mine jobs
//     together run at most ceil(GOMAXPROCS / 2) worker goroutines, each job
//     mines with one worker per gate slot, and the Pool defaults to the
//     remainder, so mining and identify traffic split the machine instead
//     of oversubscribing it.
//
// Concurrency discipline: graph.Graph and graph.Symbols are not safe for
// concurrent mutation, so BuildSnapshot freezes the graph, forces the label
// index, and pre-renders every name (rule keys, display strings) before the
// snapshot is published. Request paths only read labels as integers;
// Symbols.Intern happens solely under the server's swap lock (LoadSnapshot,
// SwapRules, ReadRules on PUT /v1/rules), and mine-job predicates resolve
// label names with Symbols.Lookup, also under the swap lock so they cannot
// race an interning swap.
package serve

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"gpar/internal/core"
	"gpar/internal/graph"
	"gpar/internal/mine"
)

// Config tunes a Server. The zero value is usable; defaults fill in.
type Config struct {
	// Workers is the number of candidate chunks per evaluation: the width of
	// one rule evaluation's fan-out over the Pool. Default 4.
	Workers int
	// PoolSize bounds concurrent chunk-evaluation tasks across all
	// requests. Default: GOMAXPROCS minus the mine gate's ceil(GOMAXPROCS
	// / 2) slots (minimum 1), so identify traffic and mine jobs split the
	// machine instead of oversubscribing it.
	PoolSize int
	// CacheCap bounds the number of cached per-rule evaluations. Default 256.
	CacheCap int

	// RequestTimeout is the server-side deadline stacked on every identify
	// request's own context: evaluation that has not finished by then
	// answers 503 instead of holding resources indefinitely for a client
	// that has likely given up. Default 30s; negative disables.
	RequestTimeout time.Duration
	// MaxQueue bounds how many identify requests may wait for an evaluation
	// slot beyond the PoolSize already running; requests past the bound are
	// shed immediately with 429 + Retry-After. Default 64; negative disables
	// admission control entirely (the no-shedding mode the load harness
	// compares against — under sustained overload it collapses).
	MaxQueue int
	// QueueTimeout is the longest an admitted request may wait in the
	// admission queue before being shed with 429. Default 1s.
	QueueTimeout time.Duration

	// CompactThreshold compacts the delta overlay once it has accumulated
	// this many ops since the last real freeze: the batch that reaches it
	// folds the overlay into a fresh frozen graph and publishes it as the
	// next generation before it answers (see Server.Compact). 0 disables
	// threshold-triggered compaction; callers may still compact explicitly
	// via Server.Compact.
	CompactThreshold int
}

func (c Config) defaults() Config {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.PoolSize <= 0 {
		c.PoolSize = max(runtime.GOMAXPROCS(0)-mineProcs(), 1)
	}
	if c.CacheCap <= 0 {
		c.CacheCap = 256
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.MaxQueue == 0 {
		c.MaxQueue = 64
	}
	if c.QueueTimeout <= 0 {
		c.QueueTimeout = time.Second
	}
	return c
}

// mineProcs is the mining half of the CPU budget: ceil(GOMAXPROCS / 2)
// gate slots. Mining results are independent of it.
func mineProcs() int { return (runtime.GOMAXPROCS(0) + 1) / 2 }

// Server owns the current Snapshot and the shared memos, pool and job
// registry. Create with New, install state with LoadSnapshot, expose
// with Handler.
type Server struct {
	cfg      Config
	pool     *Pool
	cache    *memo[evalKey, *RuleEval]        // match sets, single-flight
	mined    *memo[minedKey, *mine.Result]    // finished mine results
	mineCtx  *memo[MineCtxKey, *mine.Context] // mine contexts, single-flight
	mineGate *mine.Gate                       // shared CPU budget: all mine jobs together
	jobs     *Jobs
	admit    *admitter

	swapMu sync.Mutex // serializes snapshot swaps and symbol interning
	snap   atomic.Pointer[Snapshot]
	gen    atomic.Uint64

	// persist is the durability layer — snapshot checkpoints plus the delta
	// WAL (persist.go) — or nil when persistence is disabled. Installed
	// under swapMu by EnablePersistence; the swap and delta paths consult it
	// before publishing any new generation.
	persist *persister

	start  time.Time
	closed atomic.Bool
	jobWG  sync.WaitGroup
	// baseCtx is the parent of every mine job's context: Shutdown cancels
	// it, so the drain actively stops running jobs instead of waiting them
	// out.
	baseCtx    context.Context
	baseCancel context.CancelFunc

	nIdentify   atomic.Int64
	nRules      atomic.Int64
	nMine       atomic.Int64
	nSwap       atomic.Int64
	nMineCapped atomic.Int64 // Σ mine.Result.Capped over completed mine runs
	nCentres    atomic.Int64 // Σ RuleEval.Centres over built evaluations
	nSurvivors  atomic.Int64 // Σ RuleEval.Survivors over built evaluations
	nMatches    atomic.Int64 // Σ len(RuleEval.Matches) over built evaluations

	reqSeq       atomic.Uint64 // request IDs for the recovery middleware
	nShedFull    atomic.Int64  // 429s: admission queue full on arrival
	nShedTimeout atomic.Int64  // 429s: queue wait exceeded QueueTimeout
	nDeadline    atomic.Int64  // identify requests past their deadline
	nClientGone  atomic.Int64  // identify requests whose client vanished while queued
	nCancelReq   atomic.Int64  // DELETE /v1/jobs cancellations delivered
	nPanics      atomic.Int64  // handler panics recovered to 500
	nJobPanics   atomic.Int64  // mine-job panics recovered to failed jobs

	nDeltaBatches    atomic.Int64 // delta batches applied
	nDeltaOps        atomic.Int64 // delta ops applied across all batches
	nDeltaRejects    atomic.Int64 // delta batches refused (400 or 409)
	nRuleCarried     atomic.Int64 // match-set cache entries carried across deltas, repairs included
	nRuleRepaired    atomic.Int64 // match-set cache entries repaired across deltas
	nCentresRepaired atomic.Int64 // affected centres the repairs re-checked
	nRuleInvalidated atomic.Int64 // match-set cache entries dropped by deltas
	nWarmMineHits    atomic.Int64 // mine jobs answered from a finished result
	nCompactions     atomic.Int64 // overlay compactions installed
	nCompactAborts   atomic.Int64 // compactions whose publish failed
}

// New returns a Server with no snapshot installed; handlers answer 503
// until LoadSnapshot succeeds.
func New(cfg Config) *Server {
	cfg = cfg.defaults()
	s := &Server{
		cfg:      cfg,
		pool:     NewPool(cfg.PoolSize),
		cache:    newMemo[evalKey, *RuleEval](cfg.CacheCap),
		mined:    newMemo[minedKey, *mine.Result](minedCap),
		mineCtx:  newMemo[MineCtxKey, *mine.Context](mineCacheCap),
		mineGate: mine.NewGate(mineProcs()),
		jobs:     NewJobs(),
		start:    time.Now(),
	}
	if cfg.MaxQueue >= 0 {
		s.admit = newAdmitter(cfg.PoolSize, cfg.MaxQueue, cfg.QueueTimeout)
	}
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	return s
}

// Snapshot returns the currently served snapshot, or nil before the first
// LoadSnapshot.
func (s *Server) Snapshot() *Snapshot { return s.snap.Load() }

// Generation returns the current snapshot generation (0 before the first
// load). Each swap increments it, which invalidates all cache keys.
func (s *Server) Generation() uint64 { return s.gen.Load() }

// LoadSnapshot builds and atomically installs serving state for graph g,
// predicate pred and rule set rules (which may be empty). It freezes g,
// classifies centers under the LCWA and publishes the next generation.
// In-flight requests finish on the old snapshot.
func (s *Server) LoadSnapshot(g *graph.Graph, pred core.Predicate, rules []*core.Rule) error {
	s.swapMu.Lock()
	defer s.swapMu.Unlock()
	_, err := s.loadLocked(g, pred, rules)
	return err
}

// loadLocked is LoadSnapshot with s.swapMu already held. It returns the
// generation it installed, so callers can report their own swap rather
// than whatever generation is current by the time they respond.
func (s *Server) loadLocked(g *graph.Graph, pred core.Predicate, rules []*core.Rule) (uint64, error) {
	if g == nil {
		return 0, fmt.Errorf("serve: nil graph")
	}
	snap, err := BuildSnapshot(g, pred, rules, s.cfg)
	if err != nil {
		return 0, err
	}
	// The served graph object is the same logical graph, so a rules-only
	// swap or an install changes nothing; another graph shares nothing.
	var rep *repair
	if prev := s.snap.Load(); prev != nil && prev.G == g {
		rep = unchanged(snap)
	}
	if _, err := s.publish(snap, rep, nil); err != nil {
		return 0, err
	}
	return snap.Gen, nil
}

// carried is what one publish kept: match-set evaluations moved to the new
// generation and dropped, and finished mine results moved.
type carried struct{ rules, dropped, mined int }

// publish is the one step that installs a generation. It assigns next.Gen,
// makes it durable — a WAL record for a delta batch (req non-nil), a
// checkpoint otherwise — and rolls the generation back if that fails. Then
// it decides what crosses to it by rep, what changed since the served
// generation: nil (another graph) lets nothing cross, unchanged(next) lets
// everything cross, a batch's repair judges each entry. A match-set
// evaluation crosses only if next still serves its rule, as rep.apply
// repairs it; a finished mine result iff no change of rep lies within its
// reach; a mine context, rebound to next.G, only under unchanged(next).
// Caller holds swapMu.
func (s *Server) publish(next *Snapshot, rep *repair, req *DeltaRequest) (carried, error) {
	next.Gen = s.gen.Add(1)
	if err := s.persistGen(next, req); err != nil {
		s.gen.Store(next.Gen - 1)
		return carried{}, err
	}
	var c carried
	prev := next.Gen - 1 // the served generation: swapMu orders publishes
	c.rules, c.dropped = s.cache.Retarget(func(k evalKey, ev *RuleEval) (evalKey, *RuleEval, bool) {
		sr, ok := next.byKey[k.rule]
		if ok = ok && k.gen == prev && rep != nil; ok {
			ev, ok = rep.apply(sr, ev)
		}
		return evalKey{next.Gen, k.rule}, ev, ok
	})
	c.mined, _ = s.mined.Retarget(func(k minedKey, res *mine.Result) (minedKey, *mine.Result, bool) {
		ok := k.gen == prev && rep != nil && !rep.reaches(k.pred.XLabel, k.reach())
		k.gen = next.Gen
		return k, res, ok
	})
	s.mineCtx.Retarget(func(k MineCtxKey, mc *mine.Context) (MineCtxKey, *mine.Context, bool) {
		if rep == nil || rep.old != rep.next || k.Gen != prev || mc == nil {
			return k, nil, false
		}
		return MineCtxKey{next.Gen, k.XLabel, k.D}, mc.Rebind(next.G), true
	})
	s.snap.Store(next)
	s.nSwap.Add(1)
	return c, nil
}

// SwapRules hot-swaps the rule set, keeping the current graph, and returns
// the installed generation. When rules is non-empty its predicate replaces
// the snapshot's; an empty set keeps the old predicate.
func (s *Server) SwapRules(rules []*core.Rule) (uint64, error) {
	s.swapMu.Lock()
	defer s.swapMu.Unlock()
	snap := s.snap.Load()
	if snap == nil {
		return 0, fmt.Errorf("serve: no snapshot loaded")
	}
	pred := snap.Pred
	if len(rules) > 0 {
		pred = rules[0].Pred
	}
	return s.loadLocked(snap.G, pred, rules)
}

// installIfCurrent installs rules for pred only if the served graph is
// still expectG, checked under the swap lock — a mine job must not revert
// a graph that was swapped while it ran. It returns the installed
// generation.
func (s *Server) installIfCurrent(expectG *graph.Graph, pred core.Predicate, rules []*core.Rule) (uint64, error) {
	s.swapMu.Lock()
	defer s.swapMu.Unlock()
	cur := s.snap.Load()
	if cur == nil || cur.G != expectG {
		return 0, fmt.Errorf("serve: graph swapped during mine; not installing")
	}
	return s.loadLocked(expectG, pred, rules)
}

// Shutdown stops accepting work, cancels every running mine job through
// the job-context plumbing, and waits for them to drain, up to ctx's
// deadline. Canceled jobs finish in the canceled terminal state — the
// drain is active, not a hope that jobs finish on their own. Handlers
// answer 503 after Shutdown begins.
func (s *Server) Shutdown(ctx context.Context) error {
	// closed flips under the swap lock so it serializes with StartMine's
	// closed-check + jobWG.Add: no job can register after the drain begins.
	s.swapMu.Lock()
	s.closed.Store(true)
	s.swapMu.Unlock()
	// Every job context is a child of baseCtx; canceling it reaches each
	// run's per-superstep checks.
	s.baseCancel()
	done := make(chan struct{})
	go func() {
		s.jobWG.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
	}
	// With the drain over (or abandoned) no delta can append: flush the WAL
	// tail to durable storage and release the file.
	if p := s.persist; p != nil {
		if cerr := p.close(); err == nil {
			err = cerr
		}
	}
	return err
}

// evalKey names one rule's evaluation in the match-set memo. publish moves
// the entries that survive a change to the new generation, repaired when a
// delta batch reaches them, and drops the rest.
type evalKey struct {
	gen  uint64
	rule string // ServedRule.Key
}

// identifyOne evaluates one rule of the snapshot through the match-set memo.
// It reports whether a finished evaluation was resident (cached) or this
// call waited on a concurrent identical one (coalesced).
func (s *Server) identifyOne(snap *Snapshot, sr *ServedRule) (ev *RuleEval, cached, coalesced bool, err error) {
	ev, how, err := s.cache.GetOrBuild(evalKey{snap.Gen, sr.Key}, func() (*RuleEval, error) {
		ev := snap.EvalRule(sr, s.pool)
		s.nCentres.Add(int64(ev.Centres))
		s.nSurvivors.Add(int64(ev.Survivors))
		s.nMatches.Add(int64(len(ev.Matches)))
		return ev, nil
	})
	return ev, how == memoHit, how == memoJoined, err
}

// cacheStats reads the match-set memo as /stats reports it: a caller that
// waited on another's evaluation missed the cache and coalesced.
func (s *Server) cacheStats() (CacheStats, BatchStats) {
	st, joined := s.cache.Stats()
	batch := BatchStats{Executions: st.Misses, Coalesced: joined}
	st.Misses += joined
	return st, batch
}

// mineCacheStats reads the mine-context memo as /stats reports it: a job
// that waited on another's build did not build, so it hit.
func (s *Server) mineCacheStats() MineCacheStats {
	cs, joined := s.mineCtx.Stats()
	cs.Hits += joined
	st := MineCacheStats{CacheStats: cs}
	s.mineCtx.Retarget(func(k MineCtxKey, mc *mine.Context) (MineCtxKey, *mine.Context, bool) {
		if mc != nil {
			parents, ids, hits := mc.DiscoveryStats()
			st.Parents, st.CentreIDs, st.DiscoveryHits = st.Parents+parents, st.CentreIDs+ids, st.DiscoveryHits+hits
		}
		return k, mc, true
	})
	return st
}

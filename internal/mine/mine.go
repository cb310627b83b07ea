// Package mine implements DMP, the diversified GPAR mining problem of
// Section 4 of "Association Rules with Graph Patterns" (PVLDB 2015), via
// algorithm DMine: a bulk-synchronous coordinator/worker computation that
// grows GPAR antecedents levelwise from the consequent predicate q(x,y),
// assembles worker-local support and confidence messages, incrementally
// maintains a diversified top-k set (procedure incDiv), and groups
// automorphic candidates by canonical pattern code.
//
// Workers are goroutines over the one shared graph, each owning a contiguous
// chunk of the candidate centers; each round they exchange <R, conf>
// messages with the coordinator as in Fig. 4 of the paper. The
// d-neighbourhood fragments of Section 4.2 are what a worker in another
// process mines instead (distributed.go): it has no graph.
//
// One interpretation choice: the paper grows patterns "by including at
// least one new edge that is at hop r from vx" over d rounds, yet its own
// Example 9 produces radius-2 rules in round 1 and adds hop-1 edges in
// round 2. We therefore run Options.MaxEdges rounds, each adding one edge
// anywhere within the radius bound d (checked on PR at x), which realizes
// the same levelwise search space without the ambiguity.
package mine

import (
	"cmp"
	"context"
	"runtime"
	"slices"
	"sync"
	"time"

	"gpar/internal/core"
	"gpar/internal/diversify"
	"gpar/internal/eip"
	"gpar/internal/graph"
	"gpar/internal/partition"
	"gpar/internal/pattern"
)

// Options configures a DMine run. The zero value is not usable; call
// Defaults or fill in K, Sigma, D. There are no optimization toggles: the
// entry point chooses between DMine and DMineNo, the paper's baseline.
type Options struct {
	K      int     // top-k size
	Sigma  int     // support threshold σ on supp(R,G)
	D      int     // radius bound d on r(PR, x)
	Lambda float64 // diversification balance λ ∈ [0,1]
	N      int     // number of workers; coordinator is extra

	// Ctx, when non-nil, makes the run cancellable: the coordinator polls it
	// at every BSP superstep boundary (and the engines check it per worker
	// round), abandoning the run with a *CanceledError once the context is
	// done. Nothing partial is ever returned or installed, and every arena,
	// worker and pool entry is released cleanly — a canceled-then-rerun job
	// is byte-identical to a clean run (pinned by the parity tests). A nil
	// Ctx means the run cannot be canceled; the error-free entry points
	// (DMine, DMineNo) require it to be nil.
	Ctx context.Context

	MaxEdges int // antecedent edge budget; also the number of BSP rounds
	EmbedCap int // cap on embeddings enumerated per center when discovering
	// extensions (0 = 64); a safety valve on dense neighborhoods. A
	// center's embeddings are enumerated in a canonical global-ID order
	// (match.Options.Canonical; a wire fragment's node order is globally
	// sorted), so even when the cap bites, which embeddings are seen — and
	// therefore the mining result — is identical for every worker count,
	// in-process or remote.

	// Gate, when non-nil, bounds how many of the N worker goroutines (and
	// assembly shards) execute simultaneously. Runs sharing one Gate — e.g.
	// every mine job of a server — collectively respect its bound, so
	// mining coexists with serve traffic instead of oversubscribing
	// GOMAXPROCS. Results are independent of the gate.
	Gate *Gate

	// MaxCandidatesPerRound caps |∆E| per round, keeping dense graphs
	// tractable; 0 means unlimited. Candidates are kept by support.
	MaxCandidatesPerRound int
}

// Defaults fills unset tunables. N defaults to the machine's parallelism —
// mining results are deterministic across worker counts, so using every
// core is free.
func (o Options) Defaults() Options {
	if o.N <= 0 {
		o.N = runtime.GOMAXPROCS(0)
	}
	if o.MaxEdges <= 0 {
		o.MaxEdges = 2 * o.D
	}
	if o.EmbedCap <= 0 {
		o.EmbedCap = 64
	}
	if o.K <= 0 {
		o.K = 10
	}
	if o.D <= 0 {
		o.D = 2
	}
	return o
}

// WithOptimizations returns o: there are no toggles left to set. It stays
// declared because benchmark/ calls it.
func (o Options) WithOptimizations() Options { return o }

// Mined is one discovered GPAR with its graph-wide statistics.
type Mined struct {
	Rule  *core.Rule
	Stats core.Stats
	Conf  float64
	// Set is PR(x,G): the distinct matches of x, as global node IDs,
	// sorted. It feeds diff() and is the rule's "social group".
	Set []graph.NodeID
	// id identifies the rule across rounds within this run.
	id ruleID
	// bits is Set in popcount form, built once and shared with every
	// diversify.Entry the rule appears in.
	bits diversify.Bits
	// qCenters is Q(x,G) over the mining frontier (global IDs, sorted); it
	// seeds the workers' next-round center lists.
	qCenters []graph.NodeID
	// parent and ext record the growth step that produced the rule: the
	// parent's id and the extension applied to it. The distributed engine
	// ships frontier rules structurally as (id, parent, ext, qCenters) and
	// remote workers rebuild Q as parentQ.Apply(ext) — Apply is
	// deterministic, so the rebuilt pattern is byte-identical to the
	// coordinator's materialization.
	parent ruleID
	ext    pattern.Extension
}

// Key returns the rule's stable identity within one run, in the printable
// "R%05d" boundary form.
func (m *Mined) Key() string { return m.id.String() }

// Result is the outcome of a DMine run.
type Result struct {
	TopK []Mined
	F    float64 // objective value of TopK
	// All is the full retained candidate set Σ, sorted by descending
	// confidence; it feeds the Exp-2 precision study, which ranks Σ under
	// different confidence metrics.
	All []Mined

	Rounds      int
	Generated   int     // candidate GPARs generated (before support filter)
	Kept        int     // |Σ| retained
	Pruned      int     // always 0: nothing prunes Σ; benchmark/ reads it
	IsoChecks   int     // exact isomorphism tests: DMine's code lookups, DMineNo's IsomorphicTo calls
	BisimSkips  int     // (group, earlier representative) pairs never compared pairwise: DMine's, see lookup
	WorkerOps   []int64 // per-worker match-operation counts (work proxy)
	MaxWorkerOp int64   // max over WorkerOps, the O(t/n) proxy
	// Capped counts the (parent rule, center) embedding enumerations that
	// reached EmbedCap: an upper bound on how often extension discovery was
	// truncated, i.e. on where mined supports and ∆E may be lower bounds. A
	// sum of per-center work, so it is the same for every worker layout.
	Capped int64
	// Supersteps is the coordinator's own account of where the run went, one
	// entry per round. Wall-clock timings: they belong to no identity
	// comparison (results are compared field by field, never as a whole).
	Supersteps []SuperstepStat
}

// SuperstepStat is one BSP round as the coordinator saw it, for the local
// and the remote engine alike: the frontier it extended, the messages the
// generate superstep returned (for a fleet, that span includes the wire),
// the rules assembly registered in Σ, and the time each of the three phases
// of runE took.
type SuperstepStat struct {
	Round       int     `json:"round"`
	Frontier    int     `json:"frontier"`
	Messages    int     `json:"messages"`
	Kept        int     `json:"kept"`
	GenerateMs  float64 `json:"generateMs"`
	AssembleMs  float64 `json:"assembleMs"`
	DiversifyMs float64 `json:"diversifyMs"`
}

// DMine mines diversified top-k GPARs for pred on g. It implements Fig. 4
// of the paper with incDiv and canonical-code grouping. DMineCtx on a
// prebuilt Context returns byte-identical results. Options.Ctx must be nil
// here: this entry point has no error return, so cancellable runs go through
// DMineCtx/DMineDistributed.
func DMine(g *graph.Graph, pred core.Predicate, opts Options) *Result {
	opts = opts.Defaults()
	m := newMiner(NewContext(g, pred.XLabel, opts), pred, opts)
	m.ctx.disc.Store(new(discMemo)) // one run extends no parent twice
	return m.run()
}

// DMineNo is the unoptimized baseline of Section 6: identical search, but
// the diversification is recomputed from scratch every round and candidates
// are grouped by pairwise isomorphism tests against the round's
// representatives and all of Σ. It returns the same Σ as DMine.
func DMineNo(g *graph.Graph, pred core.Predicate, opts Options) *Result {
	opts = opts.Defaults()
	m := newMiner(NewContext(g, pred.XLabel, opts), pred, opts)
	m.ctx.disc.Store(new(discMemo))
	m.baseline = true
	return m.run()
}

// ---------------------------------------------------------------------------
// Worker state

// worker holds its view of the data plus its per-round caches and scratch.
// All scratch is owned by the worker goroutine; nothing here is shared.
type worker struct {
	// frag is the graph the worker mines and the centers it owns. In process
	// it is the identity fragment (partition.Whole) over the shared graph
	// and a chunk of the candidate list; on a remote worker it is a decoded
	// d-neighbourhood fragment with its own local IDs.
	frag *partition.Fragment

	class  []eip.Class // class[local] : an owned center's LCWA class
	npq    int         // |Pq(x,Fi)|
	npqbar int         // local q̄ count
	// centersFor caches, per rule, the owned centers (local IDs, sorted)
	// whose Q still matches — the mining frontier.
	centersFor map[ruleID][]graph.NodeID

	ops       int64  // match operations (work accounting)
	capped    int64  // (parent, center) enumerations that reached EmbedCap
	centerSet []bool // centerSet[local] : node is an owned candidate center

	// Round arenas and recycled scratch (see arena.go). msgs is the
	// worker's reusable message slice; qScratch/prScratch are the candidate
	// patterns localMine materializes per discovered extension; distBuf is
	// the radius-check distance buffer.
	ar        roundArenas
	asm       asmScratch
	msgs      []message
	qScratch  *pattern.Pattern
	prScratch *pattern.Pattern
	distBuf   []int
	distXBuf  []int

	// Extension-discovery scratch (discoverExtensions): epoch-stamped
	// neighbour-class summaries, two slots per local data node — bumping
	// the epoch once per parent invalidates them all in O(1) — plus a
	// pooled extension-accumulator set reused across parents and rounds.
	nbr      []nbrSummary // nbr[2v] in-adjacency of v, nbr[2v+1] out-adjacency
	nbrEpoch uint32
	classes  []nbrClass         // backing store of the current parent's summaries
	labAt    []int32            // labAt[node label]: its class in the range being summarized
	accs     map[uint64]*extAcc // keyed by packed extension code
	accList  []*extAcc          // discovery order; re-sorted deterministically
	accPool  []*extAcc          // recycled accumulators
	// discover's memo (a zero one on a remote worker), index and scratch.
	disc *discMemo
	slot int
	key  []graph.NodeID
	exts []extAcc
	// extOverflow interns the (pathological) extensions whose fields do not
	// fit the packed code: huge label spaces or patterns beyond 127 nodes.
	extOverflow map[pattern.Extension]uint64
}

// extCode packs an extension into a uint64 key for the accumulator map —
// two orders of magnitude cheaper to hash than the struct. Equal codes ⟺
// equal extensions: in-range extensions pack injectively (disjoint bit
// fields, bit 63 clear); out-of-range ones are interned with bit 63 set.
func (w *worker) extCode(e pattern.Extension) uint64 {
	src, cl := uint64(e.Src), uint64(int64(e.Close)+1)
	el, nl := uint64(e.EdgeLabel), uint64(e.NewLabel)
	if src < 1<<7 && cl < 1<<7 && el < 1<<23 && nl < 1<<23 {
		v := src | cl<<7 | el<<14 | nl<<37
		if e.Outgoing {
			v |= 1 << 60
		}
		if e.AsY {
			v |= 1 << 61
		}
		return v
	}
	if w.extOverflow == nil {
		w.extOverflow = make(map[pattern.Extension]uint64)
	}
	id, ok := w.extOverflow[e]
	if !ok {
		id = uint64(len(w.extOverflow)) | 1<<63
		w.extOverflow[e] = id
	}
	return id
}

// ownsCenter reports whether the local node is one of this worker's owned
// candidate centers.
func (w *worker) ownsCenter(v graph.NodeID) bool {
	if w.centerSet == nil {
		w.centerSet = make([]bool, w.frag.G.NumNodes())
		for _, c := range w.frag.Centers {
			w.centerSet[c] = true
		}
	}
	return w.centerSet[v]
}

// message is the <R, conf, flag> triple of Fig. 4 in the form DMine's
// coordinator needs: the local match sets whose unions give the graph-wide
// supports, PR(x,G) and the extension frontier. The flag is implicit: a
// worker emits a message only for a candidate some owned center matches, so
// every assembled rule can be extended and the frontier is all of ∆E. The
// candidate itself travels structurally as (parent, ext) — workers verify it
// on recycled scratch patterns and the assembly materializes one rule per
// distinct candidate — and the center sets are views into the emitting
// worker's round arena, dead once the round's assembly completes.
type message struct {
	parent ruleID
	ext    pattern.Extension

	qCenters   []graph.NodeID // global IDs: owned centers matching the new Q
	rSet       []graph.NodeID // global IDs: owned centers matching PR
	qqbCenters []graph.NodeID // global IDs: Q-matching centers in the q̄ set
}

// miner is the coordinator.
type miner struct {
	ctx  *Context
	pred core.Predicate
	opts Options
	// eng places the workers: goroutines over the shared graph
	// (localEngine) or remote worker services (remoteEngine). The
	// coordinator's reduce below is identical either way.
	eng engine

	suppQ1  int // supp(q,G)
	suppQbr int // supp(q̄,G)

	baseline bool // DMineNo: pairwise isomorphism grouping, from-scratch diversification

	// sigma is Σ, all retained rules indexed by ruleID (nil = never kept, or
	// dropped by the per-round cap). Index 0 is the seed slot. sigmaCodes
	// maps a canonical code to the Σ id registered under it (DMineNo's
	// groups have no code and never read it, nor reps).
	sigma      []*Mined
	sigmaCodes map[string]ruleID
	queue      *diversify.Queue
	params     diversify.Params
	lastID     ruleID
	res        *Result

	// Per-round coordinator scratch, recycled across rounds: the frontier
	// lookup assembly shards materialize group rules from, the shard
	// assignment index, the concatenated group list, the round's
	// representatives by code, and the arena backing the cross-path union
	// merges of assemble's step 2.
	parents    map[ruleID]*Mined
	shardIdx   [][]int32
	allGroups  []*group
	reps       map[string]*group
	mergeArena nodeArena

	// Recycled diversifier-entry buffers: allEntries (Σ) and entriesOf (∆E)
	// rebuild these each round instead of allocating. The queue copies what
	// it keeps (pairs hold Entry values), so reuse is aliasing-safe.
	sigmaEntries []diversify.Entry
	deltaEntries []diversify.Entry
}

// newMiner wires a coordinator over a prebuilt context.
func newMiner(ctx *Context, pred core.Predicate, opts Options) *miner {
	return &miner{
		ctx:        ctx,
		pred:       pred,
		opts:       opts,
		eng:        &localEngine{},
		sigma:      make([]*Mined, 1), // slot 0: seed
		sigmaCodes: make(map[string]ruleID),
		reps:       make(map[string]*group),
		res:        &Result{},
	}
}

// newRuleID appends a fresh Σ slot and returns its id.
func (m *miner) newRuleID() ruleID {
	m.lastID++
	m.sigma = append(m.sigma, nil)
	return m.lastID
}

// run drives runE for runs that cannot fail: the local engine with a nil
// Options.Ctx. The non-cancellable entry points (DMine, DMineNo) route
// here and must not be handed a Ctx — a cancellation would surface as a
// panic, because they have no error to return it through.
func (m *miner) run() *Result {
	res, err := m.runE()
	if err != nil {
		// Only the remote engine and a set Options.Ctx produce errors, and
		// their entry points call runE directly; an error here is a
		// programming bug.
		panic(err)
	}
	return res
}

// runE is the coordinator loop of Fig. 4, engine-agnostic: prepare (round
// 0), then per round one generate superstep, the deterministic assemble
// reduce, and the diversify/filter/distribute step. Errors are remote
// worker failures or a done Options.Ctx (a *CanceledError stamped with the
// superstep reached); the deferred close releases workers on every exit
// path, so a failed or canceled run never leaks (and never installs a
// partial Σ — the Result is simply not returned).
func (m *miner) runE() (*Result, error) {
	defer m.eng.close(m)
	if err := m.canceled(0); err != nil {
		return nil, err
	}
	frontier, err := m.prepare()
	if err != nil {
		return nil, m.wrapCanceled(err, 0)
	}
	if frontier == nil {
		// Trivial case 1: q(x,y) specifies no user in G.
		return m.res, nil
	}
	// lap returns the milliseconds since the previous lap: three clock reads
	// per round split it into SuperstepStat's phases.
	mark := time.Now()
	lap := func() float64 {
		prev := mark
		mark = time.Now()
		return float64(mark.Sub(prev)) / float64(time.Millisecond)
	}
	for r := 1; r <= m.opts.MaxEdges && len(frontier) > 0; r++ {
		if err := m.canceled(r); err != nil {
			return nil, err
		}
		m.res.Rounds = r
		st := SuperstepStat{Round: r, Frontier: len(frontier)}
		msgs, err := m.eng.generate(m, frontier)
		if err != nil {
			return nil, m.wrapCanceled(err, r)
		}
		st.Messages, st.GenerateMs = len(msgs), lap()
		frontier = m.assemble(frontier, msgs)
		st.Kept, st.AssembleMs = len(frontier), lap()
		if err := m.diversifyAndDistribute(frontier); err != nil {
			return nil, m.wrapCanceled(err, r)
		}
		st.DiversifyMs = lap()
		m.res.Supersteps = append(m.res.Supersteps, st)
	}

	m.finish()
	return m.res, nil
}

// prepare attaches the workers, classifies every owned center against the
// predicate (round 0 — Pq, q̄ and their supports never change), and returns
// the seed frontier. It returns nil when the predicate is trivial on the
// graph. Factored out of run so the round benchmark can measure a single
// steady-state generate superstep.
func (m *miner) prepare() ([]*Mined, error) {
	npq, npqbar, err := m.eng.attach(m)
	if err != nil {
		return nil, err
	}
	for i := range npq {
		m.suppQ1 += npq[i]
		m.suppQbr += npqbar[i]
	}
	if m.suppQ1 == 0 {
		return nil, nil
	}
	m.params = diversify.Params{
		K:      m.opts.K,
		Lambda: m.opts.Lambda,
		N:      float64(m.suppQ1) * float64(m.suppQbr),
	}
	m.queue = diversify.NewQueue(m.params)

	// Seed: the bare rule with an empty antecedent (just x, and y when the
	// predicate's y participates in Q growth). It is never reported (it is
	// trivial) but its extensions are round 1's candidates.
	seedQ := pattern.New(m.ctx.g.Symbols())
	seedQ.X = seedQ.AddNodeL(m.pred.XLabel)
	seed := &Mined{
		Rule: &core.Rule{Q: seedQ, Pred: m.pred},
		id:   seedID,
	}
	return []*Mined{seed}, nil
}

// workerPool recycles workers across runs: a stack of idle workers, so a
// stream of jobs keeps mining on the arenas the jobs before it grew. What
// survives in the pool is exclusively graph-agnostic capacity — round
// arenas, message slices, extension accumulators, assembly scratch, scratch
// patterns, the epoch-stamped discovery arrays (safe across graphs because
// the epoch only moves forward). Everything whose *content* depends on the
// bound graph is reset in bind.
//
// It is not a sync.Pool because a worker is megabytes of grown arenas, not a
// small temporary. A sync.Pool is emptied by every second garbage collection
// and keeps one entry per P out of the other Ps' reach, so a daemon mining
// job after job regrew worker sets beside the stranded ones: 76 against 61 MB
// peak RSS on the end-to-end mine-jobs workload (DESIGN.md, "What the Section
// 6 optimizations buy").
var workerPool struct {
	mu   sync.Mutex
	idle []*worker
}

// acquireWorker binds pooled worker scratch to one worker's view of this
// run's data.
func acquireWorker(frag *partition.Fragment) *worker {
	var w *worker
	workerPool.mu.Lock()
	if n := len(workerPool.idle); n > 0 {
		w, workerPool.idle = workerPool.idle[n-1], workerPool.idle[:n-1]
	}
	workerPool.mu.Unlock()
	if w == nil {
		w = new(worker)
	}
	w.bind(frag)
	return w
}

// bind points the worker at its view of a run's data and clears everything
// whose content depends on the run or its graph; every run, in process or
// remote, starts here.
func (w *worker) bind(frag *partition.Fragment) {
	w.frag = frag
	w.disc, w.slot = new(discMemo), 0
	w.centerSet = nil // rebuilt lazily by ownsCenter
	clear(w.extOverflow)
	w.npq, w.npqbar = 0, 0
	w.ops, w.capped = 0, 0
	if w.centersFor == nil {
		w.centersFor = make(map[ruleID][]graph.NodeID)
	}
	clear(w.centersFor)
}

// releaseWorkers returns a finished run's workers to the pool, dropping their
// references into the graph so the pool never pins a retired snapshot. The
// pool keeps as many idle workers as the run had, or as can run at once if
// that is more — what a stream of like jobs reuses, however many jobs finish
// together — and lets the rest go.
func releaseWorkers(ws ...*worker) {
	keep := max(len(ws), runtime.GOMAXPROCS(0))
	workerPool.mu.Lock()
	defer workerPool.mu.Unlock()
	for _, w := range ws {
		w.frag = nil
		if len(workerPool.idle) < keep {
			workerPool.idle = append(workerPool.idle, w)
		}
	}
}

// finish materializes the final top-k list and objective value.
func (m *miner) finish() {
	var entries []diversify.Entry
	if !m.baseline {
		entries = m.queue.Entries()
	} else {
		entries = diversify.Greedy(m.allEntries(), m.params)
	}
	for _, e := range entries {
		if mined := m.sigmaByID(ruleID(e.ID)); mined != nil {
			m.res.TopK = append(m.res.TopK, *mined)
		}
	}
	slices.SortFunc(m.res.TopK, byConfThenID)
	m.res.F = diversify.F(entries, m.params)
	for id := seedID + 1; id <= m.lastID; id++ {
		if mined := m.sigma[id]; mined != nil {
			m.res.Kept++
			m.res.All = append(m.res.All, *mined)
		}
	}
	slices.SortFunc(m.res.All, byConfThenID)
	m.res.WorkerOps, m.res.Capped = m.eng.work()
	for _, op := range m.res.WorkerOps {
		if op > m.res.MaxWorkerOp {
			m.res.MaxWorkerOp = op
		}
	}
}

// byConfThenID orders result lists by descending confidence, ties broken by
// discovery id. slices.SortFunc keeps the hot path reflection- and
// allocation-free where sort.Slice was neither.
func byConfThenID(a, b Mined) int {
	if a.Conf != b.Conf {
		return cmp.Compare(b.Conf, a.Conf)
	}
	return cmp.Compare(a.id, b.id)
}

// sigmaByID returns the Σ member with the given id, or nil.
func (m *miner) sigmaByID(id ruleID) *Mined {
	if int(id) >= len(m.sigma) {
		return nil
	}
	return m.sigma[id]
}

// allEntries lists Σ as diversifier entries in ascending id order. The
// returned slice is the miner's recycled buffer — valid until the next call.
func (m *miner) allEntries() []diversify.Entry {
	out := m.sigmaEntries[:0]
	for id := seedID + 1; id <= m.lastID; id++ {
		mm := m.sigma[id]
		if mm == nil {
			continue
		}
		out = append(out, diversify.Entry{ID: uint32(id), Conf: mm.Conf, Set: mm.Set, B: mm.bits})
	}
	m.sigmaEntries = out
	return out
}

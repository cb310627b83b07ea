// Delta ingest and incremental maintenance: POST /v1/graph/delta applies a
// mutation batch to the served graph as a new snapshot generation without
// re-freezing (graph.ApplyDelta builds an overlay over the shared CSR), the
// match-set cache is invalidated selectively — only rules whose d-hop
// neighborhoods can intersect the touched nodes lose their entries — warm
// mine results survive mutations provably outside their reach, and a
// threshold (or the operator's timer) folds the overlay back into a real
// freeze in the background with a hot swap.
//
// The invalidation invariant: a cached evaluation for rule R may be carried
// to the new generation iff no touched node lies within distance R.Radius()
// of any XLabel node in either the old or the new graph. Every served rule
// has radius ≥ 1 (BuildSnapshot refuses anything else), which is also the
// LCWA classification radius the snapshot-global supp(q,G)/supp(q̄,G) in
// each cached Stats depend on. Warm mine results use the same test with
// radius max(D, MaxEdges)+1, the farthest any DMine probe reaches from a
// candidate center.

package serve

import (
	"errors"
	"fmt"
	"net/http"

	"gpar/internal/core"
	"gpar/internal/graph"
	"gpar/internal/mine"
)

// errBadDelta marks delta requests rejected before they reach the graph:
// the handler answers 400 (versus 409 for a structurally valid batch the
// graph refuses).
var errBadDelta = errors.New("bad delta request")

// DeltaOpSpec is one mutation of a POST /v1/graph/delta batch. Op selects
// the kind; the other fields are read per kind:
//
//	{"op":"addNode","label":"user"}            — Label: node label (ID assigned densely)
//	{"op":"addEdge","from":3,"to":9,"label":"follow"}
//	{"op":"delEdge","from":3,"to":9,"label":"follow"}
//	{"op":"setLabel","node":3,"label":"artist"}
//
// Labels are names; addNode, addEdge and setLabel intern new names, delEdge
// resolves read-only (an unknown label cannot name an existing edge).
type DeltaOpSpec struct {
	Op    string `json:"op"`
	Node  int32  `json:"node,omitempty"`
	From  int32  `json:"from,omitempty"`
	To    int32  `json:"to,omitempty"`
	Label string `json:"label,omitempty"`
}

// DeltaRequest is the body of POST /v1/graph/delta: an atomic batch of
// mutations, applied in order (later ops may reference nodes added earlier
// in the same batch).
type DeltaRequest struct {
	Ops []DeltaOpSpec `json:"ops"`
}

// DeltaResponse reports an applied batch: the new generation, the graph's
// new totals, and what incremental maintenance did with the caches.
type DeltaResponse struct {
	Generation   uint64 `json:"generation"`
	Ops          int    `json:"ops"`
	Nodes        int    `json:"nodes"`
	Edges        int    `json:"edges"`
	TouchedNodes int    `json:"touchedNodes"`
	// OverlayOps is the cumulative op count since the last real freeze —
	// the compaction trigger's input.
	OverlayOps int `json:"overlayOps"`
	// RulesCarried counts match-set cache entries renamed to the new
	// generation because the batch provably cannot affect them;
	// RulesInvalidated counts entries dropped.
	RulesCarried     int `json:"rulesCarried"`
	RulesInvalidated int `json:"rulesInvalidated"`
	// WarmMineCarried counts completed mine results still valid for the new
	// generation (jobs with identical parameters return them without
	// re-mining).
	WarmMineCarried int `json:"warmMineCarried"`
	// Compacting reports that this batch crossed Config.CompactThreshold
	// and background compaction was kicked off.
	Compacting bool `json:"compacting"`
}

// mapDeltaOps translates the wire batch into graph ops. Must run under
// swapMu: addNode/addEdge/setLabel intern label names.
func mapDeltaOps(syms *graph.Symbols, req DeltaRequest) ([]graph.DeltaOp, error) {
	if len(req.Ops) == 0 {
		return nil, fmt.Errorf("%w: empty batch", errBadDelta)
	}
	ops := make([]graph.DeltaOp, 0, len(req.Ops))
	for i, o := range req.Ops {
		switch o.Op {
		case "addNode":
			if o.Label == "" {
				return nil, fmt.Errorf("%w: op %d: addNode requires a label", errBadDelta, i)
			}
			ops = append(ops, graph.DeltaOp{Kind: graph.DeltaAddNode, Label: syms.Intern(o.Label)})
		case "addEdge":
			if o.Label == "" {
				return nil, fmt.Errorf("%w: op %d: addEdge requires a label", errBadDelta, i)
			}
			ops = append(ops, graph.DeltaOp{
				Kind: graph.DeltaAddEdge,
				From: graph.NodeID(o.From), To: graph.NodeID(o.To),
				Label: syms.Intern(o.Label),
			})
		case "delEdge":
			ops = append(ops, graph.DeltaOp{
				Kind: graph.DeltaDelEdge,
				From: graph.NodeID(o.From), To: graph.NodeID(o.To),
				Label: syms.Lookup(o.Label),
			})
		case "setLabel":
			if o.Label == "" {
				return nil, fmt.Errorf("%w: op %d: setLabel requires a label", errBadDelta, i)
			}
			ops = append(ops, graph.DeltaOp{
				Kind: graph.DeltaSetLabel,
				Node: graph.NodeID(o.Node), Label: syms.Intern(o.Label),
			})
		default:
			return nil, fmt.Errorf("%w: op %d: unknown op %q", errBadDelta, i, o.Op)
		}
	}
	return ops, nil
}

// deltaImpact returns the smallest distance from any touched node to an
// XLabel node, looking in both the old and the new graph (a deletion's
// effect is visible only in the old one, an addition's only in the new),
// capped at bound; -1 when every touched node is farther than bound. This
// single number drives all carry decisions: rule R is unaffected iff the
// impact exceeds R's radius.
func deltaImpact(old, new *graph.Graph, touched []graph.NodeID, xl graph.Label, bound int) int {
	min := -1
	for _, t := range touched {
		d := new.LabelWithinDistance(t, xl, bound)
		if int(t) < old.NumNodes() {
			if od := old.LabelWithinDistance(t, xl, bound); od != -1 && (d == -1 || od < d) {
				d = od
			}
		}
		if d != -1 && (min == -1 || d < min) {
			min = d
		}
		if min == 0 {
			break
		}
	}
	return min
}

// ApplyDelta applies a mutation batch to the served graph and installs the
// result as a new snapshot generation. The whole operation runs under the
// swap lock (interning, graph derivation, selective cache carry, install);
// identify traffic never blocks on it — in-flight requests finish on the
// snapshot they loaded. Errors wrapping errBadDelta are malformed requests
// (400); *graph.DeltaError means the batch is well-formed but inconsistent
// with the graph (409), applied atomically-or-not-at-all.
func (s *Server) ApplyDelta(req DeltaRequest) (*DeltaResponse, error) {
	s.swapMu.Lock()
	defer s.swapMu.Unlock()
	return s.applyDeltaLocked(req)
}

// applyDeltaLocked is ApplyDelta with s.swapMu already held; WAL recovery
// replays logged batches through it (with persistence suppressed) so replay
// interns symbols and derives snapshots exactly like live traffic.
func (s *Server) applyDeltaLocked(req DeltaRequest) (*DeltaResponse, error) {
	if s.closed.Load() {
		return nil, fmt.Errorf("serve: server is shutting down")
	}
	snap := s.snap.Load()
	if snap == nil {
		return nil, fmt.Errorf("serve: no snapshot loaded")
	}
	ops, err := mapDeltaOps(snap.G.Symbols(), req)
	if err != nil {
		s.nDeltaRejects.Add(1)
		return nil, err
	}
	g2, err := snap.G.ApplyDelta(ops)
	if err != nil {
		s.nDeltaRejects.Add(1)
		return nil, err
	}

	// Decide what survives before anything is installed. One BFS per
	// touched node answers both the per-rule question (bound D) and the
	// warm-mine question (bound max(D, MaxEdges)+1 per entry).
	touched := g2.DeltaTouched()
	bound := snap.D
	if wb := s.warmMaxReach(); wb > bound {
		bound = wb
	}
	impact := deltaImpact(snap.G, g2, touched, snap.Pred.XLabel, bound)

	next := DeriveDeltaSnapshot(snap, g2, s.cfg)
	next.Gen = s.gen.Add(1)
	// Durability barrier: the accepted batch reaches the WAL (per the sync
	// policy) before any publication side effect; on failure the generation
	// rolls back and the client sees the error, so no generation is ever
	// served that recovery could not reproduce.
	if err := s.persistAppend(next.Gen, req); err != nil {
		s.gen.Store(next.Gen - 1)
		return nil, fmt.Errorf("serve: delta not logged: %w", err)
	}
	carried, invalidated := 0, 0
	for _, sr := range snap.Rules {
		oldKey := evalKey{snap.Gen, sr.Key}
		// A rule is unaffected iff the impact exceeds its radius.
		if impact != -1 && impact <= sr.Radius {
			if s.cache.Remove(oldKey) {
				invalidated++
			}
			continue
		}
		if s.cache.Carry(oldKey, evalKey{next.Gen, sr.Key}) {
			carried++
		}
	}
	warmCarried := s.warmCarry(snap.Gen, next.Gen, impact)
	s.snap.Store(next)
	// Mine contexts are keyed to the old generation's graph; reclaim them
	// eagerly, as a swap would.
	s.mineCtx.Purge()
	s.nSwap.Add(1)
	s.nDeltaBatches.Add(1)
	s.nDeltaOps.Add(int64(len(ops)))
	s.nRuleCarried.Add(int64(carried))
	s.nRuleInvalidated.Add(int64(invalidated))

	resp := &DeltaResponse{
		Generation:       next.Gen,
		Ops:              len(ops),
		Nodes:            g2.NumNodes(),
		Edges:            g2.NumEdges(),
		TouchedNodes:     len(touched),
		OverlayOps:       g2.OverlayOps(),
		RulesCarried:     carried,
		RulesInvalidated: invalidated,
		WarmMineCarried:  warmCarried,
		Compacting:       s.maybeCompactLocked(g2),
	}
	return resp, nil
}

// maybeCompactLocked kicks off background compaction when the overlay has
// crossed Config.CompactThreshold and none is already running. Caller holds
// swapMu; the goroutine blocks on it until the delta installs.
func (s *Server) maybeCompactLocked(g *graph.Graph) bool {
	if s.cfg.CompactThreshold <= 0 || g.OverlayOps() < s.cfg.CompactThreshold {
		return false
	}
	if !s.compactBusy.CompareAndSwap(false, true) {
		return false
	}
	s.jobWG.Add(1)
	go func() {
		defer s.jobWG.Done()
		defer s.compactBusy.Store(false)
		if _, _, err := s.Compact(); err != nil {
			s.nCompactAborts.Add(1)
		}
	}()
	return true
}

// Compact folds the served graph's delta overlay into a freshly frozen
// graph and hot-swaps it in as a new generation. The logical graph is
// unchanged, so every match-set cache entry and warm mine result is carried
// across. The copy itself runs off-lock (the overlay graph is immutable);
// snapshot rebuild and install serialize with other mutations on the swap
// lock, and the install aborts — no error, nothing lost — if a delta or
// swap landed in between (the next trigger retries on the newer overlay).
// It reports the resulting generation and whether a compaction happened;
// a snapshot with no overlay is a no-op.
func (s *Server) Compact() (uint64, bool, error) {
	snap := s.snap.Load()
	if snap == nil || !snap.G.Overlaid() {
		return s.gen.Load(), false, nil
	}
	g := snap.G.CompactCopy()

	s.swapMu.Lock()
	defer s.swapMu.Unlock()
	if s.closed.Load() || s.snap.Load() != snap {
		s.nCompactAborts.Add(1)
		return s.gen.Load(), false, nil
	}
	next := DeriveDeltaSnapshot(snap, g, s.cfg)
	next.Gen = s.gen.Add(1)
	// A compaction is a swap like any other: checkpoint before publish.
	if err := s.persistCheckpoint(next); err != nil {
		s.gen.Store(next.Gen - 1)
		return s.gen.Load(), false, err
	}
	for _, sr := range snap.Rules {
		s.cache.Carry(evalKey{snap.Gen, sr.Key}, evalKey{next.Gen, sr.Key})
	}
	s.warmCarry(snap.Gen, next.Gen, -1) // logical graph unchanged: carry all
	s.snap.Store(next)
	s.mineCtx.Purge()
	s.nSwap.Add(1)
	s.nCompactions.Add(1)
	return next.Gen, true, nil
}

// warmKey identifies a completed mine result by its fully resolved
// parameters. The worker count is deliberately absent: mining results are
// byte-identical across worker counts (pinned by the mine package's parity
// tests), so a result computed under any N answers them all.
type warmKey struct {
	pred     core.Predicate
	k, sigma int
	d        int
	lambda   float64
	maxEdges int
	cap      int
}

// warmEntry is one carried mine result: valid only while gen matches the
// served generation, carried across deltas whose impact stays beyond reach.
// bornGen is the generation the result was mined at; a warm hit requires
// gen != bornGen — the entry must have been carried across at least one
// swap — so same-generation repeat jobs keep exercising the real mining
// path (and its context reuse) exactly as before deltas existed.
type warmEntry struct {
	gen     uint64
	bornGen uint64
	reach   int // max(d, maxEdges) + 1: the farthest probe from a candidate
	res     *mine.Result
}

// maxWarmMine bounds the warm-result map; completed param sets beyond it
// evict arbitrarily (operator-driven mining keeps this tiny in practice).
const maxWarmMine = 16

func warmKeyFor(pred core.Predicate, opts mine.Options) warmKey {
	return warmKey{
		pred: pred, k: opts.K, sigma: opts.Sigma, d: opts.D,
		lambda: opts.Lambda, maxEdges: opts.MaxEdges,
		cap: opts.MaxCandidatesPerRound,
	}
}

// warmGet returns the carried result for these parameters if it is valid
// for generation gen and was mined at an earlier generation.
func (s *Server) warmGet(pred core.Predicate, opts mine.Options, gen uint64) *mine.Result {
	s.warmMu.Lock()
	defer s.warmMu.Unlock()
	if e, ok := s.warm[warmKeyFor(pred, opts)]; ok && e.gen == gen && e.bornGen != gen {
		return e.res
	}
	return nil
}

// warmPut records a completed mine result for generation gen.
func (s *Server) warmPut(pred core.Predicate, opts mine.Options, gen uint64, res *mine.Result) {
	s.warmMu.Lock()
	defer s.warmMu.Unlock()
	if s.warm == nil {
		s.warm = make(map[warmKey]*warmEntry)
	}
	k := warmKeyFor(pred, opts)
	if _, ok := s.warm[k]; !ok && len(s.warm) >= maxWarmMine {
		for victim := range s.warm {
			delete(s.warm, victim)
			break
		}
	}
	reach := opts.D
	if opts.MaxEdges > reach {
		reach = opts.MaxEdges
	}
	s.warm[k] = &warmEntry{gen: gen, bornGen: gen, reach: reach + 1, res: res}
}

// warmMaxReach returns the largest invalidation radius among live warm
// entries (0 when none), so ApplyDelta can size its BFS bound.
func (s *Server) warmMaxReach() int {
	s.warmMu.Lock()
	defer s.warmMu.Unlock()
	max := 0
	for _, e := range s.warm {
		if e.reach > max {
			max = e.reach
		}
	}
	return max
}

// warmCarry retargets entries from oldGen to newGen when the delta impact
// (−1 = nothing touched within the probed bound) stays strictly beyond
// their reach, and drops the rest. It returns how many were carried.
func (s *Server) warmCarry(oldGen, newGen uint64, impact int) int {
	s.warmMu.Lock()
	defer s.warmMu.Unlock()
	carried := 0
	for k, e := range s.warm {
		if e.gen != oldGen {
			delete(s.warm, k) // stale generation: unreachable forever
			continue
		}
		if impact != -1 && impact <= e.reach {
			delete(s.warm, k)
			continue
		}
		e.gen = newGen
		carried++
	}
	return carried
}

// warmPurge drops every warm entry (graph replaced wholesale).
func (s *Server) warmPurge() {
	s.warmMu.Lock()
	defer s.warmMu.Unlock()
	clear(s.warm)
}

// handleDelta is POST /v1/graph/delta. 202: the batch was applied as a new
// snapshot generation (the body reports it). 400: malformed JSON or an op
// the protocol does not know. 409: a well-formed batch the graph refuses —
// unknown node, duplicate edge, missing edge — applied not at all. 413: a
// body over maxDeltaBody, or a batch whose WAL record recovery would refuse.
func (s *Server) handleDelta(w http.ResponseWriter, r *http.Request) {
	if s.ready(w) == nil {
		return
	}
	var req DeltaRequest
	if !decodeBody(w, r, maxDeltaBody, &req) {
		s.nDeltaRejects.Add(1)
		return
	}
	resp, err := s.ApplyDelta(req)
	if err != nil {
		var de *graph.DeltaError
		switch {
		case errors.Is(err, errBadDelta):
			httpError(w, http.StatusBadRequest, "%v", err)
		case errors.As(err, &de):
			httpError(w, http.StatusConflict, "%v", err)
		case errors.Is(err, errRecordTooLarge):
			httpError(w, http.StatusRequestEntityTooLarge, "%v", err)
		default:
			httpError(w, http.StatusServiceUnavailable, "%v", err)
		}
		return
	}
	writeJSON(w, http.StatusAccepted, resp)
}

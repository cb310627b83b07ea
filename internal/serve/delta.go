// Delta ingest and incremental maintenance: POST /v1/graph/delta applies a
// mutation batch to the served graph as a new snapshot generation without
// re-freezing (graph.ApplyDelta builds an overlay over the shared CSR), and
// the batch that brings the overlay to a threshold folds it back into a
// real freeze before it answers (compactLocked). The batch's repair is the
// one description of what changed: a cached rule evaluation crosses it
// repaired at the centres the batch can affect, a finished mine result iff
// no change lies within its reach (repair.reaches).

package serve

import (
	"errors"
	"fmt"
	"net/http"
	"slices"

	"gpar/internal/eip"
	"gpar/internal/graph"
	"gpar/internal/pattern"
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
	// OverlayOps is the cumulative op count since the last real freeze,
	// this batch included — the compaction trigger's input.
	OverlayOps int `json:"overlayOps"`
	// RulesCarried counts match-set cache entries moved to the new
	// generation, as they were or repaired (RulesRepaired of them);
	// RulesInvalidated counts entries dropped.
	RulesCarried     int `json:"rulesCarried"`
	RulesRepaired    int `json:"rulesRepaired"`
	RulesInvalidated int `json:"rulesInvalidated"`
	// WarmMineCarried counts finished mine results moved to the new
	// generation (jobs with identical parameters return them without
	// re-mining).
	WarmMineCarried int `json:"warmMineCarried"`
	// Compacting reports that this batch reached Config.CompactThreshold
	// and the overlay was folded, as generation Generation+1, before this
	// answer.
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

// ApplyDelta applies a mutation batch to the served graph and installs the
// result as a new snapshot generation. The whole operation runs under the
// swap lock (interning, graph derivation, cache repair, install); identify
// traffic never blocks on it — in-flight requests finish on the snapshot
// they loaded. A batch that brings the overlay to Config.CompactThreshold
// also compacts it, still under the lock, before it answers. Errors
// wrapping errBadDelta are malformed requests (400); *graph.DeltaError
// means the batch is well-formed but inconsistent with the graph (409),
// applied atomically-or-not-at-all.
func (s *Server) ApplyDelta(req DeltaRequest) (*DeltaResponse, error) {
	s.swapMu.Lock()
	defer s.swapMu.Unlock()
	resp, err := s.applyDeltaLocked(req)
	if err == nil && s.cfg.CompactThreshold > 0 && resp.OverlayOps >= s.cfg.CompactThreshold {
		_, resp.Compacting, _ = s.compactLocked(s.snap.Load())
	}
	return resp, err
}

// applyDeltaLocked is ApplyDelta with s.swapMu already held and no
// compaction; WAL recovery replays logged batches through it (with
// persistence suppressed) so replay interns symbols and derives snapshots
// exactly like live traffic. A compaction is a checkpoint, never a WAL
// record, so replay must not add one: every later record would land one
// generation off.
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

	touched := g2.DeltaTouched()
	rep := newRepair(snap, g2, ops, touched, s.cfg)
	c, err := s.publish(rep.next, rep, &req)
	if err != nil {
		return nil, fmt.Errorf("serve: delta not logged: %w", err)
	}
	s.nDeltaBatches.Add(1)
	s.nDeltaOps.Add(int64(len(ops)))
	s.nRuleCarried.Add(int64(c.rules))
	s.nRuleInvalidated.Add(int64(c.dropped))
	s.nRuleRepaired.Add(int64(rep.repaired))
	s.nCentresRepaired.Add(int64(rep.centres))

	return &DeltaResponse{
		Generation:       rep.next.Gen,
		Ops:              len(ops),
		Nodes:            g2.NumNodes(),
		Edges:            g2.NumEdges(),
		TouchedNodes:     len(touched),
		OverlayOps:       g2.OverlayOps(),
		RulesCarried:     c.rules,
		RulesRepaired:    rep.repaired,
		RulesInvalidated: c.dropped,
		WarmMineCarried:  c.mined,
	}, nil
}

// repair is what one generation change did to the logical graph, and so
// what crosses publish: nil for another graph, unchanged for a change that
// keeps it, newRepair's for a delta batch. A match of P (Q or PR) at c lies
// within dist_P(x, u) of c for each pattern node u (Section 2.2), and a
// match gained (in the new graph) or lost (in the old) uses a changed edge
// or node label. So P(c) can change only at x nodes within dist_P(x, a) of
// s, or dist_P(x, b) of t, of a changed edge s -ℓ-> t that can play a
// P-edge a -ℓ-> b, or within dist_P(x, u) of a changed node that can play
// u, in the graph that has the edge or label; centres whose LCWA class can
// change join them. apply re-checks only those. Likewise a DMine probe lies
// within its reach of a candidate, so reaches decides which finished mine
// results cross.
type repair struct {
	old, next *Snapshot
	edges     []change       // edges in one of the two graphs only
	nodes     []change       // labels a touched node has in one of them only
	lcwa      []graph.NodeID // nodes whose LCWA class can change
	same      bool           // supp(q,G), supp(q̄,G) and the centre count unchanged
	near      map[reachKey][]graph.NodeID
	reach     map[[2]int]bool // reaches, per (x label, distance)

	repaired, centres int // entries patched, and the centres they re-checked
}

// change is an edge s -l-> t, or a label l on node s, that g has and the
// other graph of the batch has not.
type change struct {
	s, t graph.NodeID
	l    graph.Label
	g    *graph.Graph
}

type reachKey struct {
	g *graph.Graph
	v graph.NodeID
	d int
}

// unchanged is the repair of a generation change that keeps snap's logical
// graph — a rules-only swap, an install, a compaction: no centre is
// affected and no change is in reach, so every evaluation of a rule the
// new snapshot serves and every finished mine result crosses as it is.
func unchanged(snap *Snapshot) *repair {
	return &repair{old: snap, next: snap, same: true, reach: map[[2]int]bool{}}
}

// newRepair collects what the batch ops changed between old.G and g1, and
// builds next, the batch's snapshot of g1 with its classes patched at lcwa.
func newRepair(old *Snapshot, g1 *graph.Graph, ops []graph.DeltaOp, touched []graph.NodeID, cfg Config) *repair {
	g0, q := old.G, old.Pred.EdgeLabel
	r := &repair{old: old, near: map[reachKey][]graph.NodeID{}, reach: map[[2]int]bool{}}
	has := func(g *graph.Graph, op graph.DeltaOp) bool {
		n := graph.NodeID(g.NumNodes())
		return op.From < n && op.To < n && g.HasEdge(op.From, op.To, op.Label)
	}
	for _, op := range ops {
		if in0 := has(g0, op); (op.Kind == graph.DeltaAddEdge || op.Kind == graph.DeltaDelEdge) && in0 != has(g1, op) {
			g := g1
			if in0 {
				g = g0
			}
			r.edges = append(r.edges, change{op.From, op.To, op.Label, g})
			if op.Label == q {
				r.lcwa = append(r.lcwa, op.From)
			}
		}
	}
	for _, v := range touched {
		if int(v) < g0.NumNodes() && g0.Label(v) == g1.Label(v) {
			continue
		}
		for _, g := range []*graph.Graph{g0, g1} {
			if int(v) < g.NumNodes() {
				r.nodes = append(r.nodes, change{s: v, l: g.Label(v), g: g})
				r.lcwa = append(r.lcwa, v)
				for _, e := range g.InRangeL(v, q) {
					r.lcwa = append(r.lcwa, e.To)
				}
			}
		}
	}
	r.next = old.patch(g1, r.lcwa, cfg)
	r.same = old.SuppQ1 == r.next.SuppQ1 && old.SuppQbar == r.next.SuppQbar &&
		len(old.centres.Nodes) == len(r.next.centres.Nodes)
	return r
}

// affected returns sr's affected centres, ascending, or false when the batch
// changes a part of Q that x cannot reach in Q (it hangs off y, joined to x
// only by q(x, y)): Q(c) may then change at every centre.
func (r *repair) affected(sr *ServedRule) ([]graph.NodeID, bool) {
	set := slices.Clone(r.lcwa)
	for _, p := range []*pattern.Pattern{sr.Rule.Q, sr.pr} {
		dist := p.DistancesFrom(p.X) // Q's own: it reaches farther than PR's
		reach := func(g *graph.Graph, v graph.NodeID, u int) bool {
			set = append(set, r.within(g, v, dist[u])...)
			return dist[u] >= 0
		}
		for _, c := range r.edges {
			for _, e := range p.Edges() {
				if e.Label != c.l || p.Label(e.From) != c.g.Label(c.s) || p.Label(e.To) != c.g.Label(c.t) {
					continue
				}
				v, u := c.s, e.From
				if dist[e.To] < dist[u] {
					v, u = c.t, e.To
				}
				if !reach(c.g, v, u) {
					return nil, false
				}
			}
		}
		for _, c := range r.nodes {
			for u := range dist {
				if p.Label(u) == c.l && !reach(c.g, c.s, u) {
					return nil, false
				}
			}
		}
	}
	set = slices.DeleteFunc(set, func(v graph.NodeID) bool { return !r.centre(r.old.G, v) && !r.centre(r.next.G, v) })
	slices.Sort(set)
	return slices.Compact(set), true
}

// reaches reports whether a changed edge (either end) or label lies within d
// undirected hops of a node labelled xl, in the graph that has it: a DMine
// run for x label xl whose probes reach d (minedKey.reach) can see the
// change.
func (r *repair) reaches(xl graph.Label, d int) bool {
	k := [2]int{int(xl), d}
	if _, ok := r.reach[k]; !ok {
		near := func(g *graph.Graph, v graph.NodeID) bool { return g.LabelWithinDistance(v, xl, d) >= 0 }
		r.reach[k] = slices.ContainsFunc(r.edges, func(c change) bool { return near(c.g, c.s) || near(c.g, c.t) }) ||
			slices.ContainsFunc(r.nodes, func(c change) bool { return near(c.g, c.s) })
	}
	return r.reach[k]
}

// within returns the x nodes of g within d undirected hops of v (none for
// d < 0), once per batch for each (graph, node, distance).
func (r *repair) within(g *graph.Graph, v graph.NodeID, d int) []graph.NodeID {
	k := reachKey{g, v, d}
	if near, ok := r.near[k]; ok {
		return near
	}
	var near []graph.NodeID
	g.Walk(v, d, func(w graph.NodeID, _ int) bool {
		if r.centre(g, w) {
			near = append(near, w)
		}
		return true
	})
	r.near[k] = near
	return near
}

// centre reports whether v is a node of g with the x label.
func (r *repair) centre(g *graph.Graph, v graph.NodeID) bool {
	return int(v) < g.NumNodes() && g.Label(v) == r.old.Pred.XLabel
}

// apply is the publish walk's decision for sr's entry ev (nil: a build in
// flight). With no affected centre and unchanged snapshot-wide counts it
// crosses as it is. Otherwise the affected centres' shares of a finished
// entry — confirmed on the old snapshot — are replaced by their shares
// confirmed on the new one. A build in flight, a rule without locality, and
// a set over the entry's Survivors are dropped: a re-evaluation would
// confirm fewer centres. An exact rule's re-evaluation (match.Filter.Exact)
// confirms none, only the filter pass runs; its Survivors are its matches,
// and the test bounds the set by those.
func (r *repair) apply(sr *ServedRule, ev *RuleEval) (*RuleEval, bool) {
	set, local := r.affected(sr)
	switch {
	case !local:
		return nil, false
	case len(set) == 0 && r.same:
		return ev, true
	case ev == nil || len(set) > ev.Survivors:
		return nil, false
	}
	before := r.old.confirm(sr, r.classed(r.old, set), nil)
	after := r.next.confirm(sr, r.classed(r.next, set), nil)
	out := *ev
	if !slices.Equal(before.Q, after.Q) {
		gone := func(v graph.NodeID) bool { _, ok := slices.BinarySearch(before.Q, v); return ok }
		out.Matches = unionSorted([][]graph.NodeID{slices.DeleteFunc(slices.Clone(ev.Matches), gone), after.Q})
		out.encoded = nil // the old bytes print the old matches
	}
	out.Stats.SuppR += after.R - before.R
	out.Stats.SuppQqb += after.Qqb - before.Qqb
	r.repaired++
	r.centres += len(set)
	return r.next.settle(&out), true
}

// classed is the members of set that are centres of snap's graph, in
// set's ascending order, so confirm's matches come out sorted, with their
// classes in snap's bitsets.
func (r *repair) classed(snap *Snapshot, set []graph.NodeID) eip.Centers {
	cs := snap.centres
	cs.Nodes = slices.DeleteFunc(slices.Clone(set), func(v graph.NodeID) bool { return !r.centre(snap.G, v) })
	return cs
}

// Compact folds the served graph's delta overlay into a freshly frozen
// graph and publishes it as a new generation. It reports the resulting
// generation and whether a compaction happened; a snapshot with no
// overlay, or a server shutting down, is a no-op.
func (s *Server) Compact() (uint64, bool, error) {
	s.swapMu.Lock()
	defer s.swapMu.Unlock()
	snap := s.snap.Load()
	if s.closed.Load() || snap == nil || !snap.G.Overlaid() {
		return s.gen.Load(), false, nil
	}
	return s.compactLocked(snap)
}

// compactLocked copies snap's graph, overlay and all, into a freshly frozen
// one and publishes it, checkpointed. The logical graph is unchanged, so
// the new snapshot carries snap's classes and supports, and publish carries
// every match-set evaluation and mine result across. The caller holds
// swapMu and snap is the served snapshot, so nothing can land between the
// copy and its publish. A failed publish counts as an abort and leaves the
// overlay served: the next batch that finds it at the threshold tries
// again.
func (s *Server) compactLocked(snap *Snapshot) (uint64, bool, error) {
	next := snap.patch(snap.G.CompactCopy(), nil, s.cfg)
	if _, err := s.publish(next, unchanged(next), nil); err != nil {
		s.nCompactAborts.Add(1)
		return s.gen.Load(), false, err
	}
	s.nCompactions.Add(1)
	return next.Gen, true, nil
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

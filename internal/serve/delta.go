// Delta ingest and incremental maintenance: POST /v1/graph/delta applies a
// mutation batch to the served graph as a new snapshot generation without
// re-freezing (graph.ApplyDelta builds an overlay over the shared CSR), and
// the batch that brings the overlay to a threshold folds it back into a
// real freeze before it answers (compactLocked). What survives a batch is
// publish's reach rule, fed by deltaImpact. Every served rule has radius
// ≥ 1 (BuildSnapshot refuses anything else), which is also the LCWA
// classification radius the snapshot-global supp(q,G)/supp(q̄,G) in each
// cached Stats depend on.

package serve

import (
	"errors"
	"fmt"
	"net/http"

	"gpar/internal/graph"
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
	// generation because the batch provably cannot affect them;
	// RulesInvalidated counts entries dropped.
	RulesCarried     int `json:"rulesCarried"`
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

// deltaImpact returns the smallest distance from any touched node to an
// XLabel node, looking in both the old and the new graph (a deletion's
// effect is visible only in the old one, an addition's only in the new), or
// bound+1 when every touched node is farther than bound: a lower bound on
// the distance, exact up to bound. publish carries a value across the
// batch iff the impact exceeds its reach, so bound must cover the farthest
// resident reach.
func deltaImpact(old, new *graph.Graph, touched []graph.NodeID, xl graph.Label, bound int) int {
	impact := bound + 1
	for _, t := range touched {
		d := new.LabelWithinDistance(t, xl, bound)
		if int(t) < old.NumNodes() {
			if od := old.LabelWithinDistance(t, xl, bound); od != -1 && (d == -1 || od < d) {
				d = od
			}
		}
		if d != -1 && d < impact {
			impact = d
		}
		if impact == 0 {
			break
		}
	}
	return impact
}

// ApplyDelta applies a mutation batch to the served graph and installs the
// result as a new snapshot generation. The whole operation runs under the
// swap lock (interning, graph derivation, selective cache carry, install);
// identify traffic never blocks on it — in-flight requests finish on the
// snapshot they loaded. A batch that brings the overlay to
// Config.CompactThreshold also compacts it, still under the lock, before it
// answers. Errors wrapping errBadDelta are malformed requests (400);
// *graph.DeltaError means the batch is well-formed but inconsistent with
// the graph (409), applied atomically-or-not-at-all.
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

	// One BFS per touched node, bounded by the farthest reach resident: the
	// largest rule radius, or a finished mine result's.
	touched := g2.DeltaTouched()
	bound := snap.D
	for _, k := range s.mined.Keys() {
		bound = max(bound, k.reach())
	}
	impact := deltaImpact(snap.G, g2, touched, snap.Pred.XLabel, bound)
	next := DeriveDeltaSnapshot(snap, g2, s.cfg)
	c, err := s.publish(next, impact, &req)
	if err != nil {
		return nil, fmt.Errorf("serve: delta not logged: %w", err)
	}
	s.nDeltaBatches.Add(1)
	s.nDeltaOps.Add(int64(len(ops)))
	s.nRuleCarried.Add(int64(c.rules))
	s.nRuleInvalidated.Add(int64(c.dropped))

	return &DeltaResponse{
		Generation:       next.Gen,
		Ops:              len(ops),
		Nodes:            g2.NumNodes(),
		Edges:            g2.NumEdges(),
		TouchedNodes:     len(touched),
		OverlayOps:       g2.OverlayOps(),
		RulesCarried:     c.rules,
		RulesInvalidated: c.dropped,
		WarmMineCarried:  c.mined,
	}, nil
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
// publish carries every match-set evaluation and mine result across. The
// caller holds swapMu and snap is the served snapshot, so nothing can land
// between the copy and its publish. A failed publish counts as an abort
// and leaves the overlay served: the next batch that finds it at the
// threshold tries again.
func (s *Server) compactLocked(snap *Snapshot) (uint64, bool, error) {
	next := DeriveDeltaSnapshot(snap, snap.G.CompactCopy(), s.cfg)
	if _, err := s.publish(next, -1, nil); err != nil {
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

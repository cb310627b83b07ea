// Delta overlays: applying a batch of mutations to a frozen graph without
// re-freezing it. ApplyDelta returns a new *Graph that shares the base
// graph's CSR arenas, adjacency headers and symbol table, carries fresh
// merged adjacency only for the nodes touched since the freeze, and routes
// every read path (Out, In, Degree, HasEdge, OutRangeL, InRangeL,
// NodesWithLabel) around the stale entries via a small overlay, so a batch
// costs what it touches plus the overlay, not |V| headers. Untouched nodes
// keep the frozen fast path bit for bit;
// the base graph is never mutated, so readers of the old generation are
// undisturbed — the serving layer installs the derived graph as a new
// snapshot generation. CompactCopy folds an overlay back into a fresh
// freeze when the overlay has grown past its welcome.

package graph

import (
	"fmt"
	"maps"
	"slices"
)

// DeltaOpKind enumerates the mutations a delta batch may carry.
type DeltaOpKind uint8

// The delta op kinds. Node deletion is deliberately absent: node IDs are
// dense and shared with every live snapshot, so a "removed" entity is
// modeled by deleting its edges (and, if desired, relabeling it).
const (
	DeltaAddNode  DeltaOpKind = iota + 1 // add a node labeled Label; IDs are assigned densely
	DeltaAddEdge                         // add edge From -> To labeled Label
	DeltaDelEdge                         // delete edge From -> To labeled Label
	DeltaSetLabel                        // relabel node Node to Label
)

// String names the kind for error messages and logs.
func (k DeltaOpKind) String() string {
	switch k {
	case DeltaAddNode:
		return "add-node"
	case DeltaAddEdge:
		return "add-edge"
	case DeltaDelEdge:
		return "del-edge"
	case DeltaSetLabel:
		return "set-label"
	default:
		return fmt.Sprintf("delta-op(%d)", uint8(k))
	}
}

// DeltaOp is one mutation in a delta batch. Which fields are meaningful
// depends on Kind: AddNode and SetLabel use Node (ignored for AddNode — the
// new ID is assigned densely) and Label as a node label; AddEdge and DelEdge
// use From, To and Label as an edge label. Ops within a batch apply in
// order, so later ops may reference nodes added earlier in the same batch.
type DeltaOp struct {
	Kind  DeltaOpKind
	Node  NodeID
	From  NodeID
	To    NodeID
	Label Label
}

// DeltaError reports why a delta batch was rejected. Application is atomic:
// a batch that fails validation at any op leaves the base graph untouched
// and produces no derived graph.
type DeltaError struct {
	Index  int     // position of the offending op within the batch
	Op     DeltaOp // the op itself
	Reason string
}

// Error implements error.
func (e *DeltaError) Error() string {
	return fmt.Sprintf("delta op %d (%s): %s", e.Index, e.Op.Kind, e.Reason)
}

// overlay is the per-derived-graph bookkeeping that routes reads around the
// shared (now partially stale) CSR index and the base graph's adjacency
// headers. All fields are immutable after ApplyDelta returns, so a derived
// graph is as read-shareable as a frozen one.
type overlay struct {
	// bypass has one entry per node: true when v's csr entries and shared
	// headers are stale (touched since the freeze) or absent (newer than
	// it), so reads take v's adjacency from out and in instead.
	bypass []bool

	// out and in hold the adjacency of every bypassed node, one entry per
	// node in each map (nil when it has no edges that way). Every other
	// node reads the base graph's headers, which a derived graph shares.
	out, in map[NodeID][]Edge

	// nodesByLabel overrides the csr candidate index for every node label
	// whose membership changed since the last real freeze: the full, sorted
	// node list for that label. Labels absent from the map are served from
	// the csr.
	nodesByLabel map[Label][]NodeID

	ops          int      // cumulative op count since the last real freeze
	batchTouched []NodeID // nodes touched by the most recent batch, ascending
}

// labelRun returns the contiguous run of edges labeled l within a
// (Label, To)-sorted adjacency list. It is rangeL for overlay-merged
// adjacency, which has no per-node label index.
func labelRun(adj []Edge, l Label) []Edge {
	lo := lowerBound(adj, l)
	hi := lo
	for hi < len(adj) && adj[hi].Label == l {
		hi++
	}
	if lo == hi {
		return nil
	}
	return adj[lo:hi]
}

// lowerBound returns the first index of adj whose Label is >= l.
func lowerBound(adj []Edge, l Label) int {
	lo, hi := 0, len(adj)
	for lo < hi {
		mid := (lo + hi) / 2
		if adj[mid].Label < l {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// cmpEdge orders edges by (Label, To), the frozen adjacency invariant.
func cmpEdge(a, b Edge) int {
	if a.Label != b.Label {
		return int(a.Label) - int(b.Label)
	}
	return int(a.To) - int(b.To)
}

// ApplyDelta applies a batch of mutations to a frozen graph and returns the
// result as a new graph; g itself is never modified. The derived graph
// shares g's CSR arenas and adjacency headers (touched nodes get fresh
// merged adjacency in the overlay) and is immediately frozen-for-reading:
// every concurrent read path that is safe on a frozen graph is safe on it.
// Application is atomic — the first invalid op aborts the whole batch with a
// *DeltaError and no derived graph. Deltas stack: applying a batch to an
// already-overlaid graph accumulates into one overlay over the original
// freeze. Freeze is a no-op on a derived graph; folding the overlay back
// into a real freeze is an explicit CompactCopy.
func (g *Graph) ApplyDelta(ops []DeltaOp) (*Graph, error) {
	g.Freeze()
	baseN := g.NumNodes()
	maxLabel := Label(g.syms.Len())

	labels := slices.Clone(g.labels)
	stagedOut := make(map[NodeID][]Edge)
	stagedIn := make(map[NodeID][]Edge)
	touched := make(map[NodeID]struct{})
	affected := make(map[Label]struct{}) // node labels whose membership changed
	numE := g.numE

	// stage returns the working adjacency of v as a mutable copy: staged if
	// an earlier op already touched it, cloned from g otherwise. Both are
	// (Label, To)-sorted, the invariant every op maintains.
	stage := func(m map[NodeID][]Edge, read func(NodeID) []Edge, v NodeID) []Edge {
		if a, ok := m[v]; ok {
			return a
		}
		var a []Edge
		if int(v) < baseN {
			a = slices.Clone(read(v))
		}
		m[v] = a
		return a
	}
	fail := func(i int, op DeltaOp, reason string) (*Graph, error) {
		return nil, &DeltaError{Index: i, Op: op, Reason: reason}
	}

	for i, op := range ops {
		switch op.Kind {
		case DeltaAddNode:
			if op.Label <= NoLabel || op.Label > maxLabel {
				return fail(i, op, "node label not interned")
			}
			v := NodeID(len(labels))
			labels = append(labels, op.Label)
			touched[v] = struct{}{}
			affected[op.Label] = struct{}{}

		case DeltaAddEdge:
			if int(op.From) < 0 || int(op.From) >= len(labels) {
				return fail(i, op, "unknown from node")
			}
			if int(op.To) < 0 || int(op.To) >= len(labels) {
				return fail(i, op, "unknown to node")
			}
			if op.Label <= NoLabel || op.Label > maxLabel {
				return fail(i, op, "edge label not interned")
			}
			e := Edge{To: op.To, Label: op.Label}
			out := stage(stagedOut, g.Out, op.From)
			if pos, dup := slices.BinarySearchFunc(out, e, cmpEdge); dup {
				return fail(i, op, "edge already exists")
			} else {
				stagedOut[op.From] = slices.Insert(out, pos, e)
			}
			in := stage(stagedIn, g.In, op.To)
			re := Edge{To: op.From, Label: op.Label}
			pos, _ := slices.BinarySearchFunc(in, re, cmpEdge)
			stagedIn[op.To] = slices.Insert(in, pos, re)
			numE++
			touched[op.From] = struct{}{}
			touched[op.To] = struct{}{}

		case DeltaDelEdge:
			if int(op.From) < 0 || int(op.From) >= len(labels) {
				return fail(i, op, "unknown from node")
			}
			if int(op.To) < 0 || int(op.To) >= len(labels) {
				return fail(i, op, "unknown to node")
			}
			e := Edge{To: op.To, Label: op.Label}
			out := stage(stagedOut, g.Out, op.From)
			pos, ok := slices.BinarySearchFunc(out, e, cmpEdge)
			if !ok {
				return fail(i, op, "no such edge")
			}
			stagedOut[op.From] = slices.Delete(out, pos, pos+1)
			in := stage(stagedIn, g.In, op.To)
			re := Edge{To: op.From, Label: op.Label}
			rpos, rok := slices.BinarySearchFunc(in, re, cmpEdge)
			if !rok {
				return fail(i, op, "adjacency desynchronized") // unreachable by construction
			}
			stagedIn[op.To] = slices.Delete(in, rpos, rpos+1)
			numE--
			touched[op.From] = struct{}{}
			touched[op.To] = struct{}{}

		case DeltaSetLabel:
			if int(op.Node) < 0 || int(op.Node) >= len(labels) {
				return fail(i, op, "unknown node")
			}
			if op.Label <= NoLabel || op.Label > maxLabel {
				return fail(i, op, "node label not interned")
			}
			old := labels[op.Node]
			labels[op.Node] = op.Label
			affected[old] = struct{}{}
			affected[op.Label] = struct{}{}
			touched[op.Node] = struct{}{}

		default:
			return fail(i, op, "unknown op kind")
		}
	}

	// Build the cumulative overlay over the original freeze: g's, cloned
	// (O(overlay), which compaction bounds), plus this batch's touched nodes.
	// A touched node's adjacency moves into the overlay even when only its
	// label changed: bypassed nodes read nothing from the shared headers.
	prev := g.ov
	if prev == nil {
		prev = &overlay{}
	}
	ov := &overlay{
		bypass:       make([]bool, len(labels)),
		out:          make(map[NodeID][]Edge, len(prev.out)+len(touched)),
		in:           make(map[NodeID][]Edge, len(prev.in)+len(touched)),
		nodesByLabel: make(map[Label][]NodeID, len(prev.nodesByLabel)+len(affected)),
		ops:          prev.ops + len(ops),
		batchTouched: make([]NodeID, 0, len(touched)),
	}
	copy(ov.bypass, prev.bypass)
	maps.Copy(ov.out, prev.out)
	maps.Copy(ov.in, prev.in)
	maps.Copy(ov.nodesByLabel, prev.nodesByLabel)
	for v := range touched {
		ov.bypass[v] = true
		ov.out[v] = slices.Clip(stage(stagedOut, g.Out, v))
		ov.in[v] = slices.Clip(stage(stagedIn, g.In, v))
		ov.batchTouched = append(ov.batchTouched, v)
	}
	bt := ov.batchTouched
	slices.Sort(bt)

	// Each affected label's list is g's with the batch's touched nodes
	// placed by their final labels: one merge of two ascending lists.
	for l := range affected {
		was := g.NodesWithLabel(l)
		nodes := make([]NodeID, 0, len(was)+len(bt))
		i := 0
		for _, v := range was {
			for ; i < len(bt) && bt[i] < v; i++ {
				if labels[bt[i]] == l {
					nodes = append(nodes, bt[i])
				}
			}
			if i == len(bt) || bt[i] != v {
				nodes = append(nodes, v)
			}
		}
		for ; i < len(bt); i++ {
			if labels[bt[i]] == l {
				nodes = append(nodes, bt[i])
			}
		}
		ov.nodesByLabel[l] = nodes
	}

	d := &Graph{
		syms:   g.syms,
		labels: labels,
		out:    g.out,
		in:     g.in,
		numE:   numE,
		csr:    g.csr,
		ov:     ov,
	}
	d.frozen.Store(true)
	return d, nil
}

// CompactCopy folds the graph — overlay and all — into a freshly frozen
// copy with its own CSR arenas, sharing only the symbol table. The logical
// graph is unchanged, so readers of the copy observe exactly what readers
// of the original do; the copy simply has no overlay left to consult. It
// also works on plain graphs, where it is a frozen deep copy.
func (g *Graph) CompactCopy() *Graph {
	g.Freeze()
	return g.frozenCopy(slices.Clone(g.labels))
}

// Overlaid reports whether the graph is a frozen graph with a live delta
// overlay (i.e. produced by ApplyDelta and not yet compacted).
func (g *Graph) Overlaid() bool { return g.ov != nil }

// OverlayOps reports the cumulative number of delta ops applied since the
// last real freeze — the compaction trigger's input. Zero for non-overlaid
// graphs.
func (g *Graph) OverlayOps() int {
	if g.ov != nil {
		return g.ov.ops
	}
	return 0
}

// DeltaTouched returns the nodes touched by the most recent ApplyDelta
// batch (edge endpoints, relabeled nodes, added nodes), ascending. The
// serving layer's selective cache invalidation starts from this set. Nil
// for non-overlaid graphs; the caller must not mutate the result.
func (g *Graph) DeltaTouched() []NodeID {
	if g.ov != nil {
		return g.ov.batchTouched
	}
	return nil
}

// LabelWithinDistance returns the smallest undirected distance (0..max)
// from v to any node labeled l, or -1 if no such node lies within max hops:
// a walk that stops at the first node with the label. The serving layer
// uses it to decide whether a touched node can influence any rule anchored
// at label-l centers.
func (g *Graph) LabelWithinDistance(v NodeID, l Label, max int) int {
	at := -1
	g.Walk(v, max, func(w NodeID, depth int) bool {
		if g.labels[w] != l {
			return true
		}
		at = depth
		return false
	})
	return at
}

package pattern

import (
	"cmp"

	"gpar/internal/graph"
)

// Extension describes one way to grow a pattern by a single new edge, the
// unit of levelwise expansion in algorithm DMine (Section 4.2): "it expands
// Q by including at least one new edge that is at hop r from vx".
//
// The new edge touches existing node Src. If Close == NoNode the other
// endpoint is a fresh node labeled NewLabel; otherwise the edge closes onto
// the existing node Close.
//
// The struct is comparable, so the mining loop uses Extension values
// directly as map keys and orders them with Compare.
type Extension struct {
	Src       int         // existing pattern node
	Outgoing  bool        // true: Src -> target; false: target -> Src
	EdgeLabel graph.Label // label of the new edge
	NewLabel  graph.Label // label of the fresh node (when Close == NoNode)
	Close     int         // existing node to close onto, or NoNode
	AsY       bool        // designate the fresh node as y (requires p.Y == NoNode)
}

// Compare totally orders extensions by (Src, direction, EdgeLabel,
// NewLabel, Close, AsY), incoming before outgoing and plain before AsY.
// Compare(f) == 0 iff the structs are equal. Any fixed total order serves
// the deterministic processing the miner needs.
func (e Extension) Compare(f Extension) int {
	if e.Src != f.Src {
		return cmp.Compare(e.Src, f.Src)
	}
	if e.Outgoing != f.Outgoing {
		if !e.Outgoing {
			return -1
		}
		return 1
	}
	if e.EdgeLabel != f.EdgeLabel {
		return cmp.Compare(e.EdgeLabel, f.EdgeLabel)
	}
	if e.NewLabel != f.NewLabel {
		return cmp.Compare(e.NewLabel, f.NewLabel)
	}
	if e.Close != f.Close {
		return cmp.Compare(e.Close, f.Close)
	}
	if e.AsY != f.AsY {
		if !e.AsY {
			return -1
		}
		return 1
	}
	return 0
}

// Apply returns a copy of p grown by the extension. It returns nil when the
// extension is inapplicable (closing edge already present, AsY on a pattern
// that already has y, or indexes out of range).
func (p *Pattern) Apply(ext Extension) *Pattern {
	return p.ApplyInto(New(p.syms), ext)
}

// ApplyInto is Apply building into dst (which must not alias p), reusing
// dst's storage. It returns dst, or nil when the extension is inapplicable
// (dst's contents are then unspecified). Workers in the mining loop apply
// every discovered extension to the same parent; recycling the destination
// makes candidate materialization allocation-free.
func (p *Pattern) ApplyInto(dst *Pattern, ext Extension) *Pattern {
	if ext.Src < 0 || ext.Src >= p.NumNodes() {
		return nil
	}
	out := p.CloneInto(dst)
	var target int
	if ext.Close != NoNode {
		if ext.Close < 0 || ext.Close >= p.NumNodes() || ext.AsY {
			return nil
		}
		target = ext.Close
		from, to := ext.Src, target
		if !ext.Outgoing {
			from, to = target, ext.Src
		}
		if out.HasEdge(from, to, ext.EdgeLabel) {
			return nil
		}
		out.AddEdgeL(from, to, ext.EdgeLabel)
		return out
	}
	if ext.AsY && p.Y != NoNode {
		return nil
	}
	target = out.AddNodeL(ext.NewLabel)
	if ext.AsY {
		out.Y = target
	}
	if ext.Outgoing {
		out.AddEdgeL(ext.Src, target, ext.EdgeLabel)
	} else {
		out.AddEdgeL(target, ext.Src, ext.EdgeLabel)
	}
	return out
}

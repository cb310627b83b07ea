package graph

import "slices"

// csrIndex is the frozen flat representation of a graph: one contiguous
// edge arena per direction with per-node offsets (classic CSR), a per-node
// distinct-edge-label index giving the contiguous arena range of every
// (node, direction, edge label) triple, and a flat node-label candidate
// index. It is built once by Freeze and is immutable afterwards, so any
// number of matchers can read it concurrently without coordination.
//
// Within one node's arena range, edges are sorted by (Label, To). That makes
// the edges of one label a contiguous run (found by binary search over the
// node's distinct labels) and lets HasEdge binary-search the full range.
type csrIndex struct {
	outE, inE     []Edge  // edge arenas; one entry per edge per direction
	outOff, inOff []int32 // len n+1; node v's edges are arena[off[v]:off[v+1]]

	// Distinct-label index: labels of node v's edges are
	// lab[labOff[v]:labOff[v+1]] (sorted); the edges carrying lab[i] start
	// at arena index labStart[i] and end at labStart[i+1]. labStart has one
	// sentinel entry equal to len(arena), and because the arena is
	// contiguous across nodes, labStart[i+1] is correct even for the last
	// label of a node.
	outLab, inLab           []Label
	outLabOff, inLabOff     []int32
	outLabStart, inLabStart []int32

	// Node-label candidate index: nodes labeled l are
	// nodesByLabel[labelOff[l]:labelOff[l+1]], ascending. labelOff is
	// indexed directly by the (dense, interned) label value.
	nodesByLabel []NodeID
	labelOff     []int32
}

// buildCSR flattens the mutable adjacency into a csrIndex.
func buildCSR(g *Graph) *csrIndex {
	c := &csrIndex{}
	c.outE, c.outOff, c.outLab, c.outLabOff, c.outLabStart = buildDirection(g.out, g.numE)
	c.inE, c.inOff, c.inLab, c.inLabOff, c.inLabStart = buildDirection(g.in, g.numE)

	// Node-label candidate index.
	maxL := Label(0)
	for _, l := range g.labels {
		if l > maxL {
			maxL = l
		}
	}
	c.labelOff = make([]int32, int(maxL)+2)
	for _, l := range g.labels {
		c.labelOff[int(l)+1]++
	}
	for i := 1; i < len(c.labelOff); i++ {
		c.labelOff[i] += c.labelOff[i-1]
	}
	c.nodesByLabel = make([]NodeID, len(g.labels))
	cur := make([]int32, int(maxL)+1)
	copy(cur, c.labelOff[:int(maxL)+1])
	for v, l := range g.labels {
		c.nodesByLabel[cur[l]] = NodeID(v)
		cur[l]++
	}
	return c
}

// buildDirection builds one direction's arena, offsets and label index.
func buildDirection(adj [][]Edge, numE int) (arena []Edge, off []int32, lab []Label, labOff, labStart []int32) {
	n := len(adj)
	off = make([]int32, n+1)
	arena = make([]Edge, 0, numE)
	labOff = make([]int32, n+1)
	for v := 0; v < n; v++ {
		labOff[v] = int32(len(lab))
		start := len(arena)
		arena = append(arena, adj[v]...)
		slices.SortFunc(arena[start:], cmpEdge)
		off[v+1] = int32(len(arena))
		for i := start; i < len(arena); i++ {
			if i == start || arena[i].Label != arena[i-1].Label {
				lab = append(lab, arena[i].Label)
				labStart = append(labStart, int32(i))
			}
		}
	}
	labOff[n] = int32(len(lab))
	labStart = append(labStart, int32(len(arena))) // sentinel
	return
}

// rangeL returns the contiguous arena run of node v's edges labeled l in
// one direction, or nil. O(log #distinct labels of v).
func rangeL(arena []Edge, lab []Label, labOff, labStart []int32, v NodeID, l Label) []Edge {
	lo, hi := labOff[v], labOff[v+1]
	for lo < hi {
		mid := (lo + hi) / 2
		if lab[mid] < l {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < labOff[v+1] && lab[lo] == l {
		return arena[labStart[lo]:labStart[lo+1]]
	}
	return nil
}

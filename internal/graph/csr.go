package graph

import (
	"encoding/binary"
	"fmt"
	"slices"
)

// csrIndex is the frozen flat representation of a graph: one contiguous
// edge arena per direction with per-node offsets (classic CSR), a per-node
// distinct-edge-label index giving the contiguous arena range of every
// (node, direction, edge label) triple, and a flat node-label candidate
// index. FromCSR alone builds one, and it is immutable afterwards, so any
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

// FromCSR builds a frozen graph over syms from node labels and an out-arena
// in frozen order: node v's edges are out[outOff[v]:outOff[v+1]], strictly
// ascending by (Label, To). It takes ownership of all three slices. It is
// the one constructor of a frozen graph — Freeze, CompactCopy,
// InducedSubgraph and the snapshot and fragment decoders all end here — and
// it rejects, before building anything, a node or edge label outside syms,
// a target outside the graph, offsets that do not climb from 0 to len(out),
// and a run out of order, which includes a duplicate edge.
func FromCSR(syms *Symbols, labels []Label, outOff []int32, out []Edge) (*Graph, error) {
	n, maxL := len(labels), Label(syms.Len())
	if len(outOff) != n+1 || outOff[0] != 0 || int(outOff[n]) != len(out) {
		return nil, fmt.Errorf("graph: %d offsets for %d nodes do not span %d edges", len(outOff), n, len(out))
	}
	// One validating pass that indexes the out-arena's labels and counts,
	// at key+1, edges by target and nodes by label. The label indexes start
	// at one label per node.
	c := &csrIndex{outE: out, outOff: outOff, outLabOff: make([]int32, n+1), inLabOff: make([]int32, n+1),
		outLab: make([]Label, 0, n+1), outLabStart: make([]int32, 0, n+1), inLab: make([]Label, 0, n+1), inLabStart: make([]int32, 0, n+1)}
	inOff := make([]int32, n+1)
	labelOff := make([]int32, maxL+2)
	for v, l := range labels {
		if l <= NoLabel || l > maxL {
			return nil, fmt.Errorf("graph: node %d label %d outside symbol table of %d", v, l, maxL)
		}
		labelOff[l+1]++
		lo, hi := outOff[v], outOff[v+1]
		if hi < lo || int(hi) > len(out) {
			return nil, fmt.Errorf("graph: node %d edge offsets [%d, %d) run backwards or past %d edges", v, lo, hi, len(out))
		}
		c.outLabOff[v] = int32(len(c.outLab))
		// Unsigned compares reject negatives too, and once both are in
		// range (Label, To) orders as one 64-bit key.
		prev := Edge{Label: NoLabel} // below every label the first case lets through
		for i, e := range out[lo:hi] {
			switch {
			case uint32(e.Label)-1 >= uint32(maxL):
				return nil, fmt.Errorf("graph: edge label %d outside symbol table of %d", e.Label, maxL)
			case uint32(e.To) >= uint32(n):
				return nil, fmt.Errorf("graph: edge target %d out of range (graph has %d nodes)", e.To, n)
			case uint64(e.Label)<<32|uint64(e.To) <= uint64(prev.Label)<<32|uint64(prev.To):
				return nil, fmt.Errorf("graph: node %d edges not strictly ascending at (%d, %d)", v, e.Label, e.To)
			case e.Label != prev.Label:
				c.outLab = append(c.outLab, e.Label)
				c.outLabStart = append(c.outLabStart, lo+int32(i))
			}
			inOff[e.To+1]++
			prev = e
		}
	}
	prefixSum(inOff)
	prefixSum(labelOff)

	// The in-arena by counting: each edge goes to its target's run in source
	// order, so a run is already in (Label, source) order unless its labels
	// fall somewhere, and only such a run needs a sort.
	in := make([]Edge, len(out))
	next := slices.Clone(inOff)
	for v := range n {
		for _, e := range out[outOff[v]:outOff[v+1]] {
			in[next[e.To]] = Edge{To: NodeID(v), Label: e.Label}
			next[e.To]++
		}
	}
	for v := range n {
		run := in[inOff[v]:inOff[v+1]]
		for i := 1; i < len(run); i++ {
			if run[i].Label < run[i-1].Label {
				slices.SortFunc(run, cmpEdge)
				break
			}
		}
		c.inLabOff[v] = int32(len(c.inLab))
		for i, e := range run {
			if i == 0 || e.Label != run[i-1].Label {
				c.inLab = append(c.inLab, e.Label)
				c.inLabStart = append(c.inLabStart, inOff[v]+int32(i))
			}
		}
	}
	c.outLabOff[n], c.inLabOff[n] = int32(len(c.outLab)), int32(len(c.inLab))
	c.outLabStart = append(c.outLabStart, int32(len(out))) // sentinels
	c.inLabStart = append(c.inLabStart, int32(len(in)))

	nodes := make([]NodeID, n)
	next = slices.Clone(labelOff)
	for v, l := range labels {
		nodes[next[l]] = NodeID(v)
		next[l]++
	}
	c.inE, c.inOff, c.nodesByLabel, c.labelOff = in, inOff, nodes, labelOff
	g := &Graph{syms: syms, labels: labels, out: make([][]Edge, n), in: make([][]Edge, n), numE: len(out), csr: c}
	for v := range n {
		g.out[v] = out[outOff[v]:outOff[v+1]]
		g.in[v] = in[inOff[v]:inOff[v+1]]
	}
	g.frozen.Store(true)
	return g, nil
}

// AppendCSR appends g's canonical bytes to dst and returns the extended
// slice: node count and edge count, the node labels, the out-degrees, then
// (label, to) per edge in frozen (Label, To) order, every integer a
// little-endian u32. It freezes g first and reads through Out, so a delta
// overlay and its compaction encode byte-identically. Label IDs index the
// graph's symbol table, which travels separately.
func (g *Graph) AppendCSR(dst []byte) []byte {
	g.Freeze()
	n, le := len(g.labels), binary.LittleEndian
	dst = slices.Grow(dst, 8+8*n+8*g.numE)
	dst = le.AppendUint32(le.AppendUint32(dst, uint32(n)), uint32(g.numE))
	for _, l := range g.labels {
		dst = le.AppendUint32(dst, uint32(l))
	}
	for v := range n {
		dst = le.AppendUint32(dst, uint32(len(g.Out(NodeID(v)))))
	}
	for v := range n {
		for _, e := range g.Out(NodeID(v)) {
			dst = le.AppendUint32(le.AppendUint32(dst, uint32(e.Label)), uint32(e.To))
		}
	}
	return dst
}

// DecodeCSR parses one AppendCSR encoding from the front of b into a frozen
// graph over syms and returns the bytes after it. Only canonical bytes
// decode: FromCSR rejects a label outside syms, a target outside the graph,
// degrees that do not sum to the edge count and a run out of strict order.
func DecodeCSR(b []byte, syms *Symbols) (*Graph, []byte, error) {
	le := binary.LittleEndian
	if len(b) < 8 {
		return nil, nil, fmt.Errorf("graph: CSR header truncated at %d bytes", len(b))
	}
	// Both counts are below 2^32, so the size cannot overflow, and checking
	// it before allocating bounds the slices by the input.
	n, numE := uint64(le.Uint32(b)), uint64(le.Uint32(b[4:]))
	size := 8 + 8*n + 8*numE
	if uint64(len(b)) < size {
		return nil, nil, fmt.Errorf("graph: CSR of %d nodes and %d edges needs %d bytes, has %d", n, numE, size, len(b))
	}
	// A degree wrapping int32 makes the offsets run backwards, which
	// FromCSR rejects.
	labels := make([]Label, n)
	outOff := make([]int32, n+1)
	for v := range labels {
		labels[v] = Label(le.Uint32(b[8+4*v:]))
		outOff[v+1] = outOff[v] + int32(le.Uint32(b[8+4*int(n)+4*v:]))
	}
	out, edges := make([]Edge, numE), b[8+8*n:]
	for i := range out {
		out[i] = Edge{Label: Label(le.Uint32(edges[8*i:])), To: NodeID(le.Uint32(edges[8*i+4:]))}
	}
	g, err := FromCSR(syms, labels, outOff, out)
	if err != nil {
		return nil, nil, err
	}
	return g, b[size:], nil
}

// prefixSum turns counts kept at key+1 into the start of every key's run.
func prefixSum(s []int32) {
	for i := 1; i < len(s); i++ {
		s[i] += s[i-1]
	}
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

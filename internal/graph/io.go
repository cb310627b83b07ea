package graph

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// The serialization format is a line-oriented text format:
//
//	graph <numNodes> <numEdges>
//	n <id> <label>
//	e <from> <to> <label>
//
// Labels are quoted with strconv.Quote so they may contain spaces. Node
// lines must precede edge lines that reference them; WriteTo emits all node
// lines first.

// WriteTo serializes g. It implements io.WriterTo.
func (g *Graph) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var n int64
	count := func(c int, err error) error {
		n += int64(c)
		return err
	}
	if err := count(fmt.Fprintf(bw, "graph %d %d\n", g.NumNodes(), g.NumEdges())); err != nil {
		return n, err
	}
	for v := 0; v < g.NumNodes(); v++ {
		if err := count(fmt.Fprintf(bw, "n %d %s\n", v, strconv.Quote(g.LabelName(NodeID(v))))); err != nil {
			return n, err
		}
	}
	for v := 0; v < g.NumNodes(); v++ {
		for _, e := range g.Out(NodeID(v)) {
			if err := count(fmt.Fprintf(bw, "e %d %d %s\n", v, e.To, strconv.Quote(g.syms.Name(e.Label)))); err != nil {
				return n, err
			}
		}
	}
	return n, bw.Flush()
}

// Read parses a graph in the WriteTo format, interning labels into syms
// (a fresh table if nil).
func Read(r io.Reader, syms *Symbols) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	g := New(syms)
	var declaredNodes, declaredEdges int
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		kind, rest, _ := strings.Cut(line, " ")
		switch kind {
		case "graph":
			if _, err := fmt.Sscanf(line, "graph %d %d", &declaredNodes, &declaredEdges); err != nil {
				return nil, fmt.Errorf("graph: line %d: bad header %q: %w", lineNo, line, err)
			}
		case "n":
			sp := strings.IndexByte(rest, ' ')
			if sp < 0 {
				return nil, fmt.Errorf("graph: line %d: bad node line %q", lineNo, line)
			}
			id, err := strconv.Atoi(rest[:sp])
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: bad node id: %w", lineNo, err)
			}
			label, err := strconv.Unquote(strings.TrimSpace(rest[sp+1:]))
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: bad node label: %w", lineNo, err)
			}
			if got := g.AddNode(label); int(got) != id {
				return nil, fmt.Errorf("graph: line %d: node ids must be dense and ordered; got %d want %d", lineNo, id, got)
			}
		case "e":
			parts := strings.SplitN(rest, " ", 3)
			if len(parts) != 3 {
				return nil, fmt.Errorf("graph: line %d: bad edge line %q", lineNo, line)
			}
			from, err1 := strconv.Atoi(parts[0])
			to, err2 := strconv.Atoi(parts[1])
			label, err3 := strconv.Unquote(strings.TrimSpace(parts[2]))
			if err1 != nil || err2 != nil || err3 != nil {
				return nil, fmt.Errorf("graph: line %d: bad edge line %q", lineNo, line)
			}
			if from < 0 || from >= g.NumNodes() || to < 0 || to >= g.NumNodes() {
				return nil, fmt.Errorf("graph: line %d: edge endpoint out of range", lineNo)
			}
			g.AddEdge(NodeID(from), NodeID(to), label)
		default:
			return nil, fmt.Errorf("graph: line %d: unknown record %q", lineNo, kind)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if declaredNodes != 0 && declaredNodes != g.NumNodes() {
		return nil, fmt.Errorf("graph: header declared %d nodes, found %d", declaredNodes, g.NumNodes())
	}
	if declaredEdges != 0 && declaredEdges != g.NumEdges() {
		return nil, fmt.Errorf("graph: header declared %d edges, found %d", declaredEdges, g.NumEdges())
	}
	return g, nil
}

package graph

import (
	"fmt"
	"testing"
)

func benchGraph(n int) *Graph {
	g := New(nil)
	for i := 0; i < n; i++ {
		g.AddNode(fmt.Sprintf("L%d", i%16))
	}
	for i := 0; i < n; i++ {
		g.AddEdge(NodeID(i), NodeID((i*7+1)%n), "e")
		g.AddEdge(NodeID(i), NodeID((i*31+5)%n), "f")
		g.AddEdge(NodeID((i*13)%n), NodeID(i), "g")
	}
	return g
}

func BenchmarkNeighborhood(b *testing.B) {
	g := benchGraph(5000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.AppendNeighborhood(nil, NodeID(i%g.NumNodes()), 2)
	}
}

func BenchmarkHasEdge(b *testing.B) {
	g := benchGraph(5000)
	e := g.Symbols().Lookup("e")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := NodeID(i % g.NumNodes())
		g.HasEdge(v, NodeID((int(v)*7+1)%g.NumNodes()), e)
	}
}

func BenchmarkNodesWithLabel(b *testing.B) {
	g := benchGraph(5000)
	l := g.Symbols().Lookup("L3")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.NodesWithLabel(l)
	}
}

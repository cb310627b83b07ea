// Package graph provides the labeled directed multigraph substrate used by
// every other package in this repository: interned labels, adjacency in both
// directions, a label index, breadth-first search, d-neighborhood extraction
// and (de)serialization.
//
// It is the "social graph" G = (V, E, L) of Section 2.1 of the paper
// "Association Rules with Graph Patterns" (Fan, Wang, Wu, Xu; PVLDB 2015):
// every node and every edge carries a label, and matching elsewhere compares
// labels for equality.
package graph

import (
	"fmt"
)

// Label is an interned node or edge label. The zero value NoLabel is never a
// valid label; it is used to mean "absent".
type Label int32

// NoLabel is the invalid label. Symbols never returns it for a real name.
const NoLabel Label = 0

// Symbols interns label strings so that graphs and patterns can compare
// labels as integers. A single Symbols instance is shared by a graph and all
// patterns matched against it.
type Symbols struct {
	byName map[string]Label
	names  []string // names[l] is the name of label l; names[0] = ""
}

// NewSymbols returns an empty symbol table.
func NewSymbols() *Symbols {
	return &Symbols{
		byName: make(map[string]Label),
		names:  []string{""},
	}
}

// Intern returns the label for name, creating it if necessary.
func (s *Symbols) Intern(name string) Label {
	if l, ok := s.byName[name]; ok {
		return l
	}
	l := Label(len(s.names))
	s.names = append(s.names, name)
	s.byName[name] = l
	return l
}

// Lookup returns the label for name, or NoLabel if name was never interned.
func (s *Symbols) Lookup(name string) Label {
	return s.byName[name]
}

// Name returns the string for a label. It returns "" for NoLabel and for
// labels not produced by this table.
func (s *Symbols) Name(l Label) string {
	if l <= 0 || int(l) >= len(s.names) {
		return ""
	}
	return s.names[l]
}

// Len reports the number of interned labels.
func (s *Symbols) Len() int { return len(s.names) - 1 }

// Names returns all interned names in label order.
func (s *Symbols) Names() []string {
	out := make([]string, 0, s.Len())
	out = append(out, s.names[1:]...)
	return out
}

// String implements fmt.Stringer for debugging.
func (s *Symbols) String() string {
	return fmt.Sprintf("Symbols(%d labels)", s.Len())
}

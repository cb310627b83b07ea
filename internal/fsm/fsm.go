// Package fsm is a single-graph frequent subgraph miner, the stand-in for
// GRAMI in the paper's Exp-2 comparison (Section 6): it mines frequent
// patterns by levelwise growth with an anti-monotonic support (distinct
// images of a designated root node, the measure of Bringmann and Nijssen
// that the paper's own support revises), but knows nothing about
// consequents or confidence. The case-study harness contrasts its output —
// frequent but association-free patterns — with the GPARs DMine discovers.
package fsm

import (
	"sort"

	"gpar/internal/graph"
	"gpar/internal/match"
	"gpar/internal/pattern"
)

// Options controls a mining run.
type Options struct {
	MinSupport  int // σ on distinct root images
	MaxEdges    int // pattern edge budget
	MaxPatterns int // cap on returned patterns (0 = all)
	EmbedCap    int // embeddings per root when discovering extensions
}

// Frequent is one mined pattern with its support.
type Frequent struct {
	P       *pattern.Pattern
	Support int
	code    string // P's canonical code: the dedup key and the last tie-break
}

// Mine returns the frequent patterns rooted at nodes labeled rootLabel,
// ordered by descending support, then ascending size, then canonical code.
func Mine(g *graph.Graph, rootLabel graph.Label, opts Options) []Frequent {
	if opts.MaxEdges <= 0 {
		opts.MaxEdges = 3
	}
	if opts.EmbedCap <= 0 {
		opts.EmbedCap = 32
	}
	roots := g.NodesWithLabel(rootLabel)
	if len(roots) < opts.MinSupport {
		return nil
	}

	seed := pattern.New(g.Symbols())
	seed.X = seed.AddNodeL(rootLabel)

	type cand struct {
		p       *pattern.Pattern
		support []graph.NodeID // matching roots
	}
	frontier := []cand{{p: seed, support: roots}}
	var out []Frequent
	seen := map[string]bool{} // canonical codes of the patterns kept so far

	for round := 1; round <= opts.MaxEdges && len(frontier) > 0; round++ {
		var next []cand
		for _, c := range frontier {
			for _, ext := range discover(g, c.p, c.support, opts.EmbedCap) {
				child := c.p.Apply(ext)
				if child == nil {
					continue
				}
				code := string(child.AppendCode(nil))
				if seen[code] {
					continue
				}
				var supp []graph.NodeID
				for _, v := range c.support {
					if match.HasMatchAt(child, g, v, match.Options{}) {
						supp = append(supp, v)
					}
				}
				if len(supp) < opts.MinSupport {
					continue
				}
				seen[code] = true
				out = append(out, Frequent{P: child, Support: len(supp), code: code})
				next = append(next, cand{p: child, support: supp})
			}
		}
		frontier = next
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Support != out[j].Support {
			return out[i].Support > out[j].Support
		}
		if out[i].P.Size() != out[j].P.Size() {
			return out[i].P.Size() < out[j].P.Size()
		}
		return out[i].code < out[j].code
	})
	if opts.MaxPatterns > 0 && len(out) > opts.MaxPatterns {
		out = out[:opts.MaxPatterns]
	}
	return out
}

// discover enumerates single-edge extensions realized around the supporting
// roots, like the GPAR miner but without consequent bookkeeping.
func discover(g *graph.Graph, p *pattern.Pattern, roots []graph.NodeID, embedCap int) []pattern.Extension {
	seen := map[pattern.Extension]bool{}
	mopts := match.Options{MaxMatches: embedCap}
	for _, vx := range roots {
		match.EnumerateAnchored(p, g, vx, mopts, func(asgn []graph.NodeID) bool {
			inv := make(map[graph.NodeID]int, len(asgn))
			for u, dv := range asgn {
				inv[dv] = u
			}
			for u, dv := range asgn {
				for _, e := range g.Out(dv) {
					if u2, ok := inv[e.To]; ok {
						if !p.HasEdge(u, u2, e.Label) {
							seen[pattern.Extension{Src: u, Outgoing: true, EdgeLabel: e.Label, Close: u2}] = true
						}
						continue
					}
					seen[pattern.Extension{Src: u, Outgoing: true, EdgeLabel: e.Label, NewLabel: g.Label(e.To), Close: pattern.NoNode}] = true
				}
				for _, e := range g.In(dv) {
					if u2, ok := inv[e.To]; ok {
						if !p.HasEdge(u2, u, e.Label) {
							seen[pattern.Extension{Src: u, Outgoing: false, EdgeLabel: e.Label, Close: u2}] = true
						}
						continue
					}
					seen[pattern.Extension{Src: u, Outgoing: false, EdgeLabel: e.Label, NewLabel: g.Label(e.To), Close: pattern.NoNode}] = true
				}
			}
			return true
		})
	}
	out := make([]pattern.Extension, 0, len(seen))
	for e := range seen {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out
}

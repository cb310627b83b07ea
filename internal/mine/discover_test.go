package mine

import (
	"math/rand"
	"slices"
	"testing"

	"gpar/internal/core"
	"gpar/internal/graph"
	"gpar/internal/match"
	"gpar/internal/partition"
	"gpar/internal/pattern"
)

// perEdgeReference is extension discovery with nothing collapsed: every
// incident edge of every embedded node of every (canonical, capped)
// embedding is turned into its extension and recorded for the center, in
// maps. It also reports how many centers' enumerations reached the embedding
// cap.
func perEdgeReference(g *graph.Graph, lp localParams, q *pattern.Pattern, centers []graph.NodeID) (ref map[pattern.Extension]map[graph.NodeID]bool, capped int64) {
	ref = make(map[pattern.Extension]map[graph.NodeID]bool)
	distX := q.DistancesInto(nil, q.X)
	opts := match.Options{MaxMatches: lp.embedCap, Canonical: true}
	for _, vx := range centers {
		add := func(ext pattern.Extension) {
			if ref[ext] == nil {
				ref[ext] = make(map[graph.NodeID]bool)
			}
			ref[ext][vx] = true
		}
		n := match.EnumerateAnchored(q, g, vx, opts, func(asgn []graph.NodeID) bool {
			inv := make(map[graph.NodeID]int, len(asgn))
			for u, dv := range asgn {
				inv[dv] = u
			}
			for u, dv := range asgn {
				canGrow := distX[u] >= 0 && distX[u]+1 <= lp.d
				for _, dir := range []struct {
					adj      []graph.Edge
					outgoing bool
				}{{g.Out(dv), true}, {g.In(dv), false}} {
					for _, e := range dir.adj {
						if u2, ok := inv[e.To]; ok {
							from, to := u, u2
							if !dir.outgoing {
								from, to = u2, u
							}
							if !q.HasEdge(from, to, e.Label) {
								add(pattern.Extension{Src: u, Outgoing: dir.outgoing, EdgeLabel: e.Label, Close: u2})
							}
							continue
						}
						if !canGrow {
							continue
						}
						l := g.Label(e.To)
						add(pattern.Extension{Src: u, Outgoing: dir.outgoing, EdgeLabel: e.Label, NewLabel: l, Close: pattern.NoNode})
						if q.Y == pattern.NoNode && l == lp.pred.YLabel {
							add(pattern.Extension{Src: u, Outgoing: dir.outgoing, EdgeLabel: e.Label, NewLabel: l, Close: pattern.NoNode, AsY: true})
						}
					}
				}
			}
			return true
		})
		if n == lp.embedCap {
			capped++
		}
	}
	return ref, capped
}

// discoveryCase is one graph of the collapse property test.
type discoveryCase struct {
	name     string
	g        *graph.Graph
	pred     core.Predicate
	embedCap int
	// What the case exists to exercise; asserted so a fixture that stops
	// exercising it fails instead of passing vacuously.
	wantCapped, wantClose, wantSelfLoop, wantAsY bool
}

func abPredicate(syms *graph.Symbols) core.Predicate {
	return core.Predicate{XLabel: syms.Intern("a"), EdgeLabel: syms.Intern("e"), YLabel: syms.Intern("p")}
}

// interleavedGraph labels nodes a, p, q, a, p, q, … by ID, so a (Label, To)-
// sorted adjacency alternates neighbor classes and most runs have length 1.
func interleavedGraph() *graph.Graph {
	g := graph.New(nil)
	rng := rand.New(rand.NewSource(3))
	const n = 48
	for v := 0; v < n; v++ {
		g.AddNode([]string{"a", "p", "q"}[v%3])
	}
	for i := 0; i < 5*n; i++ {
		g.AddEdge(graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)), []string{"e", "f"}[rng.Intn(2)])
	}
	return g
}

// hubGraph hangs 24 centers off one hub: a -e-> hub <-e- a' has 23
// embeddings per center, far over the case's cap.
func hubGraph() *graph.Graph {
	g := graph.New(nil)
	hub := g.AddNode("h")
	var ps []graph.NodeID
	for i := 0; i < 6; i++ {
		p := g.AddNode("p")
		g.AddEdge(hub, p, "f")
		ps = append(ps, p)
	}
	for i := 0; i < 24; i++ {
		a := g.AddNode("a")
		g.AddEdge(a, hub, "e")
		g.AddEdge(a, ps[i%len(ps)], "e")
		if i%3 == 0 {
			g.AddEdge(a, ps[(i+1)%len(ps)], "f")
		}
	}
	return g
}

// parallelGraph has two labels between one pair, an edge back, and
// self-loops on centers.
func parallelGraph() *graph.Graph {
	g := graph.New(nil)
	x0, x1, y0, y1 := g.AddNode("a"), g.AddNode("a"), g.AddNode("p"), g.AddNode("p")
	for _, x := range []graph.NodeID{x0, x1} {
		g.AddEdge(x, y0, "e")
		g.AddEdge(x, y0, "f")
	}
	g.AddEdge(y0, x0, "e")
	g.AddEdge(x0, x0, "e")
	g.AddEdge(x1, x1, "f")
	g.AddEdge(x1, y1, "f")
	return g
}

// TestDiscoverExtensionsMatchesPerEdgeReference: collapsing neighbor-class
// runs is only an optimization. For every parent pattern grown levelwise
// from the seed (three levels, so closing edges and AsY twins occur), the
// extensions discoverExtensions reports and their supporting centers equal
// the per-edge reference's, with the centers split over 1 and 3 workers
// whose scratch and accumulators are recycled from parent to parent.
func TestDiscoverExtensionsMatchesPerEdgeReference(t *testing.T) {
	inter := interleavedGraph()
	inter.Freeze()
	pred := abPredicate(inter.Symbols())
	overlay, err := inter.ApplyDelta(overlayOps(inter, pred.XLabel, 1))
	if err != nil {
		t.Fatal(err)
	}
	hub, par := hubGraph(), parallelGraph()
	cases := []discoveryCase{
		{name: "interleaved", g: inter, pred: pred, embedCap: 64, wantClose: true, wantAsY: true},
		{name: "overlay", g: overlay, pred: pred, embedCap: 64, wantClose: true, wantAsY: true},
		{name: "hub", g: hub, pred: abPredicate(hub.Symbols()), embedCap: 4, wantCapped: true, wantAsY: true},
		{name: "parallel", g: par, pred: abPredicate(par.Symbols()), embedCap: 64, wantClose: true, wantSelfLoop: true, wantAsY: true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { checkDiscovery(t, c) })
	}
}

func checkDiscovery(t *testing.T, c discoveryCase) {
	g := c.g
	g.Freeze()
	lp := localParams{pred: c.pred, d: 2, embedCap: c.embedCap, syms: g.Symbols()}
	workers := make([]*worker, 3)
	for i := range workers {
		workers[i] = &worker{id: i, frag: partition.Whole(g, nil)}
	}
	type parent struct {
		q       *pattern.Pattern
		centers []graph.NodeID
	}
	seed := pattern.New(g.Symbols())
	seed.X = seed.AddNodeL(c.pred.XLabel)
	level := []parent{{seed, g.NodesWithLabel(c.pred.XLabel)}}
	var capped int64
	var sawClose, sawSelfLoop, sawAsY bool
	for depth := 0; depth < 3; depth++ {
		var next []parent
		for _, p := range level {
			ref, hitCap := perEdgeReference(g, lp, p.q, p.centers)
			capped += hitCap
			want := make(map[pattern.Extension][]graph.NodeID, len(ref))
			var exts []pattern.Extension
			for ext, cs := range ref {
				for vx := range cs {
					want[ext] = append(want[ext], vx)
				}
				slices.Sort(want[ext])
				exts = append(exts, ext)
				sawClose = sawClose || ext.Close != pattern.NoNode
				sawSelfLoop = sawSelfLoop || ext.Close == ext.Src
				sawAsY = sawAsY || ext.AsY
			}
			for _, n := range []int{1, 3} {
				got := make(map[pattern.Extension][]graph.NodeID)
				var gotCapped int64
				for i, w := range workers[:n] {
					chunk := p.centers[i*len(p.centers)/n : (i+1)*len(p.centers)/n]
					gotCapped -= w.capped
					accs := w.discoverExtensions(lp, p.q, chunk, match.Options{})
					gotCapped += w.capped
					for j, acc := range accs {
						if j > 0 && accs[j-1].ext.Compare(acc.ext) >= 0 {
							t.Fatalf("depth %d N=%d: accumulators out of Extension.Compare order", depth, n)
						}
						// Chunks ascend, so per-worker lists concatenate sorted.
						got[acc.ext] = append(got[acc.ext], acc.centers...)
					}
				}
				if len(got) != len(want) {
					t.Fatalf("depth %d N=%d on\n%s: %d extensions, reference has %d", depth, n, p.q, len(got), len(want))
				}
				if gotCapped != hitCap {
					t.Fatalf("depth %d N=%d on\n%s: %d enumerations counted as capped, reference %d", depth, n, p.q, gotCapped, hitCap)
				}
				for ext, cs := range want {
					if !slices.Equal(got[ext], cs) {
						t.Fatalf("depth %d N=%d on\n%s: %+v supported by %v, reference %v", depth, n, p.q, ext, got[ext], cs)
					}
				}
			}
			// Grow a bounded, deterministic sample of children.
			slices.SortFunc(exts, pattern.Extension.Compare)
			for _, ext := range exts {
				if child := p.q.Apply(ext); child != nil && len(next) < 24 {
					next = append(next, parent{child, want[ext]})
				}
			}
		}
		level = next
	}
	if c.wantCapped && capped == 0 {
		t.Error("EmbedCap never bit")
	}
	if c.wantClose && !sawClose {
		t.Error("no closing extension occurred")
	}
	if c.wantSelfLoop && !sawSelfLoop {
		t.Error("no self-loop extension occurred")
	}
	if c.wantAsY && !sawAsY {
		t.Error("no AsY twin occurred")
	}
}

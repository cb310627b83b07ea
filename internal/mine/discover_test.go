package mine

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"gpar/internal/core"
	"gpar/internal/graph"
	"gpar/internal/match"
	"gpar/internal/pattern"
)

// perEdgeReference is extension discovery with nothing collapsed: every
// incident edge of every embedded node of every (canonical, capped)
// embedding is turned into its extension and recorded for the center, in
// maps. It also reports how many centers' enumerations reached the embedding
// cap.
func perEdgeReference(g *graph.Graph, w *worker, q *pattern.Pattern, centers []graph.NodeID) (ref map[pattern.Extension]map[graph.NodeID]bool, capped int64) {
	ref = make(map[pattern.Extension]map[graph.NodeID]bool)
	distX := q.DistancesInto(nil, q.X)
	opts := match.Options{MaxMatches: w.embedCap, Canonical: true}
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
				canGrow := distX[u] >= 0 && distX[u]+1 <= w.d
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
						if q.Y == pattern.NoNode && l == w.pred.YLabel {
							add(pattern.Extension{Src: u, Outgoing: dir.outgoing, EdgeLabel: e.Label, NewLabel: l, Close: pattern.NoNode, AsY: true})
						}
					}
				}
			}
			return true
		})
		if n == w.embedCap {
			capped++
		}
	}
	return ref, capped
}

// withheldThenRealized reports whether some center reaches one (u, w,
// direction) under two embeddings such that a neighbour class of w is
// withheld under the earlier one — every member embedded — and realized
// under a later one: the corner the per-center memo must not skip.
func withheldThenRealized(g *graph.Graph, w *worker, q *pattern.Pattern, centers []graph.NodeID) bool {
	type site struct {
		u          int
		w          graph.NodeID
		outgoing   bool
		edge, node graph.Label
	}
	distX := q.DistancesInto(nil, q.X)
	opts := match.Options{MaxMatches: w.embedCap, Canonical: true}
	found := false
	for _, vx := range centers {
		withheld := make(map[site]bool)
		match.EnumerateAnchored(q, g, vx, opts, func(asgn []graph.NodeID) bool {
			for u, dv := range asgn {
				if distX[u] < 0 || distX[u]+1 > w.d {
					continue
				}
				for _, outgoing := range []bool{true, false} {
					adj := g.In(dv)
					if outgoing {
						adj = g.Out(dv)
					}
					free := make(map[site]bool)
					for _, e := range adj {
						s := site{u, dv, outgoing, e.Label, g.Label(e.To)}
						free[s] = free[s] || !slices.Contains(asgn, e.To)
					}
					for s, f := range free {
						found = found || f && withheld[s]
						withheld[s] = withheld[s] || !f
					}
				}
			}
			return true
		})
	}
	return found
}

// discoveryCase is one graph of the collapse property test.
type discoveryCase struct {
	name     string
	g        *graph.Graph
	pred     core.Predicate
	embedCap int
	// What the case exists to exercise; asserted so a fixture that stops
	// exercising it fails instead of passing vacuously.
	wantCapped, wantClose, wantSelfLoop, wantAsY, wantWithheld bool
}

func abPredicate(syms *graph.Symbols) core.Predicate {
	return core.Predicate{XLabel: syms.Intern("a"), EdgeLabel: syms.Intern("e"), YLabel: syms.Intern("p")}
}

// interleavedGraph labels nodes a, p, q, a, p, q, … by ID, so a (Label, To)-
// sorted adjacency alternates neighbour classes and summarize must find
// most neighbours' class through labAt, not as the previous neighbour's.
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

// withheldGraph gives center a0 two embeddings of x -e-> h, x -e-> p
// through hub h0, with p ↦ p1 first and p ↦ p2 second. p1 is h0's only
// f-neighbour, so h0's class (f, p) is withheld under the first embedding
// and realized under the second. Center a1's class (f, p) at h1 is withheld
// under its only embedding, as are p1's and p3's (e, a) in-classes.
func withheldGraph() *graph.Graph {
	g := graph.New(nil)
	a0, h0, p1, p2 := g.AddNode("a"), g.AddNode("h"), g.AddNode("p"), g.AddNode("p")
	a1, h1, p3 := g.AddNode("a"), g.AddNode("h"), g.AddNode("p")
	for _, e := range [][2]graph.NodeID{{a0, h0}, {a0, p1}, {a0, p2}, {a1, h1}, {a1, p3}} {
		g.AddEdge(e[0], e[1], "e")
	}
	g.AddEdge(h0, p1, "f")
	g.AddEdge(h1, p3, "f")
	return g
}

// TestDiscoverExtensionsMatchesPerEdgeReference: reading each data node's
// neighbour classes once per parent, deriving AsY twins after a
// predicate-free discovery, and serving a repeat from the memo are only
// optimizations. For every parent pattern grown levelwise from the seed
// (three levels, so closing edges and AsY twins occur), the extensions
// discover reports and their supporting centers equal the per-edge
// reference's, with the centers split over 1 and 3 workers whose scratch and
// accumulators are recycled from parent to parent — each split twice, the
// second time answered by the memo the workers share.
func TestDiscoverExtensionsMatchesPerEdgeReference(t *testing.T) {
	inter := interleavedGraph()
	inter.Freeze()
	pred := abPredicate(inter.Symbols())
	overlay, err := inter.ApplyDelta(overlayOps(inter, pred.XLabel, 1))
	if err != nil {
		t.Fatal(err)
	}
	hub, par, wh := hubGraph(), parallelGraph(), withheldGraph()
	cases := []discoveryCase{
		{name: "interleaved", g: inter, pred: pred, embedCap: 64, wantClose: true, wantAsY: true},
		{name: "overlay", g: overlay, pred: pred, embedCap: 64, wantClose: true, wantAsY: true},
		{name: "hub", g: hub, pred: abPredicate(hub.Symbols()), embedCap: 4, wantCapped: true, wantAsY: true},
		{name: "parallel", g: par, pred: abPredicate(par.Symbols()), embedCap: 64, wantClose: true, wantSelfLoop: true, wantAsY: true},
		{name: "withheld", g: wh, pred: abPredicate(wh.Symbols()), embedCap: 64, wantClose: true, wantAsY: true, wantWithheld: true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { checkDiscovery(t, c) })
	}
}

func checkDiscovery(t *testing.T, c discoveryCase) {
	g := c.g
	g.Freeze()
	memo := &discMemo{limit: math.MaxInt64, entries: map[uint64]*discEntry{}}
	workers := make([]*worker, 3)
	for i := range workers {
		workers[i] = &worker{g: g, pred: c.pred, d: 2, embedCap: c.embedCap, disc: memo, slot: i}
	}
	params := workers[0] // the reference reads only its pred, d and embedCap
	type parent struct {
		q       *pattern.Pattern
		centers []graph.NodeID
	}
	seed := pattern.New(g.Symbols())
	seed.X = seed.AddNodeL(c.pred.XLabel)
	level := []parent{{seed, g.NodesWithLabel(c.pred.XLabel)}}
	var capped int64
	var sawClose, sawSelfLoop, sawAsY, sawWithheld bool
	for depth := 0; depth < 3; depth++ {
		var next []parent
		for _, p := range level {
			ref, hitCap := perEdgeReference(g, params, p.q, p.centers)
			capped += hitCap
			sawWithheld = sawWithheld || c.wantWithheld && withheldThenRealized(g, params, p.q, p.centers)
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
				// The second pass is served by the memo: same parent, same
				// frontier at every worker index.
				for pass := range 2 {
					hits := memo.hits
					got := make(map[pattern.Extension][]graph.NodeID)
					var gotCapped int64
					for i, w := range workers[:n] {
						chunk := p.centers[i*len(p.centers)/n : (i+1)*len(p.centers)/n]
						gotCapped -= w.capped
						exts := w.discover(p.q, chunk)
						gotCapped += w.capped
						for j, f := range exts {
							if j > 0 && exts[j-1].ext.Compare(f.ext) >= 0 {
								t.Fatalf("depth %d N=%d pass %d: extensions out of Extension.Compare order", depth, n, pass)
							}
							// Chunks ascend, so per-worker lists concatenate sorted.
							got[f.ext] = append(got[f.ext], f.centers...)
						}
					}
					if pass == 1 && memo.hits != hits+int64(n) {
						t.Fatalf("depth %d N=%d: %d of %d repeated discoveries served by the memo", depth, n, memo.hits-hits, n)
					}
					if len(got) != len(want) {
						t.Fatalf("depth %d N=%d pass %d on\n%s: %d extensions, reference has %d", depth, n, pass, p.q, len(got), len(want))
					}
					if gotCapped != hitCap {
						t.Fatalf("depth %d N=%d pass %d on\n%s: %d enumerations counted as capped, reference %d", depth, n, pass, p.q, gotCapped, hitCap)
					}
					for ext, cs := range want {
						if !slices.Equal(got[ext], cs) {
							t.Fatalf("depth %d N=%d pass %d on\n%s: %+v supported by %v, reference %v", depth, n, pass, p.q, ext, got[ext], cs)
						}
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
	if c.wantWithheld && !sawWithheld {
		t.Error("no class was withheld under one embedding and realized under a later one of the same center")
	}
}

// FuzzDiscoverExtensions holds discoverExtensions to the per-edge reference
// on small labelled graphs decoded from the input: byte 0 sets the node
// count (at most 24), one byte per node its label (a, p or q), and every
// following byte triple an edge (from, to, label e or f) — self-loops and
// parallel edges of different labels included. Parents grow two levels from
// the seed, under EmbedCap 64 and 3, and every discovery runs twice on one
// memo: the second run, served by it, must equal the reference too.
func FuzzDiscoverExtensions(f *testing.F) {
	f.Add([]byte{4, 0, 0, 1, 1, 0, 2, 0, 1, 2, 1, 2, 3, 0, 0, 0})
	// withheldGraph, with h as q.
	f.Add([]byte{7, 0, 2, 1, 1, 0, 2, 1, 0, 1, 0, 0, 2, 0, 0, 3, 0, 4, 5, 0, 4, 6, 0, 1, 2, 1, 5, 6, 1})
	// Six a's into one hub: EmbedCap 3 bites in round 2.
	f.Add([]byte{8, 2, 0, 0, 0, 0, 0, 0, 1, 1, 0, 0, 2, 0, 0, 3, 0, 0, 4, 0, 0, 5, 0, 0, 6, 0, 0, 0, 7, 1, 1, 7, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := 1 + int(data[0])%24
		data = data[1:]
		g := graph.New(nil)
		for v := 0; v < n; v++ {
			l := 0
			if v < len(data) {
				l = int(data[v]) % 3
			}
			g.AddNode([]string{"a", "p", "q"}[l])
		}
		data = data[min(n, len(data)):]
		for i := 0; i+2 < len(data) && i < 3*96; i += 3 {
			from, to := graph.NodeID(int(data[i])%n), graph.NodeID(int(data[i+1])%n)
			g.AddEdge(from, to, []string{"e", "f"}[data[i+2]%2])
		}
		for _, embedCap := range []int{64, 3} {
			checkDiscovery(t, discoveryCase{g: g, pred: abPredicate(g.Symbols()), embedCap: embedCap})
		}
	})
}

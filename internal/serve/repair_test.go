package serve

import (
	"math"
	"slices"
	"testing"

	"gpar/internal/core"
	"gpar/internal/eip"
	"gpar/internal/gen"
	"gpar/internal/graph"
	"gpar/internal/pattern"
)

// hangingRule is x -follow-> user, plus y with one more edge — y -l-> a
// node labelled other when out, that node -l-> y otherwise — ⇒ q(x, y). Its
// y half joins x only through q(x, y): r(PR, x) = 2, yet a change to the y
// half can change Q(x) at every centre.
func hangingRule(syms *graph.Symbols, pred core.Predicate, l, other string, out bool) *core.Rule {
	q := pattern.New(syms)
	q.X = q.AddNodeL(pred.XLabel)
	q.AddEdge(q.X, q.AddNodeL(pred.XLabel), "follow")
	q.Y = q.AddNodeL(pred.YLabel)
	if o := q.AddNode(other); out {
		q.AddEdge(q.Y, o, l)
	} else {
		q.AddEdge(o, q.Y, l)
	}
	return &core.Rule{Q: q, Pred: pred}
}

// checkResident compares the served snapshot's classified centres and
// supports, patched batch by batch, and every match-set entry resident for
// its generation — carried, repaired or built — with a witness of its own:
// eip.ClassifyCenters and Count on the compacted graph, which share none of
// the constructor's class patching, and EvalRule on a snapshot of that
// graph built afresh by the constructor, whose classes must agree too.
func checkResident(t *testing.T, s *Server) {
	t.Helper()
	snap := s.Snapshot()
	g := snap.G.CompactCopy()
	cs := eip.ClassifyCenters(g, g.NodesWithLabel(snap.Pred.XLabel), snap.Pred)
	pq, pqbar := cs.Count()
	rules := make([]*core.Rule, len(snap.Rules))
	for i, sr := range snap.Rules {
		rules[i] = sr.Rule
	}
	fresh, err := BuildSnapshot(g, snap.Pred, rules, Config{Workers: snap.workers})
	if err != nil {
		t.Fatalf("generation %d: BuildSnapshot: %v", snap.Gen, err)
	}
	for _, got := range []*Snapshot{snap, fresh} {
		if !slices.Equal(got.centres.Nodes, cs.Nodes) || !slices.Equal(got.centres.Pq, cs.Pq) ||
			!slices.Equal(got.centres.Pqbar, cs.Pqbar) || got.SuppQ1 != pq || got.SuppQbar != pqbar {
			t.Fatalf("generation %d: centres %v Pq %x Pqbar %x supp %d/%d, classified %v %x %x supp %d/%d", snap.Gen,
				got.centres.Nodes, got.centres.Pq, got.centres.Pqbar, got.SuppQ1, got.SuppQbar,
				cs.Nodes, cs.Pq, cs.Pqbar, pq, pqbar)
		}
	}
	for _, sr := range snap.Rules {
		ev, ok := s.cache.Get(evalKey{snap.Gen, sr.Key})
		if !ok {
			continue
		}
		want := fresh.EvalRule(sr, s.pool)
		sameConf := ev.Conf == want.Conf || math.IsNaN(ev.Conf) && math.IsNaN(want.Conf)
		if !slices.Equal(ev.Matches, want.Matches) || ev.Stats != want.Stats || !sameConf || ev.Centres != want.Centres {
			t.Fatalf("generation %d, rule %d (%s):\nserved   %v %+v conf %v centres %d\nevaluated %v %+v conf %v centres %d",
				snap.Gen, sr.Index, sr.Display, ev.Matches, ev.Stats, ev.Conf, ev.Centres,
				want.Matches, want.Stats, want.Conf, want.Centres)
		}
	}
}

// The op kinds of FuzzDeltaRepair's batches.
const (
	repairFollowUsers = iota // toggle follow between two users
	repairFollowHub          // toggle follow from a user to a hub
	repairRelabelHub         // relabel a hub to the y label, or away from it
	repairQEdge              // toggle q from a user to a hub
	repairAddUser            // add a user following another
	repairGenre              // toggle genre from a hub to genre:pop
	repairSwap               // swap the labels of a user and a hub
	repairOps
)

// FuzzDeltaRepair is the oracle of the delta repair: a 60-user Pokec graph
// serving gen.Rules' rules, two hanging rules (one on a genre edge held by
// a Disco node no user is near, one on the q edges into y) and a rule whose
// y is farther from x in Q than in PR, every rule evaluated, then up to six
// batches. Each batch reads a length byte, then a
// kind byte and two node bytes per op; the batches toggle follow edges at
// users and at hubs, relabel hubs to and from the y label, toggle q edges
// and genre edges, add users, and swap a user's label with a hub's (a user
// leaves the x label and a hub joins it, or back). After each batch the
// served classes and supports, and every entry that crossed, as it was or
// repaired, must equal a fresh classification and EvalRule on the
// compacted graph; then every rule is evaluated again for the next batch.
func FuzzDeltaRepair(f *testing.F) {
	f.Add([]byte{2, repairFollowUsers, 3, 9, repairQEdge, 4, 1})
	f.Add([]byte{1, repairGenre, 0, 0, 1, repairGenre, 0, 0, 2, repairRelabelHub, 0, 0, repairAddUser, 7, 7})
	f.Add([]byte{3, repairFollowHub, 2, 5, repairRelabelHub, 1, 5, repairFollowUsers, 11, 12, 1, repairRelabelHub, 1, 5})
	f.Add([]byte{4, repairQEdge, 8, 0, repairQEdge, 9, 0, repairAddUser, 1, 2, repairFollowUsers, 60, 3})
	f.Add([]byte{1, repairQEdge, 5, 1, repairSwap, 5, 1, 0, repairSwap, 5, 1, 1, repairSwap, 2, 3, repairQEdge, 9, 3})
	f.Fuzz(func(t *testing.T, in []byte) {
		syms := graph.NewSymbols()
		g := gen.Pokec(syms, gen.DefaultPokec(60, 1))
		users := slices.Clone(g.NodesWithLabel(syms.Intern("user")))
		hubs := users[0] // hubs come first
		pred := gen.PokecPredicates(syms)[0]
		far, pop := graph.NodeID(g.NumNodes()), graph.NodeID(g.NumNodes()+1)
		g = g.Clone()
		g.AddNodeL(pred.YLabel)
		g.AddNode("genre:pop")
		g.AddEdge(far, pop, "genre")
		// chain's designated y is three hops from x in Q, one in PR.
		chain := pattern.New(syms)
		chain.X, chain.Y = chain.AddNodeL(pred.XLabel), chain.AddNodeL(pred.YLabel)
		u, w := chain.AddNodeL(pred.XLabel), chain.AddNodeL(pred.XLabel)
		chain.AddEdge(chain.X, u, "follow")
		chain.AddEdge(u, w, "follow")
		chain.AddEdgeL(w, chain.Y, pred.EdgeLabel)
		rules := append(gen.Rules(g, pred, gen.RuleGenParams{Count: 4, VP: 3, EP: 3, Seed: 1}),
			hangingRule(syms, pred, "genre", "genre:pop", true),
			hangingRule(syms, pred, syms.Name(pred.EdgeLabel), syms.Name(pred.XLabel), false),
			&core.Rule{Q: chain, Pred: pred})
		s := New(Config{Workers: 2})
		if err := s.LoadSnapshot(g, pred, rules); err != nil {
			t.Fatal(err)
		}
		next := func() int {
			if len(in) == 0 {
				return 0
			}
			b := in[0]
			in = in[1:]
			return int(b)
		}
		for batch := 0; batch < 6 && len(in) > 0; batch++ {
			snap := s.Snapshot()
			for _, sr := range snap.Rules {
				s.identifyOne(snap, sr)
			}
			cur := snap.G
			edges := map[[3]int32]bool{} // the batch's own toggles
			labels := map[graph.NodeID]graph.Label{}
			label := func(v graph.NodeID) graph.Label {
				if l, ok := labels[v]; ok {
					return l
				}
				return cur.Label(v)
			}
			n := graph.NodeID(cur.NumNodes())
			var ops []DeltaOpSpec
			toggle := func(from, to graph.NodeID, l string) {
				k := [3]int32{int32(from), int32(to), int32(syms.Intern(l))}
				has, ok := edges[k]
				if !ok {
					has = from < graph.NodeID(cur.NumNodes()) && to < graph.NodeID(cur.NumNodes()) && cur.HasEdge(from, to, graph.Label(k[2]))
				}
				op := "addEdge"
				if has {
					op = "delEdge"
				}
				edges[k] = !has
				ops = append(ops, DeltaOpSpec{Op: op, From: k[0], To: k[1], Label: l})
			}
			for k := 1 + next()%4; k > 0; k-- {
				kind, a, b := next()%repairOps, next(), next()
				user := users[a%len(users)]
				hub := graph.NodeID(b) % hubs
				switch kind {
				case repairFollowUsers:
					if v := users[b%len(users)]; v != user {
						toggle(user, v, "follow")
					}
				case repairFollowHub:
					toggle(user, hub, "follow")
				case repairRelabelHub:
					to := syms.Name(pred.YLabel)
					if label(hub) == pred.YLabel {
						to = "music:Rock"
					}
					labels[hub] = syms.Intern(to)
					ops = append(ops, DeltaOpSpec{Op: "setLabel", Node: int32(hub), Label: to})
				case repairQEdge:
					toggle(user, hub, syms.Name(pred.EdgeLabel))
				case repairAddUser:
					ops = append(ops, DeltaOpSpec{Op: "addNode", Label: "user"})
					toggle(n, user, "follow")
					n++
				case repairGenre:
					src := far
					if a%2 == 1 {
						src = hub
					}
					toggle(src, pop, "genre")
				case repairSwap:
					lu, lh := label(user), label(hub)
					labels[user], labels[hub] = lh, lu
					ops = append(ops, DeltaOpSpec{Op: "setLabel", Node: int32(user), Label: syms.Name(lh)},
						DeltaOpSpec{Op: "setLabel", Node: int32(hub), Label: syms.Name(lu)})
				}
			}
			if len(ops) == 0 {
				continue
			}
			if _, err := s.ApplyDelta(DeltaRequest{Ops: ops}); err != nil {
				t.Fatalf("batch %d %+v: %v", batch, ops, err)
			}
			checkResident(t, s)
		}
	})
}

// TestRepairReaches pins the mine-result half of a repair: a batch reaches
// distance d from an x label iff a net change — either end of a changed
// edge, or a changed label — lies within d hops of a node with that label,
// in the graph that has the change. On the fixture plus a chain bar -> 11
// -> 12 (cust 5 visits the bar, so 12 is three hops from a cust) and an
// isolated 13, each batch reaches exactly the distances from its first.
func TestRepairReaches(t *testing.T) {
	s, _, _ := newTestServer(t, Config{Workers: 2})
	if _, err := s.ApplyDelta(DeltaRequest{Ops: []DeltaOpSpec{
		{Op: "addNode", Label: "island"}, {Op: "addNode", Label: "island"}, {Op: "addNode", Label: "island"},
		{Op: "addEdge", From: 10, To: 11, Label: "bridge"}, {Op: "addEdge", From: 11, To: 12, Label: "bridge"},
	}}); err != nil {
		t.Fatal(err)
	}
	snap := s.Snapshot()
	cust, island := snap.Pred.XLabel, snap.G.Symbols().Lookup("island")
	into := DeltaOpSpec{Op: "addEdge", From: 13, To: 12, Label: "bridge"}
	for _, c := range []struct {
		name  string
		ops   []DeltaOpSpec
		xl    graph.Label
		first int // the least distance reached; -1: none
	}{
		{"an edge whose target is three hops out", []DeltaOpSpec{into}, cust, 3},
		{"the same edge, from the islands", []DeltaOpSpec{into}, island, 0},
		{"an edge deleted two hops out", []DeltaOpSpec{{Op: "delEdge", From: 11, To: 12, Label: "bridge"}}, cust, 2},
		{"a relabel three hops out", []DeltaOpSpec{{Op: "setLabel", Node: 12, Label: "isle"}}, cust, 3},
		{"an edge added and deleted", []DeltaOpSpec{into, {Op: "delEdge", From: 13, To: 12, Label: "bridge"}}, cust, -1},
		{"a node set to its own label", []DeltaOpSpec{{Op: "setLabel", Node: 12, Label: "island"}}, island, -1},
	} {
		ops, err := mapDeltaOps(snap.G.Symbols(), DeltaRequest{Ops: c.ops})
		if err != nil {
			t.Fatal(err)
		}
		g2, err := snap.G.ApplyDelta(ops)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		rep := newRepair(snap, g2, ops, g2.DeltaTouched(), s.cfg)
		for d := 0; d <= 4; d++ {
			if got, want := rep.reaches(c.xl, d), c.first >= 0 && d >= c.first; got != want {
				t.Errorf("%s: reaches(%d) = %v, want %v", c.name, d, got, want)
			}
		}
	}
}

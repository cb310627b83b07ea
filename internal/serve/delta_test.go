package serve

import (
	"net/http"
	"reflect"
	"slices"
	"testing"
	"time"

	"gpar/internal/core"
	"gpar/internal/gen"
	"gpar/internal/graph"
	"gpar/internal/match"
	"gpar/internal/pattern"
)

// deltaJSON posts a delta batch and returns the status code plus response.
func deltaJSON(t *testing.T, url, body string) (int, DeltaResponse) {
	t.Helper()
	var dr DeltaResponse
	code := doJSON(t, "POST", url+"/v1/graph/delta", []byte(body), &dr)
	return code, dr
}

// identify runs a whole-Σ identify and returns the response.
func identify(t *testing.T, url string) IdentifyResponse {
	t.Helper()
	var idr IdentifyResponse
	if code := doJSON(t, "POST", url+"/v1/identify", []byte(`{}`), &idr); code != 200 {
		t.Fatalf("identify: %d", code)
	}
	return idr
}

func TestDeltaEndpointSemantics(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{Workers: 2})

	var st0 StatsResponse
	doJSON(t, "GET", ts.URL+"/stats", nil, &st0)

	// Fixture node IDs: cust 0-7, bistro 8, diner 9, bar 10; new nodes are
	// assigned densely, so the two addNode ops below become 11 and 12.
	code, dr := deltaJSON(t, ts.URL, `{"ops":[
		{"op":"addNode","label":"island"},
		{"op":"addNode","label":"island"},
		{"op":"addEdge","from":11,"to":12,"label":"bridge"}]}`)
	if code != http.StatusAccepted {
		t.Fatalf("delta: %d", code)
	}
	if dr.Generation != 2 || dr.Ops != 3 || dr.OverlayOps != 3 {
		t.Fatalf("delta response: %+v", dr)
	}
	if dr.Nodes != st0.Graph.Nodes+2 || dr.Edges != st0.Graph.Edges+1 {
		t.Fatalf("delta totals: %+v (base %+v)", dr, st0.Graph)
	}
	if dr.TouchedNodes != 2 || dr.Compacting {
		t.Fatalf("delta maintenance fields: %+v", dr)
	}
	if idr := identify(t, ts.URL); idr.Generation != 2 {
		t.Fatalf("identify generation %d after delta, want 2", idr.Generation)
	}

	// Malformed requests answer 400 without touching the graph.
	for _, bad := range []string{
		`{nope`,
		`{}`,
		`{"ops":[]}`,
		`{"ops":[{"op":"explode"}]}`,
		`{"ops":[{"op":"addNode"}]}`,
		`{"ops":[{"op":"addEdge","from":0,"to":5}]}`,
		`{"ops":[{"op":"setLabel","node":3}]}`,
	} {
		if code, _ := deltaJSON(t, ts.URL, bad); code != http.StatusBadRequest {
			t.Errorf("delta %s: %d, want 400", bad, code)
		}
	}

	// Well-formed batches the graph refuses answer 409 and apply not at all:
	// a batch whose last op fails leaves no trace of its earlier ops.
	for _, conflict := range []string{
		`{"ops":[{"op":"addEdge","from":0,"to":1,"label":"friend"}]}`,
		`{"ops":[{"op":"delEdge","from":0,"to":5,"label":"friend"}]}`,
		`{"ops":[{"op":"delEdge","from":0,"to":1,"label":"unheard-of"}]}`,
		`{"ops":[{"op":"addEdge","from":99,"to":0,"label":"friend"}]}`,
		`{"ops":[{"op":"setLabel","node":99,"label":"cust"}]}`,
		`{"ops":[{"op":"addNode","label":"cust"},{"op":"delEdge","from":0,"to":5,"label":"friend"}]}`,
	} {
		if code, _ := deltaJSON(t, ts.URL, conflict); code != http.StatusConflict {
			t.Errorf("delta %s: %d, want 409", conflict, code)
		}
	}

	var st StatsResponse
	doJSON(t, "GET", ts.URL+"/stats", nil, &st)
	if st.Generation != 2 {
		t.Errorf("generation %d after rejected batches, want 2", st.Generation)
	}
	if st.Graph.Nodes != st0.Graph.Nodes+2 || st.Graph.Edges != st0.Graph.Edges+1 {
		t.Errorf("rejected batches changed the graph: %+v", st.Graph)
	}
	if st.Delta.Batches != 1 || st.Delta.Ops != 3 || st.Delta.Rejected != 13 {
		t.Errorf("delta counters: %+v", st.Delta)
	}
	if !st.Delta.Overlaid || st.Delta.OverlayOps != 3 {
		t.Errorf("overlay state: %+v", st.Delta)
	}
}

// TestDeltaSelectiveInvalidation pins the carry and the repair end to end:
// a batch whose edges no rule can play keeps every entry as it is (hit
// counters prove it), however near a candidate it lands, and a batch on a
// rule's edge label repairs the entries it reaches, which then answer as
// a fresh evaluation would.
func TestDeltaSelectiveInvalidation(t *testing.T) {
	s, ts, _ := newTestServer(t, Config{Workers: 2})
	base := identify(t, ts.URL) // fills the cache
	warm := identify(t, ts.URL)
	for i := range warm.Rules {
		if !warm.Rules[i].Cached {
			t.Fatalf("rule %d not cached on repeat identify", i)
		}
	}

	// An island disconnected from every candidate, then a bridge from the
	// bar — one hop from a cust — to it and on along the island: no rule
	// has a bridge edge, so both batches carry both entries. The repeat
	// identifies hit the carried entries — hits rise by exactly the rule
	// count each, misses not at all.
	for i, batch := range []string{
		`{"ops":[{"op":"addNode","label":"island"},{"op":"addNode","label":"island"}]}`,
		`{"ops":[{"op":"addEdge","from":10,"to":11,"label":"bridge"},{"op":"addEdge","from":11,"to":12,"label":"bridge"}]}`,
	} {
		before, _ := s.cacheStats()
		code, dr := deltaJSON(t, ts.URL, batch)
		if code != http.StatusAccepted || dr.RulesCarried != 2 || dr.RulesRepaired != 0 || dr.RulesInvalidated != 0 {
			t.Fatalf("batch %d: %d %+v", i, code, dr)
		}
		carried := identify(t, ts.URL)
		for r := range carried.Rules {
			if !carried.Rules[r].Cached {
				t.Errorf("batch %d: rule %d lost its cache entry", i, r)
			}
		}
		if !reflect.DeepEqual(carried.Identified, base.Identified) {
			t.Errorf("batch %d: carried answer drifted: %+v vs %+v", i, carried.Identified, base.Identified)
		}
		after, _ := s.cacheStats()
		if after.Hits != before.Hits+2 || after.Misses != before.Misses {
			t.Errorf("batch %d: carry changed counters: before %+v after %+v", i, before, after)
		}
	}

	// Cust 6 befriends cust 4, who visits the bistro: both rules' x
	// -friend-> y1 can play the edge, so both entries are repaired at the
	// one centre it reaches, 6, and R1 now matches there.
	code, dr := deltaJSON(t, ts.URL, `{"ops":[{"op":"addEdge","from":6,"to":4,"label":"friend"}]}`)
	if code != http.StatusAccepted || dr.RulesCarried != 2 || dr.RulesRepaired != 2 || dr.RulesInvalidated != 0 {
		t.Fatalf("friend delta: %d %+v", code, dr)
	}
	checkResident(t, s)
	repaired := identify(t, ts.URL)
	for r := range repaired.Rules {
		if !repaired.Rules[r].Cached {
			t.Errorf("rule %d lost its cache entry to a repair", r)
		}
	}
	if got, was := repaired.Rules[0].Matches, base.Rules[0].Matches; got != was+1 {
		t.Errorf("R1 matches %d before the friend edge, %d after; want cust 6 added", was, got)
	}

	var st StatsResponse
	doJSON(t, "GET", ts.URL+"/stats", nil, &st)
	if st.Delta.RulesCarried != 6 || st.Delta.RulesRepaired != 2 || st.Delta.CentresRepaired != 2 || st.Delta.RulesInvalidated != 0 {
		t.Errorf("cumulative carry counters: %+v", st.Delta)
	}
}

func TestDeltaCompaction(t *testing.T) {
	s, ts, _ := newTestServer(t, Config{Workers: 2, CompactThreshold: 3})

	base := identify(t, ts.URL)
	identify(t, ts.URL) // cache is warm

	code, dr := deltaJSON(t, ts.URL, `{"ops":[
		{"op":"addNode","label":"island"},
		{"op":"addNode","label":"island"}]}`)
	if code != http.StatusAccepted || dr.Compacting {
		t.Fatalf("first delta: %d %+v", code, dr)
	}
	if dr.RulesCarried != 2 {
		t.Fatalf("island delta carried %d, want 2", dr.RulesCarried)
	}
	code, dr = deltaJSON(t, ts.URL, `{"ops":[{"op":"addEdge","from":11,"to":12,"label":"bridge"}]}`)
	if code != http.StatusAccepted || !dr.Compacting || dr.Generation != 3 {
		t.Fatalf("threshold delta did not compact: %d %+v", code, dr)
	}
	// The crossing batch answers only once the compaction is published.
	if gen := s.Generation(); gen != 4 || s.Snapshot().G.Overlaid() {
		t.Errorf("generation %d, overlaid %v after the crossing batch; want 4 and no overlay",
			gen, s.Snapshot().G.Overlaid())
	}

	// The logical graph is unchanged: the cache survives the compaction
	// swap and the answer is byte-for-byte the pre-delta one.
	post := identify(t, ts.URL)
	for i := range post.Rules {
		if !post.Rules[i].Cached {
			t.Errorf("rule %d lost its cache entry across compaction", i)
		}
	}
	if !reflect.DeepEqual(post.Identified, base.Identified) {
		t.Errorf("compaction changed the answer: %+v vs %+v", post.Identified, base.Identified)
	}

	var st StatsResponse
	doJSON(t, "GET", ts.URL+"/stats", nil, &st)
	if st.Delta.Compactions != 1 || st.Delta.Overlaid || st.Delta.OverlayOps != 0 {
		t.Errorf("post-compaction stats: %+v", st.Delta)
	}

	// Compacting a graph with no overlay is a no-op.
	if gen, did, err := s.Compact(); err != nil || did || gen != 4 {
		t.Errorf("no-op compact: gen %d did %v err %v", gen, did, err)
	}
}

// TestDeltaCompactionSteadyWriter: a writer that never pauses still gets
// every compaction its threshold asks for. 200 back-to-back batches of 10
// ops at threshold 100 cross it 20 times, and each crossing batch compacts
// before it answers, so no later batch can overtake the copy.
func TestDeltaCompactionSteadyWriter(t *testing.T) {
	g := gen.Pokec(graph.NewSymbols(), gen.DefaultPokec(2000, 1))
	pred, rules := supportedRules(t, g, 4)
	s := New(Config{Workers: 2, CompactThreshold: 100})
	if err := s.LoadSnapshot(g, pred, rules); err != nil {
		t.Fatal(err)
	}
	const batches, size = 200, 10
	for i := range batches {
		ops := make([]DeltaOpSpec, size)
		for j := range ops {
			v := int32(i*size + j)
			ops[j] = DeltaOpSpec{Op: "addEdge", From: v, To: v + 1, Label: "steady"}
		}
		if _, err := s.ApplyDelta(DeltaRequest{Ops: ops}); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
	}
	if ov, n, aborts := s.Snapshot().G.OverlayOps(), s.nCompactions.Load(), s.nCompactAborts.Load(); ov >= 100 || n != 20 || aborts != 0 {
		t.Errorf("after %d batches: overlay %d ops, %d compactions, %d aborts; want < 100, 20, 0", batches, ov, n, aborts)
	}
}

// TestDeltaWarmMineCarry pins the mine-result half of incremental
// maintenance: a completed job's Σ survives mutations outside its reach and
// answers an identical job on the new generation without mining, while a
// mutation inside the reach drops it.
func TestDeltaWarmMineCarry(t *testing.T) {
	s, ts, _ := newTestServer(t, Config{Workers: 2})

	params := MineParams{
		XLabel: "cust", EdgeLabel: "visit", YLabel: "restaurant",
		K: 2, Sigma: 1, D: 2, MaxEdges: 1, Cap: 10,
	}
	start := func() Job {
		t.Helper()
		job, err := s.StartMine(params)
		if err != nil {
			t.Fatalf("StartMine: %v", err)
		}
		waitJobUntil(t, s, job.ID, 30*time.Second, func(j Job) bool { return terminal(j.Status) })
		// Every check below is on the job as GET /v1/jobs/{id} returns it.
		var j Job
		doJSON(t, "GET", ts.URL+"/v1/jobs/"+job.ID, nil, &j)
		return j
	}

	j1 := start()
	if j1.Status != JobDone || j1.WarmStarted || j1.ServedGeneration != 1 {
		t.Fatalf("first job: %+v", j1)
	}
	// A job that ran lists one superstep per round on GET /v1/jobs/{id}.
	if len(j1.Supersteps) != j1.Rounds || j1.Rounds == 0 {
		t.Fatalf("first job: %d supersteps for %d rounds", len(j1.Supersteps), j1.Rounds)
	}
	kept := 0
	for i, st := range j1.Supersteps {
		if st.Round != i+1 || st.Frontier == 0 || st.Messages == 0 ||
			st.GenerateMs <= 0 || st.AssembleMs <= 0 || st.DiversifyMs <= 0 {
			t.Errorf("superstep %d: %+v", i, st)
		}
		kept += st.Kept
	}
	if kept < j1.Kept {
		t.Errorf("supersteps kept %d rules, the job reports %d", kept, j1.Kept)
	}

	// Island-only batch: beyond the warm reach max(D, MaxEdges)+1 = 3, the
	// result is carried to generation 2.
	code, dr := deltaJSON(t, ts.URL, `{"ops":[
		{"op":"addNode","label":"island"},
		{"op":"addNode","label":"island"},
		{"op":"addEdge","from":11,"to":12,"label":"bridge"}]}`)
	if code != http.StatusAccepted || dr.WarmMineCarried != 1 {
		t.Fatalf("island delta: %d %+v", code, dr)
	}

	j2 := start()
	if j2.Status != JobDone || !j2.WarmStarted || j2.ServedGeneration != 2 {
		t.Fatalf("carried job: %+v", j2)
	}
	if len(j2.Supersteps) != 0 {
		t.Errorf("warm-started job ran nothing but lists supersteps: %+v", j2.Supersteps)
	}
	if !reflect.DeepEqual(j2.RuleKeys, j1.RuleKeys) || j2.F != j1.F ||
		j2.Rounds != j1.Rounds || j2.Generated != j1.Generated || j2.Kept != j1.Kept {
		t.Errorf("warm-started job drifted from the original:\n%+v\n%+v", j1, j2)
	}
	var st StatsResponse
	doJSON(t, "GET", ts.URL+"/stats", nil, &st)
	if st.Delta.WarmMineHits != 1 {
		t.Errorf("warm mine hits %d, want 1", st.Delta.WarmMineHits)
	}

	// Batches that touch a candidate but change nothing — an edge added and
	// deleted again, a node set to its own label — leave no net change in
	// reach: the result is carried and the next job warm-starts.
	for i, ops := range []string{
		`{"ops":[{"op":"addEdge","from":7,"to":9,"label":"visit"},{"op":"delEdge","from":7,"to":9,"label":"visit"}]}`,
		`{"ops":[{"op":"setLabel","node":7,"label":"cust"}]}`,
	} {
		code, dr = deltaJSON(t, ts.URL, ops)
		if code != http.StatusAccepted || dr.WarmMineCarried != 1 {
			t.Fatalf("net-zero delta %d: %d %+v", i, code, dr)
		}
		if j := start(); j.Status != JobDone || !j.WarmStarted || j.ServedGeneration != uint64(3+i) {
			t.Fatalf("job after net-zero delta %d: %+v", i, j)
		}
	}

	// A mutation touching a candidate (cust 7 gains a visit edge) is within
	// reach: the carried result is dropped and the next job re-mines.
	code, dr = deltaJSON(t, ts.URL, `{"ops":[{"op":"addEdge","from":7,"to":9,"label":"visit"}]}`)
	if code != http.StatusAccepted || dr.WarmMineCarried != 0 {
		t.Fatalf("near delta: %d %+v", code, dr)
	}
	j3 := start()
	if j3.Status != JobDone || j3.WarmStarted || j3.ServedGeneration != 5 {
		t.Fatalf("post-invalidation job: %+v", j3)
	}
}

// TestDeltaMineReachPerPredicate: a mine result's reach is measured from
// its own predicate's x label, not the served one's. A batch among island
// nodes, beyond every cust's reach, drops the result of a job that mines
// islands and carries the cust job's.
func TestDeltaMineReachPerPredicate(t *testing.T) {
	s, ts, _ := newTestServer(t, Config{Workers: 2})
	code, dr := deltaJSON(t, ts.URL, `{"ops":[
		{"op":"addNode","label":"island"},
		{"op":"addNode","label":"island"},
		{"op":"addEdge","from":11,"to":12,"label":"bridge"}]}`)
	if code != http.StatusAccepted {
		t.Fatalf("island delta: %d %+v", code, dr)
	}
	cust := MineParams{XLabel: "cust", EdgeLabel: "visit", YLabel: "restaurant", K: 2, Sigma: 1, D: 2, MaxEdges: 1, Cap: 10}
	island := MineParams{XLabel: "island", EdgeLabel: "bridge", YLabel: "island", K: 2, Sigma: 1, D: 2, MaxEdges: 1, Cap: 10}
	run := func(p MineParams) Job {
		t.Helper()
		job, err := s.StartMine(p)
		if err != nil {
			t.Fatalf("StartMine: %v", err)
		}
		return waitJob(t, s, job.ID)
	}
	for _, p := range []MineParams{cust, island} {
		if j := run(p); j.Status != JobDone || j.WarmStarted {
			t.Fatalf("first %s job: %+v", p.XLabel, j)
		}
	}
	code, dr = deltaJSON(t, ts.URL, `{"ops":[{"op":"addEdge","from":12,"to":11,"label":"bridge"}]}`)
	if code != http.StatusAccepted || dr.WarmMineCarried != 1 {
		t.Fatalf("island-only delta: %d %+v, want the cust result alone carried", code, dr)
	}
	if j := run(cust); j.Status != JobDone || !j.WarmStarted {
		t.Errorf("cust job after the island delta: %+v, want warm-started", j)
	}
	if j := run(island); j.Status != JobDone || j.WarmStarted {
		t.Errorf("island job after the island delta: %+v, want re-mined", j)
	}
}

// TestDeltaDisconnectedAntecedent: Q's y half (y -genre-> genre:pop) joins
// x only through q(x, y), so Q(x) depends on it at any distance. Deleting
// the only genre edge, held by a Disco node that no user likes and that has
// no user within r(PR, x) = 2 hops, must change the answer at user 0.
func TestDeltaDisconnectedAntecedent(t *testing.T) {
	syms := graph.NewSymbols()
	g := graph.New(syms)
	u0, u1 := g.AddNode("user"), g.AddNode("user")
	liked, far, pop := g.AddNode("music:Disco"), g.AddNode("music:Disco"), g.AddNode("genre:pop")
	g.AddEdge(u0, u1, "follow")
	g.AddEdge(u0, liked, "like_music")
	g.AddEdge(far, pop, "genre")
	pred := core.Predicate{XLabel: syms.Intern("user"), EdgeLabel: syms.Intern("like_music"), YLabel: syms.Intern("music:Disco")}
	q := pattern.New(syms)
	q.X = q.AddNode("user")
	q.AddEdge(q.X, q.AddNode("user"), "follow")
	q.Y = q.AddNode("music:Disco")
	q.AddEdge(q.Y, q.AddNode("genre:pop"), "genre")
	rule := &core.Rule{Q: q, Pred: pred}
	if rule.Radius() != 2 {
		t.Fatalf("r(PR, x) = %d, want 2", rule.Radius())
	}
	s := New(Config{Workers: 1})
	if err := s.LoadSnapshot(g, pred, []*core.Rule{rule}); err != nil {
		t.Fatal(err)
	}
	snap := s.Snapshot()
	if ev, _, _, _ := s.identifyOne(snap, snap.Rules[0]); !slices.Equal(ev.Matches, []graph.NodeID{u0}) {
		t.Fatalf("before the delta: matches %v, want [%d]", ev.Matches, u0)
	}

	dr, err := s.ApplyDelta(DeltaRequest{Ops: []DeltaOpSpec{{Op: "delEdge", From: int32(far), To: int32(pop), Label: "genre"}}})
	if err != nil {
		t.Fatal(err)
	}
	snap = s.Snapshot()
	ev, _, _, _ := s.identifyOne(snap, snap.Rules[0])
	if want := core.Eval(snap.G, rule, match.Options{}, true); len(ev.Matches) != len(want.QSet) || ev.Stats != want.Stats {
		t.Errorf("after the delta: matches %v %+v, core.Eval %v %+v", ev.Matches, ev.Stats, want.QSet, want.Stats)
	}
	if dr.RulesCarried != 0 || dr.RulesInvalidated != 1 {
		t.Errorf("delta carried %d and dropped %d entries, want 0 and 1", dr.RulesCarried, dr.RulesInvalidated)
	}
}

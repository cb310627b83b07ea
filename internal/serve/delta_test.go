package serve

import (
	"net/http"
	"reflect"
	"testing"
	"time"
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

// TestDeltaSelectiveInvalidation pins the carry invariant end to end: a
// mutation farther than every rule's radius from any candidate keeps all
// cache entries (hit counters prove it), a mutation at impact 1 — the LCWA
// classification radius — drops everything, and one at impact 2 evicts the
// radius-2 rule and carries the radius-1 one (impact = radius + 1).
func TestDeltaSelectiveInvalidation(t *testing.T) {
	s, ts, _ := newTestServer(t, Config{Workers: 2})
	snap := s.Snapshot()
	if snap.Rules[0].Radius != 2 || snap.Rules[1].Radius != 1 {
		t.Fatalf("fixture radii (%d, %d), want (2, 1)", snap.Rules[0].Radius, snap.Rules[1].Radius)
	}

	base := identify(t, ts.URL) // fills the cache
	warm := identify(t, ts.URL)
	for i := range warm.Rules {
		if !warm.Rules[i].Cached {
			t.Fatalf("rule %d not cached on repeat identify", i)
		}
	}

	// An island disconnected from every candidate: impact -1, both entries
	// carried. The repeat identify hits the carried entries — hits rise by
	// exactly the rule count, misses not at all.
	before, _ := s.cacheStats()
	code, dr := deltaJSON(t, ts.URL, `{"ops":[
		{"op":"addNode","label":"island"},
		{"op":"addNode","label":"island"}]}`)
	if code != http.StatusAccepted || dr.RulesCarried != 2 || dr.RulesInvalidated != 0 {
		t.Fatalf("island delta: %d %+v", code, dr)
	}
	carried := identify(t, ts.URL)
	for i := range carried.Rules {
		if !carried.Rules[i].Cached {
			t.Errorf("rule %d lost its cache entry across an island delta", i)
		}
	}
	if carried.Generation != 2 || !reflect.DeepEqual(carried.Identified, base.Identified) {
		t.Errorf("carried answer drifted: %+v vs %+v", carried.Identified, base.Identified)
	}
	after, _ := s.cacheStats()
	if after.Hits != before.Hits+2 || after.Misses != before.Misses {
		t.Errorf("carry changed counters: before %+v after %+v", before, after)
	}

	// Bridging the island to the bar puts a touched node at distance 1 from
	// a cust candidate: the classification radius, and inside every rule's
	// radius (none is below 1). Everything is dropped.
	code, dr = deltaJSON(t, ts.URL, `{"ops":[{"op":"addEdge","from":10,"to":11,"label":"bridge"}]}`)
	if code != http.StatusAccepted || dr.RulesCarried != 0 || dr.RulesInvalidated != 2 {
		t.Fatalf("bridge delta: %d %+v", code, dr)
	}
	cold := identify(t, ts.URL)
	for i := range cold.Rules {
		if cold.Rules[i].Cached {
			t.Errorf("rule %d cached after a radius-1 mutation", i)
		}
	}
	identify(t, ts.URL) // refill

	// Extending the island chain one hop out: the touched nodes are now at
	// distances 2 (node 11, via the bar) and 3 (node 12) from the nearest
	// candidate. Impact 2 reaches R1 (radius 2) but not R2 (radius 1).
	code, dr = deltaJSON(t, ts.URL, `{"ops":[{"op":"addEdge","from":11,"to":12,"label":"bridge"}]}`)
	if code != http.StatusAccepted || dr.RulesCarried != 1 || dr.RulesInvalidated != 1 {
		t.Fatalf("chain delta: %d %+v", code, dr)
	}
	split := identify(t, ts.URL)
	if split.Rules[0].Cached {
		t.Errorf("R1 (radius 2) kept its entry through an impact-2 mutation")
	}
	if !split.Rules[1].Cached {
		t.Errorf("R2 (radius 1) lost its entry to an impact-2 mutation")
	}
	if !reflect.DeepEqual(split.Identified, base.Identified) {
		t.Errorf("island chain changed the answer: %+v vs %+v", split.Identified, base.Identified)
	}

	var st StatsResponse
	doJSON(t, "GET", ts.URL+"/stats", nil, &st)
	if st.Delta.RulesCarried != 3 || st.Delta.RulesInvalidated != 3 {
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
	if code != http.StatusAccepted || !dr.Compacting {
		t.Fatalf("threshold delta did not trigger compaction: %d %+v", code, dr)
	}

	deadline := time.Now().Add(10 * time.Second)
	for s.Snapshot().G.Overlaid() {
		if time.Now().After(deadline) {
			t.Fatal("compaction never swapped a frozen graph in")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if gen := s.Generation(); gen != 4 {
		t.Errorf("generation %d after two deltas + compaction, want 4", gen)
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

	// A mutation touching a candidate (cust 7 gains a visit edge) lands at
	// impact 0: the carried result is dropped and the next job re-mines.
	code, dr = deltaJSON(t, ts.URL, `{"ops":[{"op":"addEdge","from":7,"to":9,"label":"visit"}]}`)
	if code != http.StatusAccepted || dr.WarmMineCarried != 0 {
		t.Fatalf("near delta: %d %+v", code, dr)
	}
	j3 := start()
	if j3.Status != JobDone || j3.WarmStarted || j3.ServedGeneration != 3 {
		t.Fatalf("post-invalidation job: %+v", j3)
	}
}

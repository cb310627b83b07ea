package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"gpar/internal/core"
	"gpar/internal/eip"
	"gpar/internal/graph"
	"gpar/internal/pattern"
)

// fixture builds the quickstart-style restaurant graph with two rules for
// the predicate visit(cust, restaurant).
func fixture(t *testing.T) (*graph.Graph, core.Predicate, []*core.Rule) {
	t.Helper()
	syms := graph.NewSymbols()
	g := graph.New(syms)
	cust := make([]graph.NodeID, 8)
	for i := range cust {
		cust[i] = g.AddNode("cust")
	}
	bistro := g.AddNode("restaurant")
	diner := g.AddNode("restaurant")
	bar := g.AddNode("bar")

	friends := [][2]int{{0, 1}, {1, 0}, {2, 1}, {3, 2}, {4, 1}, {5, 4}, {6, 5}, {7, 0}}
	for _, e := range friends {
		g.AddEdge(cust[e[0]], cust[e[1]], "friend")
	}
	for _, i := range []int{0, 1, 2, 4} {
		g.AddEdge(cust[i], bistro, "visit")
	}
	g.AddEdge(cust[3], diner, "visit")
	g.AddEdge(cust[5], bar, "visit")

	pred := core.Predicate{
		XLabel:    syms.Intern("cust"),
		EdgeLabel: syms.Intern("visit"),
		YLabel:    syms.Intern("restaurant"),
	}

	// R1: x -friend-> y1, y1 -visit-> restaurant  ⇒  visit(x, restaurant)
	q1 := pattern.New(syms)
	x := q1.AddNode("cust")
	q1.X = x
	f := q1.AddNode("cust")
	r := q1.AddNode("restaurant")
	q1.AddEdge(x, f, "friend")
	q1.AddEdge(f, r, "visit")
	r1 := &core.Rule{Q: q1, Pred: pred}

	// R2: x -friend-> y1  ⇒  visit(x, restaurant)
	q2 := pattern.New(syms)
	x2 := q2.AddNode("cust")
	q2.X = x2
	f2 := q2.AddNode("cust")
	q2.AddEdge(x2, f2, "friend")
	r2 := &core.Rule{Q: q2, Pred: pred}

	for i, r := range []*core.Rule{r1, r2} {
		if err := r.Validate(); err != nil {
			t.Fatalf("fixture rule %d: %v", i, err)
		}
	}
	return g, pred, []*core.Rule{r1, r2}
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server, []*core.Rule) {
	t.Helper()
	g, pred, rules := fixture(t)
	s := New(cfg)
	if err := s.LoadSnapshot(g, pred, rules); err != nil {
		t.Fatalf("LoadSnapshot: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts, rules
}

func doJSON(t *testing.T, method, url string, body []byte, out any) int {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("%s %s: bad JSON %q: %v", method, url, data, err)
		}
	}
	return resp.StatusCode
}

func TestEndpointsRoundTrip(t *testing.T) {
	s, ts, rules := newTestServer(t, Config{Workers: 2})

	var health map[string]any
	if code := doJSON(t, "GET", ts.URL+"/healthz", nil, &health); code != 200 {
		t.Fatalf("healthz: %d", code)
	}
	if health["status"] != "ok" {
		t.Fatalf("healthz status %v", health["status"])
	}

	var rl RulesResponse
	if code := doJSON(t, "GET", ts.URL+"/v1/rules", nil, &rl); code != 200 {
		t.Fatalf("rules: %d", code)
	}
	if len(rl.Rules) != 2 || rl.Generation != 1 {
		t.Fatalf("rules response: %+v", rl)
	}
	for i, ri := range rl.Rules {
		if ri.Key != rules[i].Key() {
			t.Errorf("rule %d key %q, want %q", i, ri.Key, rules[i].Key())
		}
	}

	var idr IdentifyResponse
	if code := doJSON(t, "POST", ts.URL+"/v1/identify", []byte(`{"eta":1.0,"includeMatches":true}`), &idr); code != 200 {
		t.Fatalf("identify: %d", code)
	}
	if len(idr.Rules) != 2 || idr.Generation != 1 {
		t.Fatalf("identify response: %+v", idr)
	}

	// Oracle: the eip package's algorithm Match on the same inputs.
	g, _, oracleRules := fixture(t)
	want, err := eip.Match(g, oracleRules, eip.Options{N: 2, Eta: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(idr.Identified, want.Identified) {
		t.Errorf("identified %v, want %v", idr.Identified, want.Identified)
	}
	for i, pr := range want.PerRule {
		if idr.Rules[i].SuppR != pr.Stats.SuppR || idr.Rules[i].Matches != len(pr.QSet) {
			t.Errorf("rule %d: suppR=%d matches=%d, want suppR=%d matches=%d",
				i, idr.Rules[i].SuppR, idr.Rules[i].Matches, pr.Stats.SuppR, len(pr.QSet))
		}
	}

	// Selecting by key and by index returns the same single-rule answer.
	byKey, byIx := IdentifyResponse{}, IdentifyResponse{}
	doJSON(t, "POST", ts.URL+"/v1/identify", []byte(fmt.Sprintf(`{"rules":[%q]}`, rules[0].Key())), &byKey)
	doJSON(t, "POST", ts.URL+"/v1/identify", []byte(`{"indices":[0]}`), &byIx)
	if !reflect.DeepEqual(byKey.Identified, byIx.Identified) || len(byKey.Rules) != 1 {
		t.Errorf("key/index selection mismatch: %+v vs %+v", byKey, byIx)
	}

	if code := doJSON(t, "POST", ts.URL+"/v1/identify", []byte(`{"rules":["nope"]}`), nil); code != 404 {
		t.Errorf("unknown key: %d, want 404", code)
	}
	if code := doJSON(t, "POST", ts.URL+"/v1/identify", []byte(`{"indices":[9]}`), nil); code != 404 {
		t.Errorf("bad index: %d, want 404", code)
	}
	if code := doJSON(t, "POST", ts.URL+"/v1/identify", []byte(`{bad json`), nil); code != 400 {
		t.Errorf("bad body: %d, want 400", code)
	}
	_ = s
}

func TestCacheHitAndSwapInvalidation(t *testing.T) {
	s, ts, rules := newTestServer(t, Config{Workers: 2})

	var first, second IdentifyResponse
	doJSON(t, "POST", ts.URL+"/v1/identify", []byte(`{}`), &first)
	doJSON(t, "POST", ts.URL+"/v1/identify", []byte(`{}`), &second)
	for i := range second.Rules {
		if first.Rules[i].Cached {
			t.Errorf("first call rule %d unexpectedly cached", i)
		}
		if !second.Rules[i].Cached {
			t.Errorf("second call rule %d not cached", i)
		}
	}
	var st StatsResponse
	doJSON(t, "GET", ts.URL+"/stats", nil, &st)
	if st.Cache.Hits < int64(len(rules)) {
		t.Errorf("cache hits %d, want >= %d", st.Cache.Hits, len(rules))
	}
	// The kernel block counts the first call's evaluations only: a hit
	// builds nothing.
	snap := s.Snapshot()
	centres := int64(len(rules) * len(snap.G.NodesWithLabel(snap.Pred.XLabel)))
	matches := int64(0)
	for _, r := range first.Rules {
		matches += int64(r.Matches)
	}
	if k := st.Kernel; k.Centres != centres || k.Matches != matches || k.Survivors < k.Matches || k.Survivors > k.Centres {
		t.Errorf("kernel counts %+v, want %d centres, %d matches and survivors between", k, centres, matches)
	}

	// Hot-swap the rule set to just rule 0 via the wire format round-trip.
	var buf bytes.Buffer
	if err := core.WriteRules(&buf, rules[:1]); err != nil {
		t.Fatal(err)
	}
	var swap map[string]any
	if code := doJSON(t, "PUT", ts.URL+"/v1/rules", buf.Bytes(), &swap); code != 200 {
		t.Fatalf("swap: %d (%v)", code, swap)
	}
	if gen := s.Generation(); gen != 2 {
		t.Fatalf("generation %d after swap, want 2", gen)
	}

	// The swap keeps the graph: rule 0's evaluation crosses to generation 2
	// and answers from the cache; rule 1's is dropped with its rule.
	var third IdentifyResponse
	doJSON(t, "POST", ts.URL+"/v1/identify", []byte(`{}`), &third)
	if len(third.Rules) != 1 {
		t.Fatalf("post-swap rule count %d, want 1", len(third.Rules))
	}
	if !third.Rules[0].Cached || third.Rules[0].Matches != first.Rules[0].Matches {
		t.Errorf("post-swap identify of the kept rule: cached %v, %d matches; want cached, %d",
			third.Rules[0].Cached, third.Rules[0].Matches, first.Rules[0].Matches)
	}
	if third.Generation != 2 {
		t.Errorf("post-swap generation %d, want 2", third.Generation)
	}
	doJSON(t, "GET", ts.URL+"/stats", nil, &st)
	if st.Cache.Entries != 1 || st.Cache.Purges != 1 || st.Kernel.Centres != centres {
		t.Errorf("after the swap: cache %+v, kernel %+v; want the kept rule's entry alone, one purge, no evaluation",
			st.Cache, st.Kernel)
	}
	// Swapping back keeps rule 0 cached; rule 1 is new to the last Σ.
	if _, err := s.SwapRules(rules); err != nil {
		t.Fatal(err)
	}
	doJSON(t, "POST", ts.URL+"/v1/identify", []byte(`{}`), &third)
	if len(third.Rules) != 2 || !third.Rules[0].Cached || third.Rules[1].Cached || third.Rules[1].Matches != first.Rules[1].Matches {
		t.Errorf("identify after swapping back: %+v; want rule 0 cached, rule 1 evaluated afresh", third.Rules)
	}
}

// TestOversizedBodiesAnswer413: every endpoint with a body bounds it; a
// longer one is refused before it is buffered, and changes nothing.
func TestOversizedBodiesAnswer413(t *testing.T) {
	s, _, _ := newTestServer(t, Config{Workers: 2})
	for _, c := range []struct {
		method, path, prefix string
		limit                int
	}{
		{"POST", "/v1/graph/delta", `{"ops":[{"op":"addNode","label":"`, maxDeltaBody},
		{"POST", "/v1/identify", `{"rules":["`, maxQueryBody},
		{"POST", "/v1/mine", `{"xLabel":"`, maxQueryBody},
		{"PUT", "/v1/rules", "rule\npred \"", maxRulesBody},
	} {
		body := append([]byte(c.prefix), bytes.Repeat([]byte("a"), c.limit)...)
		// In-process: over a socket the server may close on a client still writing.
		if code := doLocal(t, s.Handler(), c.method, c.path, body, nil); code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s %s with %d bytes: %d, want 413", c.method, c.path, len(body), code)
		}
	}
	if gen := s.Generation(); gen != 1 {
		t.Errorf("generation %d after refused bodies, want 1", gen)
	}
	if n := len(s.jobs.List()); n != 0 {
		t.Errorf("%d mine jobs registered by a refused body", n)
	}
}

// TestPutRulesBoundsMultiplicity: a rule whose antecedent would expand to
// two billion nodes is refused with 400 before any identify can expand it,
// and the generation and the served Σ stay as they were.
func TestPutRulesBoundsMultiplicity(t *testing.T) {
	s, ts, rules := newTestServer(t, Config{Workers: 2})
	body := `rule
pred "cust" "visit" "restaurant"
node 0 "cust" 1 x
node 1 "cust" 2000000000 -
edge 0 1 "friend"
end
`
	if code := doJSON(t, "PUT", ts.URL+"/v1/rules", []byte(body), nil); code != http.StatusBadRequest {
		t.Fatalf("PUT of a huge multiplicity: %d, want 400", code)
	}
	if gen := s.Generation(); gen != 1 {
		t.Errorf("generation %d after a refused rule set, want 1", gen)
	}
	var rl RulesResponse
	doJSON(t, "GET", ts.URL+"/v1/rules", nil, &rl)
	if len(rl.Rules) != len(rules) {
		t.Fatalf("served Σ has %d rules after a refused rule set, want %d", len(rl.Rules), len(rules))
	}
	for i, ri := range rl.Rules {
		if ri.Key != rules[i].Key() {
			t.Errorf("rule %d key %q after a refused rule set, want %q", i, ri.Key, rules[i].Key())
		}
	}
}

func TestIdentifyCoalescesConcurrentDuplicates(t *testing.T) {
	// Admission is off (MaxQueue < 0) so every client reaches the memo
	// while the leader is held up.
	s, ts, _ := newTestServer(t, Config{Workers: 2, PoolSize: 2, MaxQueue: -1})

	// Hold every pool slot: the first request to miss the cache becomes the
	// leader and blocks inside its evaluation until the slots come back.
	for i := 0; i < s.pool.Size(); i++ {
		s.pool.sem <- struct{}{}
	}
	const clients = 32
	var wg sync.WaitGroup
	responses := make([]IdentifyResponse, clients)
	codes := make([]int, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			codes[i] = doJSON(t, "POST", ts.URL+"/v1/identify", []byte(`{"indices":[0]}`), &responses[i])
		}(i)
	}
	waitCoalesced(t, s.cache, clients-1) // everyone else is parked behind the leader
	for i := 0; i < s.pool.Size(); i++ {
		<-s.pool.sem
	}
	wg.Wait()

	for i := range responses {
		if codes[i] != 200 {
			t.Fatalf("client %d: status %d", i, codes[i])
		}
		if !reflect.DeepEqual(responses[i].Identified, responses[0].Identified) {
			t.Fatalf("client %d got a different answer", i)
		}
	}
	var st StatsResponse
	doJSON(t, "GET", ts.URL+"/stats", nil, &st)
	if st.Batch.Executions != 1 || st.Batch.Coalesced != clients-1 {
		t.Errorf("batch stats %+v, want 1 execution and %d coalesced", st.Batch, clients-1)
	}
}

func TestConcurrentMixedLoad(t *testing.T) {
	_, ts, rules := newTestServer(t, Config{Workers: 3})

	const clients = 32
	var wg sync.WaitGroup
	errs := make(chan error, clients*4)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for rep := 0; rep < 3; rep++ {
				var idr IdentifyResponse
				body := []byte(fmt.Sprintf(`{"indices":[%d],"eta":1.0}`, i%len(rules)))
				if code := doJSON(t, "POST", ts.URL+"/v1/identify", body, &idr); code != 200 {
					errs <- fmt.Errorf("identify: %d", code)
				}
				if code := doJSON(t, "GET", ts.URL+"/v1/rules", nil, &RulesResponse{}); code != 200 {
					errs <- fmt.Errorf("rules: %d", code)
				}
				if code := doJSON(t, "GET", ts.URL+"/stats", nil, &StatsResponse{}); code != 200 {
					errs <- fmt.Errorf("stats: %d", code)
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestMineJobAndInstall(t *testing.T) {
	s, ts, _ := newTestServer(t, Config{Workers: 2})

	var job Job
	body := []byte(`{"xLabel":"cust","edgeLabel":"visit","yLabel":"restaurant",
		"k":3,"sigma":1,"d":2,"maxEdges":1,"cap":20,"install":true}`)
	if code := doJSON(t, "POST", ts.URL+"/v1/mine", body, &job); code != http.StatusAccepted {
		t.Fatalf("mine: %d", code)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		var st Job
		doJSON(t, "GET", ts.URL+"/v1/jobs/"+job.ID, nil, &st)
		if st.Status == JobDone {
			if !st.Installed || st.Generation != 2 {
				t.Fatalf("job not installed: %+v", st)
			}
			break
		}
		if st.Status == JobFailed {
			t.Fatalf("job failed: %s", st.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", st.Status)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if s.Generation() != 2 {
		t.Fatalf("generation %d after install, want 2", s.Generation())
	}
	var rl RulesResponse
	doJSON(t, "GET", ts.URL+"/v1/rules", nil, &rl)
	if len(rl.Rules) == 0 {
		t.Fatal("no rules after installing a mine job")
	}

	// Unknown labels and parameters outside their ranges are rejected up
	// front, without starting a job.
	var before, after []Job
	doJSON(t, "GET", ts.URL+"/v1/jobs", nil, &before)
	pred := `"xLabel":"cust","edgeLabel":"visit","yLabel":"restaurant"`
	for _, bad := range []string{
		`"xLabel":"cust","edgeLabel":"visit","yLabel":"starship"`,
		pred + `,"lambda":1.5`, pred + `,"lambda":-0.1`, pred + `,"k":-1`,
		pred + `,"sigma":-1`, pred + `,"d":-1`, pred + `,"maxEdges":-1`,
		pred + `,"cap":-1`, pred + `,"timeoutMs":-1`,
	} {
		if code := doJSON(t, "POST", ts.URL+"/v1/mine", []byte("{"+bad+"}"), nil); code != 400 {
			t.Errorf("mine {%s}: %d, want 400", bad, code)
		}
	}
	if doJSON(t, "GET", ts.URL+"/v1/jobs", nil, &after); len(after) != len(before) {
		t.Errorf("%d mine jobs registered by refused requests", len(after)-len(before))
	}
}

// An omitted lambda mines at gparmine's default of 0.5, and a Go client's
// explicit 0 survives its marshal and the server's decode.
func TestMineLambdaDefault(t *testing.T) {
	s, ts, _ := newTestServer(t, Config{Workers: 2})
	zero, err := json.Marshal(MineParams{XLabel: "cust", EdgeLabel: "visit", YLabel: "restaurant", MaxEdges: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		body []byte
		want float64
	}{
		{[]byte(`{"xLabel":"cust","edgeLabel":"visit","yLabel":"restaurant","maxEdges":1}`), 0.5},
		{zero, 0},
	} {
		var job Job
		if code := doJSON(t, "POST", ts.URL+"/v1/mine", tc.body, &job); code != http.StatusAccepted {
			t.Fatalf("mine %s: %d", tc.body, code)
		}
		if job.Params.Lambda != tc.want {
			t.Errorf("mine %s: lambda %v, want %v", tc.body, job.Params.Lambda, tc.want)
		}
		waitJobUntil(t, s, job.ID, 10*time.Second, func(j Job) bool { return terminal(j.Status) })
	}
}

func TestGracefulShutdown(t *testing.T) {
	s, ts, _ := newTestServer(t, Config{Workers: 2})

	// Start a job, then shut down: Shutdown must wait for it.
	if _, err := s.StartMine(MineParams{
		XLabel: "cust", EdgeLabel: "visit", YLabel: "restaurant",
		K: 2, Sigma: 1, MaxEdges: 1, Cap: 10,
	}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	for _, job := range s.jobs.List() {
		if job.Status == JobPending || job.Status == JobRunning {
			t.Errorf("job %s still %s after Shutdown", job.ID, job.Status)
		}
	}
	if code := doJSON(t, "POST", ts.URL+"/v1/identify", []byte(`{}`), nil); code != http.StatusServiceUnavailable {
		t.Errorf("identify after shutdown: %d, want 503", code)
	}
	if code := doJSON(t, "GET", ts.URL+"/healthz", nil, nil); code != http.StatusServiceUnavailable {
		t.Errorf("healthz after shutdown: %d, want 503", code)
	}
}

func TestLoadSnapshotValidation(t *testing.T) {
	g, pred, rules := fixture(t)
	s := New(Config{})
	if err := s.LoadSnapshot(nil, pred, nil); err == nil {
		t.Error("nil graph accepted")
	}
	other := pred
	other.EdgeLabel = g.Symbols().Intern("dislike")
	if err := s.LoadSnapshot(g, other, rules); err == nil {
		t.Error("predicate mismatch accepted")
	}
	if _, err := s.SwapRules(rules); err == nil {
		t.Error("SwapRules before LoadSnapshot accepted")
	}
	if err := s.LoadSnapshot(g, pred, rules); err != nil {
		t.Fatalf("valid LoadSnapshot: %v", err)
	}
	// Empty rule set is allowed (serve-then-mine startup), identify 409s.
	if gen, err := s.SwapRules(nil); err != nil || gen != 2 {
		t.Fatalf("empty SwapRules: gen %d, err %v", gen, err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if code := doJSON(t, "POST", ts.URL+"/v1/identify", []byte(`{}`), nil); code != http.StatusConflict {
		t.Errorf("identify with empty Σ: %d, want 409", code)
	}
}

func TestNonFiniteConfidenceMarshals(t *testing.T) {
	// A rule whose antecedent never contradicts the consequent has conf
	// +Inf (the logic-rule trivial case); the response must stay valid JSON.
	for want, v := range map[string]float64{
		`"+Inf"`: math.Inf(1),
		`"-Inf"`: math.Inf(-1),
		`"NaN"`:  math.NaN(),
		`1.5`:    1.5,
	} {
		data, err := json.Marshal(jsonFloat(v))
		if err != nil {
			t.Fatalf("marshal %v: %v", v, err)
		}
		if string(data) != want {
			t.Errorf("marshal %v = %s, want %s", v, data, want)
		}
	}
}

// TestUnionSorted checks unionSorted against a map and a sort on random
// sorted lists: empty and nil ones, the bitset's word edges 0, 63 and 64,
// and IDs past a frozen graph's NumNodes, which an overlay's nodes get.
func TestUnionSorted(t *testing.T) {
	g, _, _ := fixture(t)
	n := graph.NodeID(g.NumNodes())
	cases := [][][]graph.NodeID{
		nil,
		{nil},
		{{}},
		{nil, {}},
		{{0}},
		{{63}, {64}},
		{{0, 63, 64}, {63, 64, 65, 127, 128}},
		{{0, n - 1}, {n, n + 64}, nil},
	}
	rng := rand.New(rand.NewSource(1))
	for range 500 {
		lists := make([][]graph.NodeID, rng.Intn(5))
		for i := range lists {
			hi := []int{1, 64, 65, 200, 5000}[rng.Intn(5)]
			for v := range hi {
				if rng.Intn(4) == 0 {
					lists[i] = append(lists[i], graph.NodeID(v))
				}
			}
		}
		cases = append(cases, lists)
	}
	for _, lists := range cases {
		set := map[graph.NodeID]bool{}
		for _, l := range lists {
			for _, v := range l {
				set[v] = true
			}
		}
		want := []graph.NodeID{}
		for v := range set {
			want = append(want, v)
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		got := unionSorted(lists)
		if got == nil || !slices.Equal(got, want) {
			t.Fatalf("unionSorted(%v) = %#v, want %v", lists, got, want)
		}
		if len(lists) == 1 && len(got) > 0 && &got[0] != &lists[0][0] {
			t.Fatalf("unionSorted copied its one list %v", lists[0])
		}
	}
}

// TestIdentifyResponseShape checks the identify answer's form: a single
// applied rule that matched nothing answers "identified":[], not null; a
// single applied rule answers exactly its resident match set; and the body
// is one line of compact JSON.
func TestIdentifyResponseShape(t *testing.T) {
	g, pred, rules := fixture(t)
	q := pattern.New(g.Symbols())
	q.X = q.AddNode("cust")
	q.AddEdge(q.X, q.AddNode("bar"), "friend") // no customer befriends a bar
	none := &core.Rule{Q: q, Pred: pred}
	s := New(Config{Workers: 2})
	if err := s.LoadSnapshot(g, pred, append(rules, none)); err != nil {
		t.Fatal(err)
	}
	// The answer without conf, which is "+Inf" for the rule without matches.
	type answer struct {
		Identified []graph.NodeID
		Rules      []struct {
			Matches int
			Applied bool
		}
	}
	post := func(body string) (answer, []byte) {
		t.Helper()
		var resp answer
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/v1/identify", strings.NewReader(body)))
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); rec.Code != http.StatusOK || err != nil {
			t.Fatalf("identify %s: %d %s", body, rec.Code, rec.Body.Bytes())
		}
		if b := rec.Body.Bytes(); bytes.IndexByte(b, '\n') != len(b)-1 {
			t.Fatalf("identify %s: body is not one line:\n%s", body, b)
		}
		return resp, rec.Body.Bytes()
	}

	resp, body := post(fmt.Sprintf(`{"rules":[%q]}`, none.Key()))
	if r := resp.Rules[0]; !r.Applied || r.Matches != 0 || !bytes.Contains(body, []byte(`"identified":[]`)) {
		t.Fatalf("an applied rule without matches answered %s", body)
	}
	snap := s.Snapshot()
	for _, sr := range snap.Rules[:2] {
		resp, body := post(fmt.Sprintf(`{"rules":[%q],"eta":1e-9}`, sr.Key))
		ev, cached, _, err := s.identifyOne(snap, sr)
		if err != nil || !cached || len(ev.Matches) == 0 || !resp.Rules[0].Applied {
			t.Fatalf("rule %s: cached %v, %d matches, err %v; answer %s", sr.Key, cached, len(ev.Matches), err, body)
		}
		if !slices.Equal(resp.Identified, ev.Matches) {
			t.Errorf("rule %s identified %v, its match set is %v", sr.Key, resp.Identified, ev.Matches)
		}
	}
	post(`{}`) // the whole Σ: a union of three lists, one of them empty
}

// TestRequestBodiesAreStrict checks that identify, mine and delta refuse a
// body with a field their request type lacks, or with data after the JSON
// value, with 400 and no effect: no evaluation, no job, no generation.
func TestRequestBodiesAreStrict(t *testing.T) {
	s, _, rules := newTestServer(t, Config{Workers: 2})
	key := rules[0].Key()
	for _, c := range []struct{ path, body string }{
		{"/v1/identify", fmt.Sprintf(`{"rule":[%q]}`, key)},
		{"/v1/identify", fmt.Sprintf(`{"rules":[%q]}garbage`, key)},
		{"/v1/graph/delta", `{"ops":[{"op":"addNode","label":"island"}]}{"ops":[]}`},
		{"/v1/mine", `{"xLabel":"cust","edgeLabel":"visit","yLabel":"restaurant","maxEdge":2}`},
	} {
		if code := doLocal(t, s.Handler(), "POST", c.path, []byte(c.body), nil); code != http.StatusBadRequest {
			t.Errorf("POST %s %s: %d, want 400", c.path, c.body, code)
		}
	}
	if st, _ := s.cacheStats(); st.Hits+st.Misses != 0 || s.Generation() != 1 || len(s.jobs.List()) != 0 {
		t.Fatalf("refused bodies had effects: %d cache reads, generation %d, %d jobs",
			st.Hits+st.Misses, s.Generation(), len(s.jobs.List()))
	}
	// A mine job's width is the mine gate's, not the caller's: "workers" is
	// an unknown field, and the answer names it.
	var refused struct{ Error string }
	body := []byte(`{"xLabel":"cust","edgeLabel":"visit","yLabel":"restaurant","workers":2}`)
	if code := doLocal(t, s.Handler(), "POST", "/v1/mine", body, &refused); code != http.StatusBadRequest ||
		!strings.Contains(refused.Error, `unknown field "workers"`) {
		t.Errorf("mine with workers: %d %q, want 400 naming the field", code, refused.Error)
	}
	// White space after the value is not data.
	if code := doLocal(t, s.Handler(), "POST", "/v1/identify", []byte(fmt.Sprintf("{\"rules\":[%q]}\r\n\t ", key)), nil); code != http.StatusOK {
		t.Errorf("identify with trailing white space: %d, want 200", code)
	}
}

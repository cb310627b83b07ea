package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"gpar/internal/core"
	"gpar/internal/graph"
	"gpar/internal/pattern"
)

// splicedAnswer is the part of an identify answer made of spliced arrays,
// kept as the bytes the server wrote.
type splicedAnswer struct {
	Identified json.RawMessage
	Rules      []struct {
		Key   string
		Nodes json.RawMessage
	}
}

// postIdentify answers body through h and returns the answer's arrays.
func postIdentify(t *testing.T, h http.Handler, body string) splicedAnswer {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/identify", strings.NewReader(body)))
	var a splicedAnswer
	if err := json.Unmarshal(rec.Body.Bytes(), &a); rec.Code != http.StatusOK || err != nil {
		t.Fatalf("identify %s: %d %s", body, rec.Code, rec.Body.Bytes())
	}
	return a
}

// sameJSON fails t unless got is exactly what json.NewEncoder writes for ids.
func sameJSON(t *testing.T, what string, got json.RawMessage, ids []graph.NodeID) {
	t.Helper()
	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(ids); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, bytes.TrimSuffix(want.Bytes(), []byte("\n"))) {
		t.Errorf("%s: answered %s, encoding/json writes %s", what, got, want.Bytes())
	}
}

// TestRepairedEvaluationBytes: a delta batch that repairs a resident
// evaluation whose matches change must answer the repaired matches, never
// the bytes encoded before the batch, and an evaluation repaired with its
// matches unchanged keeps the bytes it had.
func TestRepairedEvaluationBytes(t *testing.T) {
	s, ts, _ := newTestServer(t, Config{Workers: 2})
	h := s.Handler()
	snap := s.Snapshot()
	postIdentify(t, h, `{"includeMatches":true}`) // evaluates and encodes both rules
	before := make([]*RuleEval, len(snap.Rules))
	for i, sr := range snap.Rules {
		before[i], _ = s.cache.Get(evalKey{snap.Gen, sr.Key})
	}

	// Cust 6 befriends cust 4, who visits the bistro: R1 gains cust 6; R2,
	// which already matches every cust, is repaired to the same set.
	code, dr := deltaJSON(t, ts.URL, `{"ops":[{"op":"addEdge","from":6,"to":4,"label":"friend"}]}`)
	if code != http.StatusAccepted || dr.RulesRepaired != 2 || dr.RulesInvalidated != 0 {
		t.Fatalf("friend delta: %d %+v", code, dr)
	}
	checkResident(t, s)
	next := s.Snapshot()
	after := make([]*RuleEval, len(next.Rules))
	for i, sr := range next.Rules {
		after[i], _ = s.cache.Get(evalKey{next.Gen, sr.Key})
		if after[i] == nil || after[i] == before[i] {
			t.Fatalf("rule %d: %p before the batch, %p after; want a repaired copy", i, before[i], after[i])
		}
	}
	if slices.Equal(before[0].Matches, after[0].Matches) || !slices.Equal(before[1].Matches, after[1].Matches) {
		t.Fatalf("R1 %v → %v, R2 %v → %v; want R1's set changed and R2's kept",
			before[0].Matches, after[0].Matches, before[1].Matches, after[1].Matches)
	}
	if b, a := before[1].encoded(), after[1].encoded(); &a[0] != &b[0] {
		t.Errorf("R2's repaired copy encoded its unchanged matches again")
	}

	for i, sr := range next.Rules {
		a := postIdentify(t, h, fmt.Sprintf(`{"rules":[%q],"eta":1e-9,"includeMatches":true}`, sr.Key))
		sameJSON(t, fmt.Sprintf("rule %d identified", i), a.Identified, after[i].Matches)
		sameJSON(t, fmt.Sprintf("rule %d nodes", i), a.Rules[0].Nodes, after[i].Matches)
	}
	a := postIdentify(t, h, `{"eta":1e-9,"includeMatches":true}`)
	for i, r := range a.Rules {
		sameJSON(t, fmt.Sprintf("Σ, rule %d nodes", i), r.Nodes, after[i].Matches)
	}
	sameJSON(t, "Σ identified", a.Identified, unionSorted([][]graph.NodeID{after[0].Matches, after[1].Matches}))
}

// tagFixture is a graph whose custs 0–4 visit a restaurant (Pq), cust 5 a
// bar (q̄) and custs 6–9 nothing, with single-edge rules x -tag-> t for the
// tags a, b and c, whose confidences are 1, 0.6 and 0.8: η = 0.8 applies
// a and c, η = 0.6 all three, and the two unions differ in cust 7.
func tagFixture(t *testing.T) (*graph.Graph, core.Predicate, []*core.Rule) {
	t.Helper()
	syms := graph.NewSymbols()
	g := graph.New(syms)
	cust := make([]graph.NodeID, 10)
	for i := range cust {
		cust[i] = g.AddNode("cust")
	}
	restaurant, bar := g.AddNode("restaurant"), g.AddNode("bar")
	for i := range 5 {
		g.AddEdge(cust[i], restaurant, "visit")
	}
	g.AddEdge(cust[5], bar, "visit")
	pred := core.Predicate{XLabel: syms.Intern("cust"), EdgeLabel: syms.Intern("visit"), YLabel: syms.Intern("restaurant")}
	var rules []*core.Rule
	for _, tag := range []struct {
		name   string
		tagged []int
	}{{"a", []int{0, 1, 2, 3, 4, 5, 6}}, {"b", []int{0, 1, 2, 5, 7}}, {"c", []int{0, 1, 2, 3, 5, 8}}} {
		v := g.AddNode("tag:" + tag.name) // a is node 12
		for _, i := range tag.tagged {
			g.AddEdge(cust[i], v, "tag")
		}
		q := pattern.New(syms)
		q.X = q.AddNode("cust")
		q.AddEdge(q.X, q.AddNode("tag:"+tag.name), "tag")
		rules = append(rules, &core.Rule{Q: q, Pred: pred})
	}
	return g, pred, rules
}

// TestUnionSlot pins the memoised union of Σ's applied evaluations: every
// whole-Σ answer equals unionSorted over freshly evaluated reference sets,
// whether the slot hits (the same evaluations: a repeat, or a batch that
// carries every entry) or misses (another η, a batch that repairs an
// applied rule, a swapped rule set).
func TestUnionSlot(t *testing.T) {
	g, pred, rules := tagFixture(t)
	s := New(Config{Workers: 2})
	if err := s.LoadSnapshot(g, pred, rules); err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	// check answers Σ at η and compares it with the reference.
	check := func(eta float64, wantApplied int) {
		t.Helper()
		a := postIdentify(t, h, fmt.Sprintf(`{"eta":%v}`, eta))
		snap := s.Snapshot()
		var lists [][]graph.NodeID
		for _, sr := range snap.Rules {
			if ev := snap.EvalRule(sr, s.pool); ev.Conf >= eta {
				lists = append(lists, ev.Matches)
			}
		}
		if len(lists) != wantApplied {
			t.Fatalf("η = %v applies %d rules, want %d", eta, len(lists), wantApplied)
		}
		sameJSON(t, fmt.Sprintf("generation %d, η = %v", snap.Gen, eta), a.Identified, unionSorted(lists))
	}
	for range 3 {
		check(0.8, 2)
		check(0.6, 3)
	}
	slot := s.union.Load()
	check(0.6, 3)
	if s.union.Load() != slot {
		t.Fatal("a repeat answer replaced the union slot")
	}

	var dr DeltaResponse
	body := `{"ops":[{"op":"addNode","label":"island"}]}`
	if code := doLocal(t, h, "POST", "/v1/graph/delta", []byte(body), &dr); code != http.StatusAccepted ||
		dr.RulesCarried != 3 || dr.RulesRepaired != 0 {
		t.Fatalf("island delta: %d %+v", code, dr)
	}
	check(0.6, 3)
	if s.union.Load() != slot {
		t.Fatal("a batch that carries every entry cost the union slot its hit")
	}

	// Cust 9 gets tag a: the applied rule a is repaired, so the slot misses.
	body = `{"ops":[{"op":"addEdge","from":9,"to":12,"label":"tag"}]}`
	if code := doLocal(t, h, "POST", "/v1/graph/delta", []byte(body), &dr); code != http.StatusAccepted || dr.RulesRepaired == 0 {
		t.Fatalf("tag delta: %d %+v", code, dr)
	}
	check(0.6, 3)
	if u := s.union.Load(); u == slot || !slices.Contains(u.ids, 9) {
		t.Fatal("a repaired applied rule kept the union slot")
	}

	// Σ becomes {b, c}: the answer is the new evaluations' union.
	var text bytes.Buffer
	if err := core.WriteRules(&text, rules[1:]); err != nil {
		t.Fatal(err)
	}
	if code := doLocal(t, h, "PUT", "/v1/rules", text.Bytes(), nil); code != http.StatusOK {
		t.Fatalf("PUT /v1/rules: %d", code)
	}
	check(0.6, 2)
	snap := s.Snapshot()
	for i, ev := range s.union.Load().evs {
		if cur, _ := s.cache.Get(evalKey{snap.Gen, snap.Rules[i].Key}); ev != cur {
			t.Errorf("after the swap the union slot holds %p for rule %d, the generation's evaluation is %p", ev, i, cur)
		}
	}
	check(0.8, 1)
}

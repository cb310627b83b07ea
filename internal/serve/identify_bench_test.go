package serve

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"gpar/internal/core"
	"gpar/internal/gen"
	"gpar/internal/graph"
)

// supportedRules returns the first Pokec predicate with support in g and
// count rules generated for it. It finds the predicate by generating —
// gen.Rules yields nothing for an unsupported one — because a core.Pq probe
// would freeze g first, and the rules a seed yields are sampled from the
// adjacency order gen.Rules finds: insertion order here, which is what the
// recorded benchmark numbers and the oracle fixtures are for.
func supportedRules(tb testing.TB, g *graph.Graph, count int) (core.Predicate, []*core.Rule) {
	tb.Helper()
	for _, pred := range gen.PokecPredicates(g.Symbols()) {
		rules := gen.Rules(g, pred, gen.RuleGenParams{Count: count, VP: 3, EP: 3, Seed: 1})
		if len(rules) > 0 {
			return pred, rules
		}
	}
	tb.Fatal("no supported predicate in generated graph")
	return core.Predicate{}, nil
}

// benchRuleKeys pins benchSnapshot's rule set (Rule.Key of each, in order),
// so BenchmarkIdentify, BenchmarkIdentifyWithOverlay and BenchmarkDeltaApply keep
// measuring the rules BENCH_match.json was recorded with.
const benchRuleKeys = "e6f4c0836a66ebfa207cf754 4301faa53645b130fad395dc 6bbc36648ded148bfc65571b 96e330d8703c6e2aee22ae5f"

// benchSnapshot builds the Pokec-like serving fixture used by the identify
// acceptance benchmark: a generated social graph, a handful of mined-shape
// rules, and a snapshot with the default worker layout.
func benchSnapshot(b *testing.B) (*Snapshot, []*ServedRule, *Pool) {
	b.Helper()
	syms := graph.NewSymbols()
	g := gen.Pokec(syms, gen.DefaultPokec(1500, 1))
	pred, rules := supportedRules(b, g, 4)
	snap, err := BuildSnapshot(g, pred, rules, Config{Workers: 4})
	if err != nil {
		b.Fatalf("BuildSnapshot: %v", err)
	}
	keys := make([]string, len(snap.Rules))
	for i, r := range snap.Rules {
		keys[i] = r.Key
	}
	if got := strings.Join(keys, " "); got != benchRuleKeys {
		b.Fatalf("fixture rule keys moved:\n got %s\nwant %s", got, benchRuleKeys)
	}
	return snap, snap.Rules, NewPool(4)
}

// BenchmarkIdentify is the acceptance benchmark for the steady-state
// /v1/identify path: one uncached EvalRule per iteration over the resident
// snapshot, cycling through the rule set. Recorded in BENCH_match.json by
// `make bench`.
func BenchmarkIdentify(b *testing.B) {
	snap, rules, pool := benchSnapshot(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap.EvalRule(rules[i%len(rules)], pool)
	}
}

// BenchmarkIdentifyHandler is the identify response path on a warm cache:
// POST /v1/identify through Server.Handler() on benchSnapshot's fixture
// with every rule already evaluated, so what remains is HTTP decode,
// admission, the cache read, the union and the JSON encode. single asks
// for one rule, whole for Σ (all four rules clear the default η). Recorded
// in BENCH_match.json by `make bench`.
func BenchmarkIdentifyHandler(b *testing.B) {
	snap, served, _ := benchSnapshot(b)
	rules := make([]*core.Rule, len(served))
	for i, sr := range served {
		rules[i] = sr.Rule
	}
	s := New(Config{Workers: 4})
	if err := s.LoadSnapshot(snap.G, snap.Pred, rules); err != nil {
		b.Fatal(err)
	}
	h := s.Handler()
	for _, c := range []struct{ name, body string }{
		{"single", fmt.Sprintf(`{"rules":[%q]}`, served[0].Key)},
		{"whole", `{}`},
	} {
		b.Run(c.name, func(b *testing.B) {
			body := []byte(c.body)
			post := func() {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/identify", bytes.NewReader(body)))
				if rec.Code != http.StatusOK {
					b.Fatalf("identify %s: %d %s", body, rec.Code, rec.Body.Bytes())
				}
			}
			post() // fill the cache
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				post()
			}
		})
	}
}

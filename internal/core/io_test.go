package core_test

import (
	"bytes"
	"strings"
	"testing"

	. "gpar/internal/core"
	"gpar/internal/gen"
	"gpar/internal/graph"
)

func TestRuleIORoundTrip(t *testing.T) {
	syms := graph.NewSymbols()
	rules := []*Rule{gen.R1(syms), gen.R4(syms), gen.R5(syms)}
	var buf bytes.Buffer
	if err := WriteRules(&buf, rules); err != nil {
		t.Fatalf("WriteRules: %v", err)
	}
	got, err := ReadRules(&buf, graph.NewSymbols())
	if err != nil {
		t.Fatalf("ReadRules: %v", err)
	}
	if len(got) != len(rules) {
		t.Fatalf("round trip count: %d want %d", len(got), len(rules))
	}
	for i := range rules {
		a, b := rules[i], got[i]
		if a.Q.NumNodes() != b.Q.NumNodes() || a.Q.NumEdges() != b.Q.NumEdges() {
			t.Errorf("rule %d shape changed: (%d,%d) vs (%d,%d)", i,
				a.Q.NumNodes(), a.Q.NumEdges(), b.Q.NumNodes(), b.Q.NumEdges())
		}
		if a.Q.Symbols().Name(a.Pred.EdgeLabel) != b.Q.Symbols().Name(b.Pred.EdgeLabel) {
			t.Errorf("rule %d predicate changed", i)
		}
		// Multiplicity survives (R1 has the French restaurant^3 node).
		for u := 0; u < a.Q.NumNodes(); u++ {
			if a.Q.Mult(u) != b.Q.Mult(u) {
				t.Errorf("rule %d node %d mult %d vs %d", i, u, a.Q.Mult(u), b.Q.Mult(u))
			}
		}
		// Designations survive.
		if (a.Q.X < 0) != (b.Q.X < 0) || (a.Q.Y < 0) != (b.Q.Y < 0) {
			t.Errorf("rule %d designations changed", i)
		}
	}
}

// readRulesErrorInputs are rule texts ReadRules must refuse.
var readRulesErrorInputs = []string{
	"end",                           // end without rule
	"rule\nrule\n",                  // nested
	"rule\npred \"a\" \"b\"\nend",   // bad pred arity
	"rule\nnode 5 \"a\" 1 -\nend",   // non-dense node id
	"rule\nnode 0 \"a\" 1 q\nend",   // bad role
	"rule\nedge 0 1 \"e\"\nend",     // edge before nodes
	"rule\npred \"a\" \"b\" \"c\"",  // unterminated
	"bogus",                         // unknown record
	"rule\nnode 0 \"a\" one -\nend", // bad mult
}

// hugeMult is a rule whose antecedent would expand to two billion nodes.
const hugeMult = "rule\npred \"cust\" \"visit\" \"rest\"\nnode 0 \"cust\" 1 x\nnode 1 \"cust\" 2000000000 -\nedge 0 1 \"friend\"\nend\n"

func TestReadRulesErrors(t *testing.T) {
	for _, c := range readRulesErrorInputs {
		if _, err := ReadRules(strings.NewReader(c), nil); err == nil {
			t.Errorf("ReadRules(%q) succeeded, want error", c)
		}
	}
	// Comments and blank lines pass.
	ok := "# comment\n\nrule\npred \"cust\" \"visit\" \"rest\"\nnode 0 \"cust\" 1 x\nnode 1 \"rest\" 1 y\nedge 0 1 \"like\"\nend\n"
	rules, err := ReadRules(strings.NewReader(ok), nil)
	if err != nil || len(rules) != 1 {
		t.Errorf("valid input rejected: %v", err)
	}
}

func TestReadRulesValidates(t *testing.T) {
	// x label must match the predicate's x label.
	bad := "rule\npred \"cust\" \"visit\" \"rest\"\nnode 0 \"city\" 1 x\nnode 1 \"rest\" 1 -\nedge 0 1 \"e\"\nend\n"
	if _, err := ReadRules(strings.NewReader(bad), nil); err == nil {
		t.Error("mismatched x label accepted")
	}
	if _, err := ReadRules(strings.NewReader(hugeMult), nil); err == nil {
		t.Error("an antecedent expanding to two billion nodes accepted")
	}
}

func TestRuleKeyStability(t *testing.T) {
	// Identical rules share a key across symbol tables; the key survives a
	// serialization round trip (internal/serve caches by it).
	a := gen.R1(graph.NewSymbols())
	b := gen.R1(graph.NewSymbols())
	if a.Key() != b.Key() {
		t.Errorf("identical rules: keys %s vs %s", a.Key(), b.Key())
	}
	var buf bytes.Buffer
	if err := WriteRules(&buf, []*Rule{a}); err != nil {
		t.Fatal(err)
	}
	got, err := ReadRules(&buf, graph.NewSymbols())
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Key() != a.Key() {
		t.Errorf("round trip changed key: %s vs %s", got[0].Key(), a.Key())
	}
	if c := gen.R5(graph.NewSymbols()); c.Key() == a.Key() {
		t.Errorf("distinct rules share key %s", a.Key())
	}
}

// FuzzReadRules pins the rule reader's contract on arbitrary input: it
// never panics, every rule it accepts validates, and an accepted set
// re-serialises to a fixed point — writing it, reading that back and
// writing again yields the same text.
func FuzzReadRules(f *testing.F) {
	for _, s := range readRulesErrorInputs {
		f.Add([]byte(s))
	}
	f.Add([]byte(hugeMult))
	syms := graph.NewSymbols()
	var seed bytes.Buffer
	if err := WriteRules(&seed, []*Rule{gen.R1(syms), gen.R4(syms), gen.R5(syms)}); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		rules, err := ReadRules(bytes.NewReader(data), nil)
		if err != nil {
			return
		}
		for i, r := range rules {
			if err := r.Validate(); err != nil {
				t.Fatalf("accepted rule %d does not validate: %v", i, err)
			}
		}
		var first, second bytes.Buffer
		if err := WriteRules(&first, rules); err != nil {
			t.Fatal(err)
		}
		again, err := ReadRules(bytes.NewReader(first.Bytes()), nil)
		if err != nil {
			t.Fatalf("re-serialisation of an accepted rule set does not read: %v\n%s", err, first.Bytes())
		}
		if err := WriteRules(&second, again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("not a fixed point:\n%s\nvs\n%s", first.Bytes(), second.Bytes())
		}
	})
}

package mine

import (
	"math/rand"
	"testing"

	"gpar/internal/graph"
	"gpar/internal/pattern"
)

// TestExtCodeMatchesIdentity: the packed uint64 extension code used by the
// discovery accumulator collides iff the extensions are equal — over
// in-range extensions, deliberately out-of-range ones (overflow interning),
// and mixtures of the two.
func TestExtCodeMatchesIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	w := &worker{}
	mk := func() pattern.Extension {
		e := pattern.Extension{
			Src:      rng.Intn(5),
			Outgoing: rng.Intn(2) == 0,
		}
		if rng.Intn(8) == 0 {
			// Out of packed range: forces the overflow-interner path.
			e.EdgeLabel = graph.Label(1<<23 + rng.Intn(3))
		} else {
			e.EdgeLabel = graph.Label(rng.Intn(4))
		}
		if rng.Intn(2) == 0 {
			e.Close = rng.Intn(4)
		} else {
			e.Close = pattern.NoNode
			e.NewLabel = graph.Label(rng.Intn(4))
			e.AsY = rng.Intn(4) == 0
		}
		return e
	}
	for i := 0; i < 20000; i++ {
		a, b := mk(), mk()
		codeEq := w.extCode(a) == w.extCode(b)
		if structEq := a == b; codeEq != structEq || codeEq != (a.Compare(b) == 0) {
			t.Fatalf("code/struct identity mismatch: %+v vs %+v: code=%v struct=%v",
				a, b, codeEq, structEq)
		}
	}
}

// TestRuleIDBoundaryForm pins the printable boundary form of interned rule
// ids, including the seed.
func TestRuleIDBoundaryForm(t *testing.T) {
	if got := seedID.String(); got != "seed" {
		t.Errorf("seed id renders %q", got)
	}
	if got := ruleID(7).String(); got != "R00007" {
		t.Errorf("ruleID(7) renders %q", got)
	}
}

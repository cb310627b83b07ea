package pattern

import (
	"math/rand"
	"testing"

	"gpar/internal/graph"
)

// randExt draws extensions from a small enough space that collisions are
// common, so the ⟺ in the identity property is exercised in both
// directions.
func randExt(rng *rand.Rand) Extension {
	e := Extension{
		Src:       rng.Intn(4),
		Outgoing:  rng.Intn(2) == 0,
		EdgeLabel: graph.Label(rng.Intn(3)),
	}
	if rng.Intn(2) == 0 {
		e.Close = rng.Intn(3)
	} else {
		e.Close = NoNode
		e.NewLabel = graph.Label(rng.Intn(3))
		e.AsY = rng.Intn(4) == 0
	}
	return e
}

// TestExtensionIdentityMatchesCompare is the interned-identity property
// test: Compare is a total order consistent with the comparable struct's
// equality (the mining loop's identity).
func TestExtensionIdentityMatchesCompare(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 20000; i++ {
		a, b := randExt(rng), randExt(rng)
		structEq := a == b
		cab, cba := a.Compare(b), b.Compare(a)
		if (cab == 0) != structEq {
			t.Fatalf("Compare==0 disagrees with equality: %+v vs %+v -> %d", a, b, cab)
		}
		if cab != -cba && !(cab == 0 && cba == 0) {
			t.Fatalf("Compare not antisymmetric: %+v vs %+v -> %d, %d", a, b, cab, cba)
		}
	}
	// Transitivity spot check on a sorted sample.
	exts := make([]Extension, 300)
	for i := range exts {
		exts[i] = randExt(rng)
	}
	for i := 0; i < len(exts); i++ {
		for j := i + 1; j < len(exts); j++ {
			for k := j + 1; k < len(exts); k++ {
				a, b, c := exts[i], exts[j], exts[k]
				if a.Compare(b) <= 0 && b.Compare(c) <= 0 && a.Compare(c) > 0 {
					t.Fatalf("Compare not transitive on %+v, %+v, %+v", a, b, c)
				}
			}
		}
	}
}

// TestApplyIntoMatchesApply is the scratch-reuse property test: applying a
// stream of random extensions into one recycled destination must render
// identically to Apply's fresh allocations, including the nil (inapplicable)
// cases, regardless of what the scratch held before.
func TestApplyIntoMatchesApply(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	syms := graph.NewSymbols()
	base := New(syms)
	x := base.AddNodeL(1)
	a := base.AddNodeL(2)
	base.AddEdgeL(x, a, 1)
	base.X = x
	scratch := New(syms)
	for i := 0; i < 5000; i++ {
		ext := randExt(rng)
		fresh := base.Apply(ext)
		reused := base.ApplyInto(scratch, ext)
		switch {
		case (fresh == nil) != (reused == nil):
			t.Fatalf("ext %+v: Apply nil=%v but ApplyInto nil=%v", ext, fresh == nil, reused == nil)
		case fresh != nil && fresh.String() != reused.String():
			t.Fatalf("ext %+v: Apply %s != ApplyInto %s", ext, fresh, reused)
		}
		// Occasionally grow the base so scratch shrinks and grows too.
		if i%1000 == 999 {
			if grown := base.Apply(ext); grown != nil {
				base = grown
			}
		}
	}
}

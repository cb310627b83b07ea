package diversify

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"gpar/internal/graph"
)

func ids(vs ...graph.NodeID) []graph.NodeID { return vs }

func TestDiff(t *testing.T) {
	cases := []struct {
		a, b []graph.NodeID
		want float64
	}{
		{ids(1, 2, 3), ids(1, 2, 3), 0},
		{ids(1, 2), ids(3, 4), 1},
		{ids(1, 2, 3), ids(3, 4, 5), 1 - 1.0/5.0},
		{nil, nil, 0},
		{ids(1), nil, 1},
	}
	for _, c := range cases {
		if got := Diff(c.a, c.b); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Diff(%v,%v) = %v want %v", c.a, c.b, got, c.want)
		}
	}
}

// TestExample8Objective pins Example 8: with λ=0.5, supp(q)=5, supp(q̄)=1,
// the top-2 set {R7, R8} has F = 0.5*0.8/5 + 1*1 = 1.08.
func TestExample8Objective(t *testing.T) {
	p := Params{K: 2, Lambda: 0.5, N: 5 * 1}
	r1 := Entry{ID: 1, Conf: 0.6, Set: ids(1, 2, 3)}
	r7 := Entry{ID: 7, Conf: 0.6, Set: ids(1, 2, 3)}
	r8 := Entry{ID: 8, Conf: 0.2, Set: ids(6)}

	if got := Diff(r1.Set, r7.Set); got != 0 {
		t.Errorf("diff(R1,R7) = %v want 0", got)
	}
	if got := Diff(r7.Set, r8.Set); got != 1 {
		t.Errorf("diff(R7,R8) = %v want 1", got)
	}
	f := F([]Entry{r7, r8}, p)
	if math.Abs(f-1.08) > 1e-9 {
		t.Errorf("F({R7,R8}) = %v want 1.08", f)
	}
	// F' of the same pair, per Example 9's round-2 computation.
	fp := FPrime(r7, r8, p)
	if math.Abs(fp-1.08) > 1e-9 {
		t.Errorf("F'(R7,R8) = %v want 1.08", fp)
	}
	// Greedy on {R1, R7, R8} must pick a diversified pair, value 1.08.
	got := Greedy([]Entry{r1, r7, r8}, p)
	if len(got) != 2 {
		t.Fatalf("Greedy returned %d entries", len(got))
	}
	if math.Abs(F(got, p)-1.08) > 1e-9 {
		t.Errorf("Greedy F = %v want 1.08", F(got, p))
	}
}

// TestExample9RoundOne pins Example 9's round 1: F'(R5,R6) = 0.92.
func TestExample9RoundOne(t *testing.T) {
	p := Params{K: 2, Lambda: 0.5, N: 5}
	r5 := Entry{ID: 5, Conf: 0.8, Set: ids(1, 2, 3, 4)}
	r6 := Entry{ID: 6, Conf: 0.4, Set: ids(4, 6)}
	// diff(R5,R6) = 1 - 1/5 = 0.8.
	if got := Diff(r5.Set, r6.Set); math.Abs(got-0.8) > 1e-9 {
		t.Fatalf("diff(R5,R6) = %v want 0.8", got)
	}
	if got := FPrime(r5, r6, p); math.Abs(got-0.92) > 1e-9 {
		t.Errorf("F'(R5,R6) = %v want 0.92", got)
	}
}

func TestGreedySmallInputs(t *testing.T) {
	p := Params{K: 4, Lambda: 0.5, N: 1}
	if Greedy(nil, p) != nil {
		t.Error("Greedy(nil) should be nil")
	}
	one := []Entry{{ID: 1, Conf: 1}}
	if got := Greedy(one, p); len(got) != 1 {
		t.Errorf("Greedy with fewer entries than k should return all, got %d", len(got))
	}
	if Greedy(one, Params{K: 0}) != nil {
		t.Error("k=0 should select nothing")
	}
}

func TestGreedyOddK(t *testing.T) {
	p := Params{K: 3, Lambda: 0.5, N: 1}
	var es []Entry
	for i := 0; i < 6; i++ {
		es = append(es, Entry{
			ID:   uint32(i),
			Conf: float64(i),
			Set:  ids(graph.NodeID(i)),
		})
	}
	got := Greedy(es, p)
	if len(got) != 3 {
		t.Errorf("odd k: got %d entries want 3", len(got))
	}
}

// TestGreedyApproximation: greedy achieves at least half the brute-force
// optimum (the paper's ratio-2 guarantee), on random instances.
func TestGreedyApproximation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 6 + rng.Intn(4)
		var es []Entry
		for i := 0; i < n; i++ {
			set := make([]graph.NodeID, 0)
			for v := 0; v < 8; v++ {
				if rng.Intn(2) == 0 {
					set = append(set, graph.NodeID(v))
				}
			}
			es = append(es, Entry{
				ID:   uint32(i),
				Conf: rng.Float64() * 3,
				Set:  set,
			})
		}
		p := Params{K: 4, Lambda: 0.5, N: 2}
		g := F(Greedy(es, p), p)
		opt := F(BruteForce(es, p), p)
		return g >= opt/2-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestQueueFillAndReplace(t *testing.T) {
	p := Params{K: 2, Lambda: 0.5, N: 5}
	q := NewQueue(p)
	r5 := Entry{ID: 5, Conf: 0.8, Set: ids(1, 2, 3, 4)}
	r6 := Entry{ID: 6, Conf: 0.4, Set: ids(4, 6)}
	// Round 1 of Example 9: queue fills with (R5,R6), F' = 0.92.
	q.Update([]Entry{r5, r6}, []Entry{r5, r6})
	if q.Len() != 1 {
		t.Fatalf("queue pairs = %d want 1", q.Len())
	}
	if math.Abs(minF(q)-0.92) > 1e-9 {
		t.Errorf("min F' = %v want 0.92", minF(q))
	}
	// Round 2: R7, R8 arrive and displace (R5,R6), F' = 1.08.
	r7 := Entry{ID: 7, Conf: 0.6, Set: ids(1, 2, 3)}
	r8 := Entry{ID: 8, Conf: 0.2, Set: ids(6)}
	q.Update([]Entry{r7, r8}, []Entry{r5, r6, r7, r8})
	if math.Abs(minF(q)-1.08) > 1e-9 {
		t.Errorf("after round 2 min F' = %v want 1.08", minF(q))
	}
	got := q.Entries()
	if len(got) != 2 {
		t.Fatalf("Lk size = %d want 2", len(got))
	}
	names := map[uint32]bool{got[0].ID: true, got[1].ID: true}
	if !names[7] || !names[8] {
		t.Errorf("Lk = %v want {R7,R8}", names)
	}
	if !q.used[7] || q.used[5] {
		t.Error("used bookkeeping wrong after replacement")
	}
}

func TestQueueOddK(t *testing.T) {
	p := Params{K: 3, Lambda: 0.5, N: 1}
	q := NewQueue(p)
	var es []Entry
	for i := 0; i < 5; i++ {
		es = append(es, Entry{ID: uint32(i), Conf: float64(i), Set: ids(graph.NodeID(i))})
	}
	q.Update(es, es)
	if got := q.Entries(); len(got) != 3 {
		t.Errorf("odd-k queue Entries = %d want 3", len(got))
	}
}

// TestQueueMatchesGreedyOnSingleRound: when all rules arrive in one round,
// the incremental queue and the from-scratch greedy agree on F value.
func TestQueueMatchesGreedyOnSingleRound(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(5)
		var es []Entry
		for i := 0; i < n; i++ {
			set := make([]graph.NodeID, 0)
			for v := 0; v < 6; v++ {
				if rng.Intn(2) == 0 {
					set = append(set, graph.NodeID(v))
				}
			}
			es = append(es, Entry{ID: uint32(i), Conf: rng.Float64(), Set: set})
		}
		p := Params{K: 4, Lambda: 0.5, N: 1}
		q := NewQueue(p)
		q.Update(es, es)
		return math.Abs(F(q.Entries(), p)-F(Greedy(es, p), p)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestQuickDiffMetric: diff is symmetric, bounded and zero on identity.
func TestQuickDiffMetric(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		mk := func() []graph.NodeID {
			var s []graph.NodeID
			for v := 0; v < 10; v++ {
				if rng.Intn(2) == 0 {
					s = append(s, graph.NodeID(v))
				}
			}
			return s
		}
		a, b := mk(), mk()
		d1, d2 := Diff(a, b), Diff(b, a)
		return d1 == d2 && d1 >= 0 && d1 <= 1 && Diff(a, a) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

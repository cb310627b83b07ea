package diversify

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"gpar/internal/graph"
)

// minF is F'm, the minimum F' over the queue's pairs: -Inf while the queue
// is below capacity (any pair improves it). The Example 9 pins and the
// recycle-parity golden read the queue through it.
func minF(q *Queue) float64 {
	if len(q.pairs) < q.capPairs() {
		return math.Inf(-1)
	}
	m := math.Inf(1)
	for _, pr := range q.pairs {
		m = min(m, pr.f)
	}
	return m
}

// TestQueueRecycleParity drives the queue through many randomized incDiv
// rounds and hashes its state after each — pairs, min F', flattened Lk. The
// golden is what a queue allocating its working list, dedupe set and memo
// table fresh every round (its no-recycle mode) produced for this seed at
// 04ded92, the last commit that had it: buffer reuse in Update/dedupe/memo
// must never change results.
func TestQueueRecycleParity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	q := NewQueue(Params{K: 4, Lambda: 0.5, N: 3})
	states := sha256.New()

	var sigma []Entry
	nextID := uint32(1)
	for round := 0; round < 25; round++ {
		// A round delivers 0..6 new rules; sigma accumulates them all.
		// Occasionally repeat an existing ID inside deltaE to exercise dedupe.
		var deltaE []Entry
		for i, n := 0, rng.Intn(7); i < n; i++ {
			set := make([]graph.NodeID, 0, 4)
			for v := 0; v < 8; v++ {
				if rng.Intn(2) == 0 {
					set = append(set, graph.NodeID(v))
				}
			}
			e := Entry{ID: nextID, Conf: rng.Float64(), Set: set}
			nextID++
			deltaE = append(deltaE, e)
			sigma = append(sigma, e)
			if rng.Intn(4) == 0 && len(sigma) > 1 {
				deltaE = append(deltaE, sigma[rng.Intn(len(sigma))])
			}
		}
		q.Update(deltaE, sigma)
		fmt.Fprintf(states, "round %d len=%d minF=%v pairs=%+v lk=%+v\n", round, q.Len(), minF(q), q.pairs, q.Entries())
	}
	if q.Len() != 2 || minF(q) != 0.4409119061935105 {
		t.Errorf("final state: %d pairs, MinF %v; the fresh-allocating queue ended with 2 and 0.4409119061935105", q.Len(), minF(q))
	}
	const golden = "0e5ea3ce1376465ec22ea176"
	if got := hex.EncodeToString(states.Sum(nil)[:12]); got != golden {
		t.Errorf("queue states over 25 rounds hash to %s, want %s", got, golden)
	}
}

// TestQueueUpdateDoesNotRetainInputs pins the aliasing contract: the caller
// may overwrite the deltaE/sigma slices it passed once Update returns.
func TestQueueUpdateDoesNotRetainInputs(t *testing.T) {
	p := Params{K: 2, Lambda: 0.5, N: 5}
	q := NewQueue(p)
	r5 := Entry{ID: 5, Conf: 0.8, Set: ids(1, 2, 3, 4)}
	r6 := Entry{ID: 6, Conf: 0.4, Set: ids(4, 6)}
	deltaE := []Entry{r5, r6}
	sigma := []Entry{r5, r6}
	q.Update(deltaE, sigma)
	// Clobber the inputs; the queue must have copied what it kept.
	for i := range deltaE {
		deltaE[i] = Entry{ID: 999, Conf: -1}
	}
	for i := range sigma {
		sigma[i] = Entry{ID: 999, Conf: -1}
	}
	got := q.Entries()
	if len(got) != 2 || got[0].ID != 5 || got[1].ID != 6 {
		t.Fatalf("queue retained caller storage: Entries = %+v", got)
	}
}

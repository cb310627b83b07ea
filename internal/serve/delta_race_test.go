package serve

import (
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestDeltaRaceStress drives concurrent delta ingest, identify traffic, and
// mine jobs across the compaction swaps that threshold-crossing batches
// publish. Run under -race it pins the locking story: mutation, compaction
// and swap serialize on swapMu, readers load the snapshot atomically and
// finish on whatever generation they started.
func TestDeltaRaceStress(t *testing.T) {
	s, ts, _ := newTestServer(t, Config{Workers: 2, CompactThreshold: 4})

	const batches = 25
	var done atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan error, 256)

	// Single writer: always-valid batches (a fresh cust node wired to node
	// 0), so every 409 is a real bug. Node IDs are dense: the fixture ends
	// at 10, batch i adds node 11+i.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer done.Store(true)
		for i := 0; i < batches; i++ {
			body := fmt.Sprintf(`{"ops":[
				{"op":"addNode","label":"cust"},
				{"op":"addEdge","from":%d,"to":0,"label":"friend"}]}`, 11+i)
			var dr DeltaResponse
			if code := doJSON(t, "POST", ts.URL+"/v1/graph/delta", []byte(body), &dr); code != http.StatusAccepted {
				errs <- fmt.Errorf("batch %d: status %d", i, code)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()

	// Two identify readers and a stats poller run until the writer stops.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !done.Load() {
				var idr IdentifyResponse
				if code := doJSON(t, "POST", ts.URL+"/v1/identify", []byte(`{}`), &idr); code != 200 {
					errs <- fmt.Errorf("identify: status %d", code)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !done.Load() {
			if code := doJSON(t, "GET", ts.URL+"/stats", nil, &StatsResponse{}); code != 200 {
				errs <- fmt.Errorf("stats: status %d", code)
				return
			}
		}
	}()

	// Mine jobs ride along, racing the generation swaps underneath them.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 3; i++ {
			job, err := s.StartMine(MineParams{
				XLabel: "cust", EdgeLabel: "visit", YLabel: "restaurant",
				K: 2, Sigma: 1, D: 2, MaxEdges: 1, Cap: 10,
			})
			if err != nil {
				errs <- fmt.Errorf("StartMine %d: %v", i, err)
				return
			}
			deadline := time.Now().Add(30 * time.Second)
			for {
				j, _ := s.jobs.Get(job.ID)
				if terminal(j.Status) {
					if j.Status != JobDone {
						errs <- fmt.Errorf("job %s: %s (%s)", j.ID, j.Status, j.Error)
					}
					break
				}
				if time.Now().After(deadline) {
					errs <- fmt.Errorf("job %s stuck in %s", j.ID, j.Status)
					return
				}
				time.Sleep(2 * time.Millisecond)
			}
		}
	}()

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// Settle: fold any remaining overlay down, then verify the server still
	// answers and the compaction machinery actually fired along the way.
	if _, _, err := s.Compact(); err != nil {
		t.Fatalf("final Compact: %v", err)
	}
	if s.Snapshot().G.Overlaid() {
		t.Error("overlay still live after final compaction")
	}
	var idr IdentifyResponse
	if code := doJSON(t, "POST", ts.URL+"/v1/identify", []byte(`{}`), &idr); code != 200 {
		t.Fatalf("final identify: %d", code)
	}
	var st StatsResponse
	doJSON(t, "GET", ts.URL+"/stats", nil, &st)
	if st.Delta.Batches != batches {
		t.Errorf("applied %d batches, want %d", st.Delta.Batches, batches)
	}
	if st.Delta.Compactions < 1 {
		t.Errorf("no compaction in %d batches over threshold %d: %+v",
			batches, s.cfg.CompactThreshold, st.Delta)
	}
	if st.Graph.Nodes != 11+batches {
		t.Errorf("final node count %d, want %d", st.Graph.Nodes, 11+batches)
	}
}

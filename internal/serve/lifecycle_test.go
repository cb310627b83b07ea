package serve

import (
	"context"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"
)

// holdGate saturates the server's shared mine gate, parking every mine job
// at its next worker acquire — a deterministic cancellation window that does
// not depend on the job being slow. The returned release frees the gate; it
// is also registered as cleanup so a failing test cannot wedge others.
func holdGate(t *testing.T, s *Server) (release func()) {
	t.Helper()
	n := s.mineGate.Size()
	for i := 0; i < n; i++ {
		s.mineGate.Acquire()
	}
	released := false
	release = func() {
		if released {
			return
		}
		released = true
		for i := 0; i < n; i++ {
			s.mineGate.Release()
		}
	}
	t.Cleanup(release)
	return release
}

func waitJobUntil(t *testing.T, s *Server, id string, timeout time.Duration, cond func(Job) bool) Job {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		j, ok := s.jobs.Get(id)
		if ok && cond(j) {
			return j
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %q (%s)", id, j.Status, j.Error)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestJobCancelEndpoint: DELETE /v1/jobs/{id} on a running job answers 202,
// the job reaches the canceled terminal state (the run observes its context
// at the next superstep boundary), a second DELETE answers 409, and an
// unknown id 404.
func TestJobCancelEndpoint(t *testing.T) {
	s, ts, _ := newTestServer(t, Config{Workers: 2})
	holdGate(t, s)

	var job Job
	body := []byte(`{"xLabel":"cust","edgeLabel":"visit","yLabel":"restaurant",
		"k":2,"sigma":1,"maxEdges":1,"cap":10}`)
	if code := doJSON(t, "POST", ts.URL+"/v1/mine", body, &job); code != http.StatusAccepted {
		t.Fatalf("mine: %d", code)
	}
	waitJobUntil(t, s, job.ID, 5*time.Second, func(j Job) bool { return j.Status == JobRunning })

	if code := doJSON(t, "DELETE", ts.URL+"/v1/jobs/"+job.ID, nil, nil); code != http.StatusAccepted {
		t.Fatalf("cancel: %d, want 202", code)
	}
	final := waitJobUntil(t, s, job.ID, 5*time.Second, func(j Job) bool { return terminal(j.Status) })
	if final.Status != JobCanceled {
		t.Fatalf("canceled job finished %q (%s), want %q", final.Status, final.Error, JobCanceled)
	}
	if !strings.Contains(final.Error, "canceled") {
		t.Errorf("canceled job error %q does not say so", final.Error)
	}

	if code := doJSON(t, "DELETE", ts.URL+"/v1/jobs/"+job.ID, nil, nil); code != http.StatusConflict {
		t.Errorf("cancel of a terminal job: %d, want 409", code)
	}
	if code := doJSON(t, "DELETE", ts.URL+"/v1/jobs/nope", nil, nil); code != http.StatusNotFound {
		t.Errorf("cancel of an unknown job: %d, want 404", code)
	}

	var st StatsResponse
	doJSON(t, "GET", ts.URL+"/stats", nil, &st)
	if st.Lifecycle.CancelRequests != 1 {
		t.Errorf("cancelRequests = %d, want 1", st.Lifecycle.CancelRequests)
	}
	if st.Jobs[JobCanceled] != 1 {
		t.Errorf("job counts: %v, want one canceled", st.Jobs)
	}
}

// TestJobDeadline: a mine job with timeoutMs finishes in the
// deadline_exceeded terminal state once its budget expires mid-run.
func TestJobDeadline(t *testing.T) {
	s, ts, _ := newTestServer(t, Config{Workers: 2})
	holdGate(t, s)

	var job Job
	body := []byte(`{"xLabel":"cust","edgeLabel":"visit","yLabel":"restaurant",
		"k":2,"sigma":1,"maxEdges":1,"cap":10,"timeoutMs":50}`)
	if code := doJSON(t, "POST", ts.URL+"/v1/mine", body, &job); code != http.StatusAccepted {
		t.Fatalf("mine: %d", code)
	}
	final := waitJobUntil(t, s, job.ID, 5*time.Second, func(j Job) bool { return terminal(j.Status) })
	if final.Status != JobDeadline {
		t.Fatalf("timed-out job finished %q (%s), want %q", final.Status, final.Error, JobDeadline)
	}
	var got Job
	doJSON(t, "GET", ts.URL+"/v1/jobs/"+job.ID, nil, &got)
	if got.Status != JobDeadline {
		t.Errorf("job status over HTTP: %q", got.Status)
	}
}

// TestJobRunsCleanAfterCanceledJob: a canceled run releases its pooled
// accumulator cleanly — the next job over the same context succeeds, which
// would fail if cancellation left partial state — and leaves no result
// behind for the next job to be answered from.
func TestJobRunsCleanAfterCanceledJob(t *testing.T) {
	s, ts, _ := newTestServer(t, Config{Workers: 2})
	release := holdGate(t, s)

	body := []byte(`{"xLabel":"cust","edgeLabel":"visit","yLabel":"restaurant",
		"k":3,"sigma":1,"d":2,"maxEdges":1,"cap":20}`)
	var canceledJob Job
	doJSON(t, "POST", ts.URL+"/v1/mine", body, &canceledJob)
	waitJobUntil(t, s, canceledJob.ID, 5*time.Second, func(j Job) bool { return j.Status == JobRunning })
	doJSON(t, "DELETE", ts.URL+"/v1/jobs/"+canceledJob.ID, nil, nil)
	waitJobUntil(t, s, canceledJob.ID, 5*time.Second, func(j Job) bool { return terminal(j.Status) })
	release()

	var rerun Job
	if code := doJSON(t, "POST", ts.URL+"/v1/mine", body, &rerun); code != http.StatusAccepted {
		t.Fatalf("rerun after cancel: %d", code)
	}
	final := waitJobUntil(t, s, rerun.ID, 10*time.Second, func(j Job) bool { return terminal(j.Status) })
	if final.Status != JobDone {
		t.Fatalf("rerun finished %q (%s), want done", final.Status, final.Error)
	}
	// Only a finished run records a result: the rerun mined, and the job
	// after it is answered from the rerun's result.
	if len(final.RuleKeys) == 0 || final.WarmStarted || len(final.Supersteps) == 0 {
		t.Errorf("rerun after cancel: %+v; want a run that mines rules", final)
	}
	doJSON(t, "POST", ts.URL+"/v1/mine", body, &rerun)
	if again := waitJobUntil(t, s, rerun.ID, 10*time.Second, func(j Job) bool { return terminal(j.Status) }); !again.WarmStarted {
		t.Errorf("job after the rerun: %+v; want it answered from the rerun's result", again)
	}
}

// TestShutdownCancelsRunningJobs: the drain is active — Shutdown cancels a
// job parked mid-run through the job-context plumbing and returns promptly,
// rather than waiting out work nobody will read.
func TestShutdownCancelsRunningJobs(t *testing.T) {
	s, _, _ := newTestServer(t, Config{Workers: 2})
	holdGate(t, s)

	job, err := s.StartMine(MineParams{
		XLabel: "cust", EdgeLabel: "visit", YLabel: "restaurant",
		K: 2, Sigma: 1, MaxEdges: 1, Cap: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	waitJobUntil(t, s, job.ID, 5*time.Second, func(j Job) bool { return j.Status == JobRunning })

	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown with a parked job: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("drain took %v with the gate saturated; the cancel did not reach the job", elapsed)
	}
	final, _ := s.jobs.Get(job.ID)
	if final.Status != JobCanceled {
		t.Errorf("drained job finished %q (%s), want canceled", final.Status, final.Error)
	}

	// After the drain, new jobs are refused.
	if _, err := s.StartMine(MineParams{
		XLabel: "cust", EdgeLabel: "visit", YLabel: "restaurant",
	}); err == nil {
		t.Error("StartMine accepted a job after Shutdown")
	}
}

// TestNoGoroutineLeakAcrossStartStop: full server lifecycles — snapshot
// load, a mine job run to completion, identify traffic, shutdown — leave no
// goroutines behind.
func TestNoGoroutineLeakAcrossStartStop(t *testing.T) {
	cycle := func() {
		g, pred, rules := fixture(t)
		s := New(Config{Workers: 2})
		if err := s.LoadSnapshot(g, pred, rules); err != nil {
			t.Fatal(err)
		}
		h := s.Handler()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/identify", strings.NewReader(`{}`)))
		if rec.Code != http.StatusOK {
			t.Fatalf("identify: %d", rec.Code)
		}
		job, err := s.StartMine(MineParams{
			XLabel: "cust", EdgeLabel: "visit", YLabel: "restaurant",
			K: 2, Sigma: 1, MaxEdges: 1, Cap: 10,
		})
		if err != nil {
			t.Fatal(err)
		}
		waitJobUntil(t, s, job.ID, 10*time.Second, func(j Job) bool { return terminal(j.Status) })
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Fatal(err)
		}
	}
	cycle() // warm up lazy runtime state (timers, http internals)

	before := runtime.NumGoroutine()
	for i := 0; i < 4; i++ {
		cycle()
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines grew from %d to %d across start/stop cycles",
				before, runtime.NumGoroutine())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

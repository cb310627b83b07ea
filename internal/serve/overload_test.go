package serve

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// rawDo issues one request and returns the response with its body drained,
// for tests that need status and headers rather than decoded JSON.
func rawDo(t *testing.T, method, url string, body []byte) *http.Response {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp
}

func TestAdmitterQueueAndShed(t *testing.T) {
	a := newAdmitter(1, 1, 200*time.Millisecond)

	release, err := a.admit(context.Background())
	if err != nil {
		t.Fatalf("first admit: %v", err)
	}
	if a.inUse() != 1 {
		t.Fatalf("inUse = %d, want 1", a.inUse())
	}

	// Fill the one queue slot with a waiter, then the next arrival must be
	// shed instantly with queue-full.
	queued := make(chan error, 1)
	go func() {
		r, err := a.admit(context.Background())
		if err == nil {
			r()
		}
		queued <- err
	}()
	waitFor(t, time.Second, func() bool { return a.depth() == 1 })
	if _, err := a.admit(context.Background()); !errors.Is(err, errQueueFull) {
		t.Fatalf("admit with full queue: %v, want errQueueFull", err)
	}

	// Releasing the running slot hands it to the waiter.
	release()
	if err := <-queued; err != nil {
		t.Fatalf("queued admit after release: %v", err)
	}

	// A waiter whose budget expires is shed with queue-timeout.
	release, err = a.admit(context.Background())
	if err != nil {
		t.Fatalf("re-admit: %v", err)
	}
	if _, err := a.admit(context.Background()); !errors.Is(err, errQueueTimeout) {
		t.Fatalf("admit past the queue budget: %v, want errQueueTimeout", err)
	}

	// A caller whose own context dies while queued gets that context's error.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := a.admit(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("admit with dead context: %v, want context.Canceled", err)
	}
	release()
	if a.inUse() != 0 || a.depth() != 0 {
		t.Fatalf("admitter not drained: inUse=%d depth=%d", a.inUse(), a.depth())
	}
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestIdentifySheddingUnderSaturation pins the HTTP half of the overload
// front door: with the single evaluation slot held, a request that waits out
// the queue budget and a request that finds the queue full both answer 429
// with a Retry-After, the counters tell the two apart, and service resumes
// as soon as the slot frees.
func TestIdentifySheddingUnderSaturation(t *testing.T) {
	s, ts, _ := newTestServer(t, Config{
		Workers: 2, PoolSize: 1, MaxQueue: 1, QueueTimeout: 150 * time.Millisecond,
	})

	release, err := s.admit.admit(context.Background())
	if err != nil {
		t.Fatalf("saturating the admission slot: %v", err)
	}

	// One client queues (it will eventually shed on the queue budget)...
	timedOut := make(chan *http.Response, 1)
	go func() { timedOut <- rawDo(t, "POST", ts.URL+"/v1/identify", []byte(`{}`)) }()
	waitFor(t, 2*time.Second, func() bool { return s.admit.depth() == 1 })

	// ...so the next arrival finds the queue full and sheds instantly.
	start := time.Now()
	resp := rawDo(t, "POST", ts.URL+"/v1/identify", []byte(`{}`))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("queue-full request: %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("queue-full 429 carries no Retry-After")
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("queue-full shed took %v, want instant", elapsed)
	}

	resp = <-timedOut
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("queue-timeout request: %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("queue-timeout 429 carries no Retry-After")
	}

	// Capacity frees up: the same request is served again.
	release()
	if resp := rawDo(t, "POST", ts.URL+"/v1/identify", []byte(`{}`)); resp.StatusCode != http.StatusOK {
		t.Fatalf("identify after release: %d, want 200", resp.StatusCode)
	}

	var st StatsResponse
	doJSON(t, "GET", ts.URL+"/stats", nil, &st)
	if st.Admission == nil {
		t.Fatal("stats missing admission block")
	}
	if st.Admission.ShedFull < 1 || st.Admission.ShedTimeout < 1 {
		t.Errorf("shed counters full=%d timeout=%d, want both >= 1",
			st.Admission.ShedFull, st.Admission.ShedTimeout)
	}
	if st.Admission.RunningCap != 1 || st.Admission.MaxQueue != 1 {
		t.Errorf("admission config on stats: %+v", st.Admission)
	}
}

// TestIdentifyDeadlineWhileQueued: a request whose server-side deadline
// expires before a slot frees answers 503 (not 429 — the server was not
// refusing it, it just could not serve it in time) and counts as a deadline.
func TestIdentifyDeadlineWhileQueued(t *testing.T) {
	s, ts, _ := newTestServer(t, Config{
		Workers: 2, PoolSize: 1, MaxQueue: 4,
		QueueTimeout: 5 * time.Second, RequestTimeout: 60 * time.Millisecond,
	})
	release, err := s.admit.admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer release()

	resp := rawDo(t, "POST", ts.URL+"/v1/identify", []byte(`{}`))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("deadline-while-queued: %d, want 503", resp.StatusCode)
	}
	var st StatsResponse
	doJSON(t, "GET", ts.URL+"/stats", nil, &st)
	if st.Lifecycle.Deadlines < 1 {
		t.Errorf("deadlines = %d, want >= 1", st.Lifecycle.Deadlines)
	}
}

// TestIdentifyClientGoneWhileQueued: a client that hangs up while queued is
// counted and charged nothing else — no 429, no deadline.
func TestIdentifyClientGoneWhileQueued(t *testing.T) {
	s, ts, _ := newTestServer(t, Config{
		Workers: 2, PoolSize: 1, MaxQueue: 4, QueueTimeout: 5 * time.Second,
	})
	release, err := s.admit.admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer release()

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/identify", strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		done <- err
	}()
	waitFor(t, 2*time.Second, func() bool { return s.admit.depth() == 1 })
	cancel()
	if err := <-done; err == nil {
		t.Fatal("canceled client request unexpectedly succeeded")
	}
	waitFor(t, 2*time.Second, func() bool { return s.nClientGone.Load() >= 1 })
}

// TestPanickingEvaluationAnswers500: identify evaluates every rule on its own
// goroutine, and the pool runs all chunks but one on its goroutines; a panic
// on any of them must come back as that request's 500, leave every pool slot
// free, and leave the daemon serving. The broken rule (no PR pattern) panics
// in both of its chunks, so both the pool's goroutine and its inline slot
// are covered.
func TestPanickingEvaluationAnswers500(t *testing.T) {
	s, ts, rules := newTestServer(t, Config{Workers: 2, PoolSize: 1})
	s.snap.Load().byKey["boom"] = &ServedRule{Key: "boom", Rule: rules[0]}

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/identify", "application/json", strings.NewReader(`{}`))
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("healthy identify beside a panicking one: %d, want 200", resp.StatusCode)
			}
		}()
	}
	resp := rawDo(t, "POST", ts.URL+"/v1/identify", []byte(`{"rules":["boom"]}`))
	if resp.StatusCode != http.StatusInternalServerError || resp.Header.Get("X-Request-ID") == "" {
		t.Fatalf("panicking evaluation: %d (request ID %q), want 500 with a request ID",
			resp.StatusCode, resp.Header.Get("X-Request-ID"))
	}
	wg.Wait()

	if s.pool.InUse() != 0 {
		t.Fatalf("%d pool slots still held after the panic", s.pool.InUse())
	}
	if resp := rawDo(t, "GET", ts.URL+"/healthz", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after the panic: %d, want 200", resp.StatusCode)
	}
	if resp := rawDo(t, "POST", ts.URL+"/v1/identify", []byte(`{}`)); resp.StatusCode != http.StatusOK {
		t.Fatalf("identify after the panic: %d, want 200", resp.StatusCode)
	}
	var st StatsResponse
	doJSON(t, "GET", ts.URL+"/stats", nil, &st)
	if st.Lifecycle.Panics != 1 {
		t.Errorf("panics = %d, want 1", st.Lifecycle.Panics)
	}
}

// TestPanicRecoveryMiddleware: a panicking handler answers 500 with an
// X-Request-ID instead of resetting the connection, the panic is counted,
// and ordinary responses carry request IDs too.
func TestPanicRecoveryMiddleware(t *testing.T) {
	s, ts, _ := newTestServer(t, Config{Workers: 2})

	h := s.recoverPanics(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic("boom")
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/panic", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("panicking handler: %d, want 500", rec.Code)
	}
	reqID := rec.Header().Get("X-Request-ID")
	if reqID == "" {
		t.Fatal("panic response carries no X-Request-ID")
	}
	if body := rec.Body.String(); !strings.Contains(body, reqID) || !strings.Contains(body, "boom") {
		t.Errorf("panic body %q does not name the request ID and the panic", body)
	}

	if resp := rawDo(t, "GET", ts.URL+"/healthz", nil); resp.Header.Get("X-Request-ID") == "" {
		t.Error("ordinary response carries no X-Request-ID")
	}
	var st StatsResponse
	doJSON(t, "GET", ts.URL+"/stats", nil, &st)
	if st.Lifecycle.Panics != 1 {
		t.Errorf("panics = %d, want 1", st.Lifecycle.Panics)
	}
}

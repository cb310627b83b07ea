package serve

import (
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"gpar/internal/mine/remote"
	"gpar/internal/mine/wire"
)

// startFleet brings up n worker services on loopback listeners and returns
// their addresses. Listeners close on test cleanup, ending each Serve loop.
func startFleet(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		t.Cleanup(func() { l.Close() })
		go remote.Serve(l, remote.ServerOptions{})
		addrs[i] = l.Addr().String()
	}
	return addrs
}

// TestMineJobFleet pins the distributed serving path: with MineWorkers
// configured, a mine job is submitted to the fleet, reports Distributed, and
// returns exactly the rule set an in-process job over the same snapshot
// produces.
func TestMineJobFleet(t *testing.T) {
	addrs := startFleet(t, 2)
	fleet, _, _ := newTestServer(t, Config{Workers: 2, MineWorkers: addrs})
	local, _, _ := newTestServer(t, Config{Workers: 2})

	p := mineFixtureParams()
	p.Workers = 0 // inherit the fleet size (2)
	run := func(s *Server) Job {
		job, err := s.StartMine(p)
		if err != nil {
			t.Fatalf("StartMine: %v", err)
		}
		done := waitJob(t, s, job.ID)
		if done.Status != JobDone {
			t.Fatalf("job failed: %s", done.Error)
		}
		return done
	}

	remoteJob := run(fleet)
	localJob := run(local)
	if !remoteJob.Distributed {
		t.Fatal("fleet job did not report Distributed")
	}
	if remoteJob.FleetFallback != "" {
		t.Fatalf("fleet job fell back: %s", remoteJob.FleetFallback)
	}
	if localJob.Distributed {
		t.Fatal("in-process job reported Distributed")
	}
	if len(remoteJob.RuleKeys) == 0 || !reflect.DeepEqual(remoteJob.RuleKeys, localJob.RuleKeys) {
		t.Fatalf("distributed rules diverge:\nfleet %v\nlocal %v", remoteJob.RuleKeys, localJob.RuleKeys)
	}
	// The coordinator stamps supersteps the same way for both engines: the
	// counts agree, the timings are each run's own.
	if len(remoteJob.Supersteps) != remoteJob.Rounds || len(localJob.Supersteps) != len(remoteJob.Supersteps) {
		t.Fatalf("supersteps: fleet %d, local %d, rounds %d", len(remoteJob.Supersteps), len(localJob.Supersteps), remoteJob.Rounds)
	}
	for i, r := range remoteJob.Supersteps {
		l := localJob.Supersteps[i]
		if r.Round != l.Round || r.Frontier != l.Frontier || r.Messages != l.Messages || r.Kept != l.Kept || r.GenerateMs <= 0 {
			t.Errorf("superstep %d diverges:\nfleet %+v\nlocal %+v", i, r, l)
		}
	}
	if remoteJob.Capped != localJob.Capped || fleet.nMineCapped.Load() != local.nMineCapped.Load() {
		t.Errorf("capped: fleet job %d (/stats %d), local job %d (/stats %d)",
			remoteJob.Capped, fleet.nMineCapped.Load(), localJob.Capped, local.nMineCapped.Load())
	}
	if got := fleet.nRemoteMine.Load(); got != 1 {
		t.Fatalf("remote mine counter = %d, want 1", got)
	}
	if got := fleet.nFleetFall.Load(); got != 0 {
		t.Fatalf("fallback counter = %d, want 0", got)
	}

	// A second fleet job reuses the cached mine context; the fleet is
	// re-dialed per job, so nothing about the first job's connections leaks.
	again := run(fleet)
	if !again.Distributed || !again.ContextCached {
		t.Fatalf("repeat fleet job: distributed=%v contextCached=%v", again.Distributed, again.ContextCached)
	}
	if !reflect.DeepEqual(again.RuleKeys, localJob.RuleKeys) {
		t.Fatal("repeat fleet job rules diverge")
	}
}

// TestMineJobFleetUnreachableFallsBack pins the dial-phase failure path: an
// unreachable fleet means the job mines in-process, succeeds, and records
// why it fell back.
func TestMineJobFleetUnreachableFallsBack(t *testing.T) {
	// Grab an address nobody is listening on.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := l.Addr().String()
	l.Close()

	s, _, _ := newTestServer(t, Config{Workers: 2, MineWorkers: []string{dead, dead}})
	p := mineFixtureParams()
	p.Workers = 0
	job, err := s.StartMine(p)
	if err != nil {
		t.Fatalf("StartMine: %v", err)
	}
	done := waitJob(t, s, job.ID)
	if done.Status != JobDone {
		t.Fatalf("fallback job failed: %s", done.Error)
	}
	if done.Distributed {
		t.Fatal("unreachable fleet still reported Distributed")
	}
	if done.FleetFallback == "" {
		t.Fatal("fallback reason not recorded")
	}
	if len(done.RuleKeys) == 0 {
		t.Fatal("fallback job produced no rules")
	}
	if got := s.nFleetFall.Load(); got != 1 {
		t.Fatalf("fallback counter = %d, want 1", got)
	}
	if got := s.nRemoteMine.Load(); got != 0 {
		t.Fatalf("remote mine counter = %d, want 0", got)
	}
}

// TestMineJobFleetWorkerCountMismatch: a request that pins a worker count
// different from the fleet size cannot be distributed (one service per
// fragment); it mines in-process and says why.
func TestMineJobFleetWorkerCountMismatch(t *testing.T) {
	addrs := startFleet(t, 2)
	s, _, _ := newTestServer(t, Config{Workers: 2, MineWorkers: addrs})
	p := mineFixtureParams()
	p.Workers = 3
	job, err := s.StartMine(p)
	if err != nil {
		t.Fatalf("StartMine: %v", err)
	}
	done := waitJob(t, s, job.ID)
	if done.Status != JobDone {
		t.Fatalf("job failed: %s", done.Error)
	}
	if done.Distributed || !strings.Contains(done.FleetFallback, "fleet has 2") {
		t.Fatalf("distributed=%v fallback=%q", done.Distributed, done.FleetFallback)
	}
}

// startStalledWorker brings up a fake worker that handshakes and then
// swallows every frame without answering — the canonical mid-job
// stall. Returns its address.
func startStalledWorker(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				if wire.Handshake(c, false) != nil {
					return
				}
				buf := make([]byte, 64)
				for {
					if _, err := c.Read(buf); err != nil {
						return // swallow frames, never reply
					}
				}
			}(c)
		}
	}()
	return l.Addr().String()
}

// TestMineJobFleetMidJobFailureRetriesThenFallsBack pins the retry +
// recorded-fallback rule: a worker that stalls past the step deadline fails
// each attempt; the coordinator re-dials and retries up to MineRetries, then
// mines in-process, still completing the job — with the fallback reason,
// attempt count, and breaker failure all recorded so the sick fleet is
// never silently masked.
func TestMineJobFleetMidJobFailureRetriesThenFallsBack(t *testing.T) {
	addrs := []string{startFleet(t, 1)[0], startStalledWorker(t)}

	s, _, _ := newTestServer(t, Config{
		Workers:          2,
		MineWorkers:      addrs,
		MineStepTimeout:  200 * time.Millisecond,
		MineRetries:      2,
		MineRetryBackoff: time.Millisecond,
	})
	p := mineFixtureParams()
	p.Workers = 0
	p.Install = true // fallback result is a real result; install proceeds
	job, err := s.StartMine(p)
	if err != nil {
		t.Fatalf("StartMine: %v", err)
	}
	done := waitJob(t, s, job.ID)
	if done.Status != JobDone {
		t.Fatalf("stalled-worker job status = %s (err %q), want done via fallback", done.Status, done.Error)
	}
	if done.Distributed {
		t.Fatal("fallback job reported Distributed")
	}
	if !strings.Contains(done.FleetFallback, "after 2 attempt(s)") ||
		!strings.Contains(done.FleetFallback, "worker 1") {
		t.Fatalf("fallback reason = %q, want attempts + failing worker", done.FleetFallback)
	}
	if done.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2", done.Attempts)
	}
	if len(done.RuleKeys) == 0 || !done.Installed {
		t.Fatalf("fallback result not served: rules=%d installed=%v", len(done.RuleKeys), done.Installed)
	}
	if got := s.nFleetFall.Load(); got != 1 {
		t.Fatalf("fallback counter = %d, want 1", got)
	}
	bs, ok := s.BreakerStats()
	if !ok {
		t.Fatal("no breaker on a fleet-configured server")
	}
	if bs.ConsecutiveFailures != 1 || bs.State != BreakerClosed {
		t.Fatalf("breaker after one failed job = %+v, want 1 consecutive failure, closed", bs)
	}
}

// TestMineJobFleetBreakerTripsAndSkips drives the breaker through its whole
// cycle: threshold consecutive fleet failures trip it open, open jobs skip
// the fleet entirely (no dial latency, fallback recorded as breaker-open),
// and after the cooldown a half-open probe against a healed fleet closes it
// again.
func TestMineJobFleetBreakerTripsAndSkips(t *testing.T) {
	healthy := startFleet(t, 2)
	stalled := []string{healthy[0], startStalledWorker(t)}

	s, _, _ := newTestServer(t, Config{
		Workers:               2,
		MineWorkers:           stalled,
		MineStepTimeout:       200 * time.Millisecond,
		MineRetries:           1,
		MineRetryBackoff:      time.Millisecond,
		FleetBreakerThreshold: 2,
		FleetBreakerCooldown:  time.Hour, // only the test clock moves it
	})
	p := mineFixtureParams()
	p.Workers = 0
	run := func() Job {
		t.Helper()
		job, err := s.StartMine(p)
		if err != nil {
			t.Fatalf("StartMine: %v", err)
		}
		done := waitJob(t, s, job.ID)
		if done.Status != JobDone {
			t.Fatalf("job status = %s: %s", done.Status, done.Error)
		}
		return done
	}

	// Two failed fleet jobs trip the breaker.
	for i := 0; i < 2; i++ {
		if done := run(); !strings.Contains(done.FleetFallback, "attempt") {
			t.Fatalf("job %d fallback = %q, want fleet failure", i, done.FleetFallback)
		}
	}
	bs, _ := s.BreakerStats()
	if bs.State != BreakerOpen || bs.Trips != 1 {
		t.Fatalf("breaker after threshold failures = %+v, want open with 1 trip", bs)
	}

	// While open, jobs skip the fleet without dialing.
	if done := run(); done.Attempts != 0 || !strings.Contains(done.FleetFallback, "circuit breaker open") {
		t.Fatalf("open-breaker job: attempts=%d fallback=%q", done.Attempts, done.FleetFallback)
	}
	if bs, _ = s.BreakerStats(); bs.Skips != 1 {
		t.Fatalf("skips = %d, want 1", bs.Skips)
	}

	// Heal the fleet, expire the cooldown, and let the half-open probe close
	// the breaker.
	s.cfg.MineWorkers = healthy
	s.breaker.mu.Lock()
	s.breaker.openedAt = s.breaker.openedAt.Add(-2 * time.Hour)
	s.breaker.mu.Unlock()
	done := run()
	if !done.Distributed || done.FleetFallback != "" {
		t.Fatalf("probe job: distributed=%v fallback=%q", done.Distributed, done.FleetFallback)
	}
	if bs, _ = s.BreakerStats(); bs.State != BreakerClosed || bs.ConsecutiveFailures != 0 {
		t.Fatalf("breaker after probe success = %+v, want closed", bs)
	}
}

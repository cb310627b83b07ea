package serve

import (
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"gpar/internal/mine"
)

// waitJob waits for the job to finish, done or failed.
func waitJob(t *testing.T, s *Server, id string) Job {
	t.Helper()
	return waitJobUntil(t, s, id, 15*time.Second, func(j Job) bool { return j.Status == JobDone || j.Status == JobFailed })
}

// mineFixtureParams is the fixture predicate as mine-job parameters.
func mineFixtureParams() MineParams {
	return MineParams{
		XLabel: "cust", EdgeLabel: "visit", YLabel: "restaurant",
		K: 3, Sigma: 1, D: 2, MaxEdges: 1, Cap: 20,
	}
}

// TestMineJobContextReuse is the serving-level lifecycle test: a job that
// differs only in k hits the context cache, an identical one at the same
// generation is answered from the first job's result (no supersteps, no
// context), a job with a differing d misses, and a rules-only hot-swap
// keeps every context and the mined result.
func TestMineJobContextReuse(t *testing.T) {
	s, _, rules := newTestServer(t, Config{Workers: 2})

	p := mineFixtureParams()
	run := func(p MineParams) Job {
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

	first := run(p)
	if first.ContextCached {
		t.Error("first job reported a cached context")
	}
	pk := p
	pk.K++
	if second := run(pk); !second.ContextCached || second.WarmStarted {
		t.Errorf("job with differing k: contextCached %v, warmStarted %v; want a context hit that mines",
			second.ContextCached, second.WarmStarted)
	}
	third := run(p)
	if !third.WarmStarted || third.ContextCached || len(third.Supersteps) != 0 || third.F != first.F ||
		!reflect.DeepEqual(first.RuleKeys, third.RuleKeys) {
		t.Fatalf("repeated job: %+v; want the first job's Σ %v, unmined", third, first.RuleKeys)
	}
	if st := s.mineCacheStats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("mine cache stats = %+v, want hits=1 misses=1", st)
	}

	// A differing radius is a distinct preamble.
	pd := p
	pd.D = 1
	if job := run(pd); job.ContextCached {
		t.Error("job with differing d reused a context")
	}

	// A snapshot hot-swap bumps the generation but keeps the graph, so
	// every context moves to the new generation and new parameters find
	// theirs; the original parameters are still answered from their result.
	before := s.mineCacheStats()
	if before.Entries == 0 {
		t.Fatal("no cached contexts before swap")
	}
	if _, err := s.SwapRules(rules); err != nil {
		t.Fatalf("SwapRules: %v", err)
	}
	st := s.mineCacheStats()
	if st.Entries != before.Entries || st.Purges != before.Purges {
		t.Fatalf("swap dropped mine contexts: %+v, before %+v", st, before)
	}
	pk.K++
	if job := run(pk); !job.ContextCached {
		t.Error("post-swap job did not find its context")
	}
	if job := run(p); !job.WarmStarted || !reflect.DeepEqual(first.RuleKeys, job.RuleKeys) {
		t.Errorf("post-swap repeat: warmStarted %v, rules %v; want the carried %v", job.WarmStarted, job.RuleKeys, first.RuleKeys)
	}
}

// TestMineContextCrossesPublish: a publish that keeps the graph's content
// keeps the mine contexts, discovery memos and all. After a job installs
// its rules, a job for another predicate with the same x label finds the
// context and the first job's discoveries; a delta batch drops the
// contexts, and a compaction rebinds them to the compacted graph. Every
// job mines what DMine mines on the served graph.
func TestMineContextCrossesPublish(t *testing.T) {
	s, _, _ := newTestServer(t, Config{Workers: 2})
	check := func(p MineParams, cached bool) {
		t.Helper()
		hits := s.mineCacheStats().DiscoveryHits
		job, err := s.StartMine(p)
		if err != nil {
			t.Fatalf("StartMine: %v", err)
		}
		if job = waitJob(t, s, job.ID); job.Status != JobDone {
			t.Fatalf("job failed: %s", job.Error)
		}
		snap := s.Snapshot()
		pred, err := lookupPred(snap.G.Symbols(), p)
		if err != nil {
			t.Fatal(err)
		}
		var want []string
		for _, mm := range mine.DMine(snap.G, pred, mine.Options{K: p.K, Sigma: p.Sigma, D: p.D,
			MaxEdges: p.MaxEdges, MaxCandidatesPerRound: p.Cap, N: 1}).TopK {
			want = append(want, mm.Rule.Key())
		}
		if job.WarmStarted || job.ContextCached != cached || !slices.Equal(job.RuleKeys, want) {
			t.Fatalf("%s: warmStarted %v, contextCached %v (want %v), mined %v; DMine mines %v",
				p.YLabel, job.WarmStarted, job.ContextCached, cached, job.RuleKeys, want)
		}
		if got := s.mineCacheStats().DiscoveryHits; cached != (got > hits) {
			t.Fatalf("%s: discovery hits %d -> %d with contextCached %v", p.YLabel, hits, got, cached)
		}
	}
	p := mineFixtureParams()
	p.MaxEdges, p.Install = 2, true
	check(p, false)
	if s.Generation() != 2 {
		t.Fatalf("generation %d after the install, want 2", s.Generation())
	}
	bar := p
	bar.YLabel, bar.Install = "bar", false
	check(bar, true)

	if _, err := s.ApplyDelta(DeltaRequest{Ops: []DeltaOpSpec{{Op: "addEdge", From: 0, To: 3, Label: "friend"}}}); err != nil {
		t.Fatal(err)
	}
	if st := s.mineCacheStats(); st.Entries != 0 || st.Parents != 0 {
		t.Fatalf("a delta batch kept mine contexts: %+v", st)
	}
	p.Install = false
	check(p, false)
	if _, did, err := s.Compact(); err != nil || !did {
		t.Fatalf("Compact: %v, %v", did, err)
	}
	bar.K++
	check(bar, true)
}

// TestMineJobWidthIsGateSize: a job mines with one worker per mine-gate
// slot, whatever the machine's core count.
func TestMineJobWidthIsGateSize(t *testing.T) {
	s, _, _ := newTestServer(t, Config{Workers: 2})
	job, err := s.StartMine(mineFixtureParams())
	if err != nil {
		t.Fatalf("StartMine: %v", err)
	}
	if done := waitJob(t, s, job.ID); done.Status != JobDone {
		t.Fatalf("job failed: %s", done.Error)
	}
	// A walk that keeps every entry lists the resident results.
	var results []*mine.Result
	s.mined.Retarget(func(k minedKey, res *mine.Result) (minedKey, *mine.Result, bool) {
		results = append(results, res)
		return k, res, true
	})
	if len(results) != 1 {
		t.Fatalf("%d mined results after one job, want 1", len(results))
	}
	if n := len(results[0].WorkerOps); n != s.mineGate.Size() {
		t.Fatalf("the job mined with %d workers, want the gate's %d", n, s.mineGate.Size())
	}
}

// TestConcurrentMineJobsShareOneContext is the -race stress test of the
// single-flight build: a stampede of mine jobs that differ only in k, so
// none can be answered from another's result, must build the context
// exactly once, share it, and each mine what DMine mines alone.
func TestConcurrentMineJobsShareOneContext(t *testing.T) {
	s, _, _ := newTestServer(t, Config{Workers: 2})

	const jobs = 8
	ps := make([]MineParams, jobs)
	ids := make([]string, jobs)
	var wg sync.WaitGroup
	for i := 0; i < jobs; i++ {
		ps[i] = mineFixtureParams()
		ps[i].K = 1 + i
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			job, err := s.StartMine(ps[i])
			if err != nil {
				t.Errorf("StartMine %d: %v", i, err)
				return
			}
			ids[i] = job.ID
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	snap := s.Snapshot()
	hits := 0
	for i, id := range ids {
		job := waitJob(t, s, id)
		if job.Status != JobDone {
			t.Fatalf("job %d failed: %s", i, job.Error)
		}
		p := ps[i]
		res := mine.DMine(snap.G, snap.Pred, mine.Options{K: p.K, Sigma: p.Sigma, D: p.D,
			MaxEdges: p.MaxEdges, MaxCandidatesPerRound: p.Cap, N: 1})
		var want []string
		for _, mm := range res.TopK {
			want = append(want, mm.Rule.Key())
		}
		if job.WarmStarted || !slices.Equal(job.RuleKeys, want) {
			t.Fatalf("job %d: warmStarted %v, mined %v; DMine alone mines %v", i, job.WarmStarted, job.RuleKeys, want)
		}
		if job.ContextCached {
			hits++
		}
	}
	st := s.mineCacheStats()
	if st.Misses != 1 || st.Hits != int64(jobs-1) || hits != jobs-1 {
		t.Fatalf("stats = %+v with %d cached jobs; want exactly one build for %d jobs",
			st, hits, jobs)
	}
}

// TestStatsExposesMineCache checks the /stats wiring end to end.
func TestStatsExposesMineCache(t *testing.T) {
	s, ts, _ := newTestServer(t, Config{Workers: 2})
	p := mineFixtureParams()
	for i := 0; i < 2; i++ {
		p.K += i // an identical job would be answered from the first's result
		job, err := s.StartMine(p)
		if err != nil {
			t.Fatalf("StartMine: %v", err)
		}
		waitJob(t, s, job.ID)
	}
	var st StatsResponse
	if code := doJSON(t, "GET", ts.URL+"/stats", nil, &st); code != 200 {
		t.Fatalf("stats: %d", code)
	}
	if st.MineCache.Hits != 1 || st.MineCache.Misses != 1 || st.MineCache.Entries != 1 {
		t.Fatalf("stats.mineCache = %+v, want hits=1 misses=1 entries=1", st.MineCache)
	}
	// The second job found the first's discoveries in the context.
	if mc := st.MineCache; mc.Parents == 0 || mc.CentreIDs == 0 || mc.DiscoveryHits == 0 {
		t.Fatalf("stats.mineCache = %+v, want stored parents, centre IDs and discovery hits", mc)
	}
	if st.MineCache.Capacity != 4 {
		t.Fatalf("default mine-cache capacity = %d, want 4", st.MineCache.Capacity)
	}
	if b := st.CPUBudget; b.Procs < 1 || b.MineProcs < 1 || b.PoolSize < 1 {
		t.Fatalf("stats.cpuBudget = %+v", b)
	}
}

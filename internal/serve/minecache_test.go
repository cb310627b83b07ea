package serve

import (
	"reflect"
	"sync"
	"testing"
	"time"
)

// waitJob polls the registry until the job leaves the running states.
func waitJob(t *testing.T, s *Server, id string) Job {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		job, ok := s.jobs.Get(id)
		if !ok {
			t.Fatalf("job %s disappeared", id)
		}
		if job.Status == JobDone || job.Status == JobFailed {
			return job
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s", id, job.Status)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// mineFixtureParams is the fixture predicate as mine-job parameters.
func mineFixtureParams() MineParams {
	return MineParams{
		XLabel: "cust", EdgeLabel: "visit", YLabel: "restaurant",
		K: 3, Sigma: 1, D: 2, MaxEdges: 1, Workers: 2, Cap: 20,
	}
}

// TestMineJobContextReuse is the serving-level lifecycle test: an
// identical repeated mine job hits the context cache (and returns the
// byte-identical rule set), jobs with differing (d, n) miss, and a
// snapshot hot-swap invalidates everything.
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
	second := run(p)
	if !second.ContextCached {
		t.Error("repeated job did not reuse the cached context")
	}
	if !reflect.DeepEqual(first.RuleKeys, second.RuleKeys) {
		t.Fatalf("cached run mined different rules:\n%v\nvs\n%v", first.RuleKeys, second.RuleKeys)
	}
	if st := s.mineCacheStats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("mine cache stats = %+v, want hits=1 misses=1", st)
	}

	// Differing fragmentation parameters are distinct preambles.
	pd := p
	pd.D = 1
	if job := run(pd); job.ContextCached {
		t.Error("job with differing d reused a context")
	}
	pn := p
	pn.Workers = 1
	if job := run(pn); job.ContextCached {
		t.Error("job with differing worker count reused a context")
	}

	// A snapshot hot-swap purges the cache and bumps the generation, so
	// even the original parameters build afresh.
	entriesBefore := s.mineCacheStats().Entries
	if entriesBefore == 0 {
		t.Fatal("no cached contexts before swap")
	}
	if _, err := s.SwapRules(rules); err != nil {
		t.Fatalf("SwapRules: %v", err)
	}
	st := s.mineCacheStats()
	if st.Entries != 0 || st.Purges == 0 {
		t.Fatalf("swap did not purge the mine-context cache: %+v", st)
	}
	if job := run(p); job.ContextCached {
		t.Error("post-swap job reused a stale context")
	}
}

// TestConcurrentMineJobsShareOneContext is the -race stress test of the
// single-flight build: a stampede of identical mine jobs must build the
// context exactly once, share it, and all mine the identical rule set.
func TestConcurrentMineJobsShareOneContext(t *testing.T) {
	s, _, _ := newTestServer(t, Config{Workers: 2})

	const jobs = 8
	p := mineFixtureParams()
	ids := make([]string, jobs)
	var wg sync.WaitGroup
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			job, err := s.StartMine(p)
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

	var keys []string
	hits := 0
	for i, id := range ids {
		job := waitJob(t, s, id)
		if job.Status != JobDone {
			t.Fatalf("job %d failed: %s", i, job.Error)
		}
		if keys == nil {
			keys = job.RuleKeys
		} else if !reflect.DeepEqual(keys, job.RuleKeys) {
			t.Fatalf("job %d mined %v, others mined %v", i, job.RuleKeys, keys)
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
	if st.MineCache.Capacity != 4 {
		t.Fatalf("default mine-cache capacity = %d, want 4", st.MineCache.Capacity)
	}
	if b := st.CPUBudget; b.Procs < 1 || b.MineProcs < 1 || b.PoolSize < 1 || b.MineShare <= 0 || b.MineShare > 1 {
		t.Fatalf("stats.cpuBudget = %+v", b)
	}
}

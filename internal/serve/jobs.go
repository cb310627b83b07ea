package serve

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"gpar/internal/core"
	"gpar/internal/graph"
	"gpar/internal/mine"
)

// MineParams is the body of POST /v1/mine: a DMine run over the resident
// graph. Label names must already exist in the graph (they are resolved
// with the read-only Symbols.Lookup, never interned).
//
// A job mines with one worker per slot of the server's shared mine.Gate,
// which caps how many workers across all jobs execute at once. Mining
// results are byte-identical across worker counts — including when
// mine.Options.EmbedCap truncates dense neighborhoods, since embeddings
// are enumerated in a canonical global-ID order — so the width only
// affects how the candidate centers are split, never the answer.
type MineParams struct {
	XLabel    string  `json:"xLabel"`
	EdgeLabel string  `json:"edgeLabel"`
	YLabel    string  `json:"yLabel"`
	K         int     `json:"k,omitempty"`
	Sigma     int     `json:"sigma,omitempty"`
	D         int     `json:"d,omitempty"`
	Lambda    float64 `json:"lambda"`
	MaxEdges  int     `json:"maxEdges,omitempty"`
	Cap       int     `json:"cap,omitempty"`
	// Install swaps the mined top-k in as the served rule set on success,
	// bumping the generation and invalidating the match-set cache.
	Install bool `json:"install,omitempty"`
	// TimeoutMs caps the job's wall-clock run time; past it the run is
	// canceled at its next BSP superstep boundary and the job finishes in
	// the deadline_exceeded terminal state. 0 means no deadline.
	TimeoutMs int `json:"timeoutMs,omitempty"`
}

// JobStatus is the lifecycle of a mine job.
type JobStatus string

const (
	JobPending  JobStatus = "pending"
	JobRunning  JobStatus = "running"
	JobDone     JobStatus = "done"
	JobFailed   JobStatus = "failed"
	JobCanceled JobStatus = "canceled"          // DELETE /v1/jobs/{id} or shutdown drain
	JobDeadline JobStatus = "deadline_exceeded" // the job's timeoutMs expired mid-run
)

// terminal reports whether a status is final: terminal jobs are evictable
// from the registry and cannot be canceled.
func terminal(st JobStatus) bool {
	switch st {
	case JobDone, JobFailed, JobCanceled, JobDeadline:
		return true
	}
	return false
}

// Job is one asynchronous DMine run. Fields are snapshots; the registry
// returns copies, so readers never observe a job mid-update.
type Job struct {
	ID       string     `json:"id"`
	Status   JobStatus  `json:"status"`
	Params   MineParams `json:"params"`
	Created  time.Time  `json:"created"`
	Started  time.Time  `json:"started,omitzero"`
	Finished time.Time  `json:"finished,omitzero"`
	Error    string     `json:"error,omitempty"`

	Rounds    int      `json:"rounds,omitempty"`
	Generated int      `json:"generated,omitempty"`
	Kept      int      `json:"kept,omitempty"`
	F         float64  `json:"f,omitempty"`
	RuleKeys  []string `json:"ruleKeys,omitempty"`
	Installed bool     `json:"installed,omitempty"`
	// Generation is the snapshot generation after install (0 otherwise).
	Generation uint64 `json:"generation,omitempty"`
	// ContextCached reports whether the job reused a cached mine context.
	// A context is the graph, the x-label's node list, (d, n) and the memo
	// of every extension its jobs have discovered, so a hit skips that
	// discovery for parents earlier jobs reached (mine-jobs cpu_ms_per_req
	// went 1.61 → 0.60 when the memo moved onto the context); results are
	// byte-identical either way.
	ContextCached bool `json:"contextCached,omitempty"`
	// ServedGeneration is the snapshot generation the job was admitted
	// against — the graph it mined.
	ServedGeneration uint64 `json:"servedGeneration,omitempty"`
	// WarmStarted reports that the job was answered from a finished mine
	// result with the same parameters for this generation — mined by an
	// earlier job at it, or carried from an earlier generation by changes
	// that stayed beyond its reach: no mining ran at all. The result is
	// byte-identical to a fresh run by publish's reach rule.
	WarmStarted bool `json:"warmStarted,omitempty"`
	// Supersteps is the run's per-round account — frontier, messages, rules
	// kept, and the milliseconds its generate, assemble and diversify phases
	// took — as the coordinator stamped it.
	// Absent on a warm-started job, which ran nothing.
	Supersteps []mine.SuperstepStat `json:"supersteps,omitempty"`
	// Capped is how many (parent rule, center) embedding enumerations of the
	// run reached EmbedCap (mine.Result.Capped): where it is non-zero the
	// mined supports and the candidate set may be lower bounds. Absent on a
	// warm-started job and when nothing was capped.
	Capped int64 `json:"capped,omitempty"`

	// cancel stops the job's run context. It is installed at creation (so a
	// DELETE can never race an unregistered job) and cleared when the job
	// reaches a terminal state.
	cancel context.CancelFunc
}

// maxJobs bounds the registry: when exceeded, the oldest finished jobs are
// evicted (running and pending jobs are never dropped), so a daemon that
// re-mines periodically does not grow without bound.
const maxJobs = 128

// Jobs is the in-memory job registry.
type Jobs struct {
	mu  sync.Mutex
	m   map[string]*Job
	seq int
}

// NewJobs returns an empty registry.
func NewJobs() *Jobs {
	return &Jobs{m: make(map[string]*Job)}
}

func (j *Jobs) create(p MineParams, servedGen uint64, cancel context.CancelFunc) Job {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.seq++
	job := &Job{
		ID:               fmt.Sprintf("job-%d", j.seq),
		Status:           JobPending,
		Params:           p,
		Created:          time.Now(),
		ServedGeneration: servedGen,
		cancel:           cancel,
	}
	j.m[job.ID] = job
	for len(j.m) > maxJobs {
		var oldest *Job
		for _, cand := range j.m {
			if !terminal(cand.Status) {
				continue
			}
			if oldest == nil || cand.Created.Before(oldest.Created) {
				oldest = cand
			}
		}
		if oldest == nil {
			break // everything is still in flight; keep them all
		}
		delete(j.m, oldest.ID)
	}
	return *job
}

// cancelJob delivers a cancellation to a live job. It returns the job's
// snapshot, whether the id exists, and whether a cancel was actually
// signaled (false for jobs already in a terminal state). The job does not
// flip to canceled here — the running goroutine observes the context at
// its next superstep boundary and records the terminal state itself, so
// status transitions stay single-writer.
func (j *Jobs) cancelJob(id string) (Job, bool, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	job, ok := j.m[id]
	if !ok {
		return Job{}, false, false
	}
	if terminal(job.Status) || job.cancel == nil {
		return *job, true, false
	}
	job.cancel()
	return *job, true, true
}

func (j *Jobs) update(id string, fn func(*Job)) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if job, ok := j.m[id]; ok {
		fn(job)
	}
}

// Get returns a copy of the job, if it exists.
func (j *Jobs) Get(id string) (Job, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	job, ok := j.m[id]
	if !ok {
		return Job{}, false
	}
	return *job, true
}

// List returns copies of all jobs, newest first.
func (j *Jobs) List() []Job {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]Job, 0, len(j.m))
	for _, job := range j.m {
		out = append(out, *job)
	}
	sort.Slice(out, func(i, k int) bool { return out[i].Created.After(out[k].Created) })
	return out
}

// Counts returns per-status totals for /stats.
func (j *Jobs) Counts() map[JobStatus]int {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make(map[JobStatus]int, 4)
	for _, job := range j.m {
		out[job.Status]++
	}
	return out
}

// StartMine validates params against the current snapshot and launches the
// DMine run in the background, returning the pending job. The whole
// admission runs under the swap lock: Symbols.Lookup must not race a
// concurrent Intern (PUT /v1/rules), and the closed-check + jobWG.Add must
// serialize with Shutdown so no job registers after the drain begins.
func (s *Server) StartMine(p MineParams) (Job, error) {
	if err := p.validate(); err != nil {
		return Job{}, err
	}
	s.swapMu.Lock()
	defer s.swapMu.Unlock()
	if s.closed.Load() {
		return Job{}, fmt.Errorf("serve: server is shutting down")
	}
	snap := s.snap.Load()
	if snap == nil {
		return Job{}, fmt.Errorf("serve: no snapshot loaded")
	}
	pred, err := lookupPred(snap.G.Symbols(), p)
	if err != nil {
		return Job{}, err
	}
	// The job context parents on baseCtx (so Shutdown cancels every job) and
	// is registered with the job before the goroutine launches, so a DELETE
	// arriving immediately after the 202 always finds something to cancel.
	var jobCtx context.Context
	var cancel context.CancelFunc
	if p.TimeoutMs > 0 {
		jobCtx, cancel = context.WithTimeout(s.baseCtx, time.Duration(p.TimeoutMs)*time.Millisecond)
	} else {
		jobCtx, cancel = context.WithCancel(s.baseCtx)
	}
	job := s.jobs.create(p, snap.Gen, cancel)
	s.jobWG.Add(1)
	go s.runMine(job.ID, jobCtx, cancel, snap, pred, p)
	return job, nil
}

func (s *Server) runMine(id string, jobCtx context.Context, cancel context.CancelFunc, snap *Snapshot, pred core.Predicate, p MineParams) {
	defer s.jobWG.Done()
	defer cancel()
	defer func() {
		// A panicking mine job must not take the daemon down (or leak its
		// jobWG slot): record it as a failed job and keep serving.
		if r := recover(); r != nil {
			s.nJobPanics.Add(1)
			s.jobs.update(id, func(j *Job) {
				j.Finished = time.Now()
				j.Status = JobFailed
				j.Error = fmt.Sprintf("panic: %v", r)
				j.cancel = nil
			})
		}
	}()
	s.jobs.update(id, func(j *Job) {
		j.Status = JobRunning
		j.Started = time.Now()
	})
	// Defaults are resolved here (not left to DMine) because the resolved D
	// is part of the context-cache key. The job runs one worker per slot of
	// the shared gate, which caps how much of the machine this job's workers
	// (and every other job's) may occupy at once.
	opts := mine.Options{
		K: p.K, Sigma: p.Sigma, D: p.D, Lambda: p.Lambda, N: s.mineGate.Size(),
		MaxEdges: p.MaxEdges, MaxCandidatesPerRound: p.Cap,
	}.Defaults()
	opts.Gate = s.mineGate
	opts.Ctx = jobCtx
	// A finished result for these parameters at this generation answers
	// the job without even a context. Jobs never join each other's runs:
	// each has its own cancel and deadline.
	mkey := minedKeyFor(snap.Gen, pred, opts)
	res, warmStarted := s.mined.Get(mkey)
	var mineErr error
	ctxHit := false
	if warmStarted {
		s.nWarmMineHits.Add(1)
	} else {
		key := MineCtxKey{Gen: snap.Gen, XLabel: pred.XLabel, D: opts.D}
		// An error here is another job's build of this key having panicked
		// under this one: the job fails rather than mine on a nil context.
		var mctx *mine.Context
		var how memoOutcome
		mctx, how, mineErr = s.mineCtx.GetOrBuild(key, func() (*mine.Context, error) {
			return mine.NewContext(snap.G, pred.XLabel, opts), nil
		})
		ctxHit = how != memoBuilt
		if s.gen.Load() != key.Gen {
			// A publish raced the build. Its walk may have run before this
			// key was inserted, and no future job keys this generation, so
			// the entry would only pin the retired snapshot's graph. This run
			// still mines on the context it got — the snapshot it was
			// admitted against.
			s.mineCtx.Remove(key)
		}
		if mineErr == nil {
			res, mineErr = mine.DMineCtx(mctx, pred, opts)
		}
	}
	if mineErr != nil {
		status, msg := JobFailed, mineErr.Error()
		var ce *mine.CanceledError
		if errors.As(mineErr, &ce) {
			if errors.Is(ce.Err, context.DeadlineExceeded) {
				status = JobDeadline
			} else {
				status = JobCanceled
			}
		}
		s.jobs.update(id, func(j *Job) {
			j.Finished = time.Now()
			j.Status = status
			j.Error = msg
			j.ContextCached = ctxHit
			j.cancel = nil
		})
		return
	}

	if !warmStarted {
		// Stored before any install, so the install's publish carries it
		// to the next generation along with every other live entry.
		s.mined.Put(mkey, res)
		s.nMineCapped.Add(res.Capped)
	}
	rules := make([]*core.Rule, 0, len(res.TopK))
	keys := make([]string, 0, len(res.TopK))
	// Rule.Key renders label names; serialize against concurrent interning
	// (PUT /v1/rules) with the swap lock.
	s.swapMu.Lock()
	for _, mm := range res.TopK {
		rules = append(rules, mm.Rule)
		keys = append(keys, mm.Rule.Key())
	}
	s.swapMu.Unlock()
	installed := false
	var gen uint64
	var installErr error
	if p.Install && len(rules) > 0 && !s.closed.Load() {
		// Install against the graph the mine ran on, verified under the
		// swap lock; a concurrent graph swap wins and this install fails.
		gen, installErr = s.installIfCurrent(snap.G, pred, rules)
		installed = installErr == nil
	}
	s.jobs.update(id, func(j *Job) {
		j.Finished = time.Now()
		j.Rounds = res.Rounds
		j.Generated = res.Generated
		j.Kept = res.Kept
		j.F = res.F
		j.RuleKeys = keys
		j.Installed = installed
		j.Generation = gen
		j.ContextCached = ctxHit
		j.WarmStarted = warmStarted
		if !warmStarted {
			j.Supersteps = res.Supersteps
			j.Capped = res.Capped
		}
		if installErr != nil {
			j.Status = JobFailed
			j.Error = installErr.Error()
		} else {
			j.Status = JobDone
		}
		j.cancel = nil
	})
}

// validate rejects parameters outside their ranges before a job exists:
// a λ outside [0, 1] turns the objective's confidence weight (1-λ)/N
// negative, and no count or duration may be negative (0 selects the
// default).
func (p MineParams) validate() error {
	if !(p.Lambda >= 0 && p.Lambda <= 1) {
		return fmt.Errorf("serve: lambda %v outside [0, 1]", p.Lambda)
	}
	for _, f := range []struct {
		name string
		v    int
	}{{"k", p.K}, {"sigma", p.Sigma}, {"d", p.D}, {"maxEdges", p.MaxEdges}, {"cap", p.Cap}, {"timeoutMs", p.TimeoutMs}} {
		if f.v < 0 {
			return fmt.Errorf("serve: %s %d is negative", f.name, f.v)
		}
	}
	return nil
}

// lookupPred resolves the mine predicate's label names without interning.
func lookupPred(syms *graph.Symbols, p MineParams) (core.Predicate, error) {
	var pred core.Predicate
	for _, f := range []struct {
		name string
		dst  *graph.Label
	}{
		{p.XLabel, &pred.XLabel},
		{p.EdgeLabel, &pred.EdgeLabel},
		{p.YLabel, &pred.YLabel},
	} {
		if f.name == "" {
			return pred, fmt.Errorf("serve: mine predicate has empty label")
		}
		l := syms.Lookup(f.name)
		if l == graph.NoLabel {
			return pred, fmt.Errorf("serve: label %q does not occur in the graph", f.name)
		}
		*f.dst = l
	}
	return pred, nil
}

package remote

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"gpar/internal/core"
	"gpar/internal/mine"
)

// RetryPolicy bounds how hard the coordinator tries to run a job on the
// fleet before giving up: total attempts and exponential backoff between
// them, with bounded jitter so a fleet of coordinators does not retry in
// lockstep. The zero value means defaults.
type RetryPolicy struct {
	// Attempts is the total number of tries, the first included (default 3).
	Attempts int
	// BaseBackoff is the pause after the first failure; it doubles per
	// failure up to maxBackoff (default 50ms).
	BaseBackoff time.Duration
	// Sleep replaces time.Sleep when non-nil (tests pin backoff schedules
	// without waiting them out).
	Sleep func(time.Duration)
}

const (
	// maxBackoff caps the doubling of BaseBackoff.
	maxBackoff = 2 * time.Second
	// backoffJitter is the share of each pause a uniformly random draw may
	// shave off: sleep between half and all of the nominal backoff.
	backoffJitter = 0.5
)

func (p RetryPolicy) defaults() RetryPolicy {
	if p.Attempts <= 0 {
		p.Attempts = 3
	}
	if p.BaseBackoff <= 0 {
		p.BaseBackoff = 50 * time.Millisecond
	}
	if p.Sleep == nil {
		p.Sleep = time.Sleep
	}
	return p
}

// Backoff returns the pause after the n-th failure (1-based): BaseBackoff
// doubled per failure, capped at maxBackoff, minus a random share up to
// backoffJitter.
func (p RetryPolicy) Backoff(n int) time.Duration {
	d := p.defaults().BaseBackoff
	for i := 1; i < n && d < maxBackoff; i++ {
		d *= 2
	}
	d = min(d, maxBackoff)
	return d - time.Duration(backoffJitter*rand.Float64()*float64(d))
}

// JobReport is the attempt accounting of one MineFleet call, for the
// serving layer's per-job bookkeeping.
type JobReport struct {
	// Attempts is how many fleet cycles ran (1 on a clean first try).
	Attempts int
	// DialFailures counts attempts that died before any worker held job
	// state (connect, handshake, or health-probe failures).
	DialFailures int
	// WorkerFailures counts attempts that died mid-job (stall past the
	// step deadline, disconnect, protocol violation, worker-reported
	// error).
	WorkerFailures int
	// FragHits and FragShips are the successful attempt's fragment-cache
	// telemetry, summed over the fleet: setups acked straight from worker
	// caches versus setups that shipped the fragment body.
	FragHits  int
	FragShips int
}

// PingAll health-probes every connection in parallel; the first failure is
// returned. A probe failure poisons only that connection (its error is
// sticky) — callers retry with a fresh fleet.
func PingAll(conns []*Conn) error {
	errs := make([]error, len(conns))
	done := make(chan struct{}, len(conns))
	for i, c := range conns {
		go func(i int, c *Conn) {
			errs[i] = c.Ping()
			done <- struct{}{}
		}(i, c)
	}
	for range conns {
		<-done
	}
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("worker %d: %w", i, err)
		}
	}
	return nil
}

// MineFleet is the resilient fleet entry point: dial every worker,
// health-probe them, run one distributed mining job, and on any failure —
// refused dial, handshake breakdown, a stall past the step deadline, a
// disconnect, a protocol violation — close the fleet, back off, and retry
// the whole cycle on fresh connections, up to policy.Attempts. Jobs are
// repeatable by construction (workers hold no state across Finish, and Σ
// installs only on success), so a retried job's result is byte-identical to
// a clean run's.
//
// On success the report carries the attempt count and the fragment-cache
// telemetry of the winning attempt. On exhaustion the last error is
// returned (dial-phase failures wrap ErrFleetUnavailable; mid-job failures
// are *mine.WorkerError) and the caller owns the fallback decision. stop,
// when non-nil, is consulted before each retry so a draining server can
// abandon the fleet promptly instead of sleeping through backoffs.
func MineFleet(ctx *mine.Context, pred core.Predicate, opts mine.Options, addrs []string, dopts DialOptions, policy RetryPolicy, stop func() bool) (*mine.Result, JobReport, error) {
	policy = policy.defaults()
	var rep JobReport
	var lastErr error
	for attempt := 1; attempt <= policy.Attempts; attempt++ {
		if attempt > 1 {
			if stop != nil && stop() {
				break
			}
			policy.Sleep(policy.Backoff(attempt - 1))
			if stop != nil && stop() {
				break
			}
		}
		// A run context that died between attempts ends the job with the same
		// typed error an in-flight cancel produces.
		if opts.Ctx != nil {
			if cerr := opts.Ctx.Err(); cerr != nil {
				return nil, rep, &mine.CanceledError{Superstep: 0, Err: cerr}
			}
		}
		rep.Attempts = attempt
		conns, err := DialFleet(addrs, dopts)
		if err != nil {
			rep.DialFailures++
			lastErr = err
			continue
		}
		if err := PingAll(conns); err != nil {
			CloseAll(conns)
			rep.DialFailures++
			lastErr = fmt.Errorf("%w: health probe: %v", ErrFleetUnavailable, err)
			continue
		}
		res, err := Mine(ctx, pred, opts, conns)
		hits, ships := 0, 0
		for _, c := range conns {
			h, s := c.FragStats()
			hits += h
			ships += s
		}
		CloseAll(conns)
		if err != nil {
			// A canceled run is not a fleet failure: the caller asked for the
			// abort, so retrying would defy it. Surface the typed error as is.
			var ce *mine.CanceledError
			if errors.As(err, &ce) {
				return nil, rep, err
			}
			rep.WorkerFailures++
			lastErr = err
			continue
		}
		rep.FragHits, rep.FragShips = hits, ships
		return res, rep, nil
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("%w: job abandoned before any attempt completed", ErrFleetUnavailable)
	}
	return nil, rep, lastErr
}

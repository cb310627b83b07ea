package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	"gpar/internal/core"
	"gpar/internal/graph"
)

// jsonFloat marshals NaN and ±Inf — which encoding/json rejects — as
// strings. Rule confidence is legitimately +Inf (the "logic rule" trivial
// case) and NaN (supp(q,G) = 0).
type jsonFloat float64

// MarshalJSON implements json.Marshaler.
func (f jsonFloat) MarshalJSON() ([]byte, error) {
	v := float64(f)
	switch {
	case math.IsNaN(v):
		return []byte(`"NaN"`), nil
	case math.IsInf(v, 1):
		return []byte(`"+Inf"`), nil
	case math.IsInf(v, -1):
		return []byte(`"-Inf"`), nil
	}
	return json.Marshal(v)
}

// IdentifyRequest is the body of POST /v1/identify. Rules selects by key
// and Indices by position; both empty means the whole resident set Σ.
type IdentifyRequest struct {
	Rules   []string `json:"rules,omitempty"`
	Indices []int    `json:"indices,omitempty"`
	// Eta is the confidence bound η; 0 means η = 1.
	Eta float64 `json:"eta,omitempty"`
	// IncludeMatches returns each rule's match set, not just its size.
	IncludeMatches bool `json:"includeMatches,omitempty"`
}

// IdentifyRule is one rule's slice of an identify response.
type IdentifyRule struct {
	Index     int            `json:"index"`
	Key       string         `json:"key"`
	Conf      jsonFloat      `json:"conf"`
	SuppR     int            `json:"suppR"`
	SuppQ     int            `json:"suppQ"`
	Matches   int            `json:"matches"`
	Applied   bool           `json:"applied"`
	Cached    bool           `json:"cached"`
	Coalesced bool           `json:"coalesced,omitempty"`
	Nodes     []graph.NodeID `json:"nodes,omitempty"`
}

// IdentifyResponse is Σ(x,G,η) for the selected rules.
type IdentifyResponse struct {
	Generation uint64         `json:"generation"`
	Eta        float64        `json:"eta"`
	Identified []graph.NodeID `json:"identified"`
	Count      int            `json:"count"`
	Rules      []IdentifyRule `json:"rules"`
	ElapsedMs  float64        `json:"elapsedMs"`
}

// RuleInfo is one entry of GET /v1/rules.
type RuleInfo struct {
	Index  int    `json:"index"`
	Key    string `json:"key"`
	Rule   string `json:"rule"`
	Size   int    `json:"size"`
	Radius int    `json:"radius"`
}

// RulesResponse is the body of GET /v1/rules.
type RulesResponse struct {
	Generation uint64     `json:"generation"`
	Pred       string     `json:"pred"`
	Rules      []RuleInfo `json:"rules"`
}

// StatsResponse is the body of GET /stats.
type StatsResponse struct {
	Generation uint64  `json:"generation"`
	UptimeSec  float64 `json:"uptimeSec"`
	Graph      struct {
		Nodes int `json:"nodes"`
		Edges int `json:"edges"`
	} `json:"graph"`
	Pred  string `json:"pred"`
	Rules int    `json:"rules"`
	// Fragments is the number of candidate chunks one rule evaluation fans
	// out over (Config.Workers).
	Fragments int `json:"fragments"`
	PoolSize  int `json:"poolSize"`
	// CPUBudget is the GOMAXPROCS split: identify traffic runs on at most
	// PoolSize chunk evaluators while all mine jobs together run at most
	// MineProcs worker goroutines, and each job mines with MineProcs workers.
	CPUBudget struct {
		Procs     int `json:"procs"`
		MineProcs int `json:"mineProcs"`
		PoolSize  int `json:"poolSize"`
	} `json:"cpuBudget"`
	Cache CacheStats `json:"cache"`
	// MineCache counts mine-context reuse: hits are mine jobs that found
	// their (generation, xLabel, d) context already resident. A hit saves
	// about 180 ns; the block stays because the benchmark reads its ratio.
	MineCache CacheStats `json:"mineCache"`
	// MineCapped sums the jobs' capped counts: embedding enumerations that
	// reached EmbedCap in every mine run completed since start.
	MineCapped int64      `json:"mineCapped"`
	Batch      BatchStats `json:"batch"`
	// Kernel sums the identify kernel's work over the evaluations built
	// since start: centres tried, filter survivors, confirmed matches.
	Kernel struct {
		Centres   int64 `json:"centres"`
		Survivors int64 `json:"survivors"`
		Matches   int64 `json:"matches"`
	} `json:"kernel"`
	Requests struct {
		Identify int64 `json:"identify"`
		Rules    int64 `json:"rules"`
		Mine     int64 `json:"mine"`
		Swaps    int64 `json:"swaps"`
	} `json:"requests"`
	Jobs map[JobStatus]int `json:"jobs"`
	// Delta reports live-graph maintenance: applied batches and ops, refused
	// batches, the current snapshot's overlay state, selective match-set
	// invalidation traffic (carried vs dropped entries), warm mine-result
	// hits, and compaction activity.
	Delta struct {
		Batches          int64 `json:"batches"`
		Ops              int64 `json:"ops"`
		Rejected         int64 `json:"rejected"`
		Overlaid         bool  `json:"overlaid"`
		OverlayOps       int   `json:"overlayOps"`
		RulesCarried     int64 `json:"rulesCarried"`
		RulesInvalidated int64 `json:"rulesInvalidated"`
		WarmMineHits     int64 `json:"warmMineHits"`
		Compactions      int64 `json:"compactions"`
		CompactAborts    int64 `json:"compactAborts"`
		CompactThreshold int   `json:"compactThreshold"`
	} `json:"delta"`
	// Persistence reports the durability layer: snapshot loads at recovery,
	// WAL traffic, replayed and truncated records, quarantined files, and the
	// generation of the newest checkpoint. Absent when persistence is off.
	Persistence *PersistenceStats `json:"persistence,omitempty"`
	// Admission reports the overload front door: how many requests are
	// evaluating vs queued, and how many were shed (429) because the queue
	// was full or the wait exceeded its budget. Absent when MaxQueue < 0.
	Admission *AdmissionStats `json:"admission,omitempty"`
	// Saturation is the live occupancy of the two CPU pools plus the
	// admission queue depth — the signals to watch before shedding starts.
	Saturation struct {
		PoolInUse     int   `json:"poolInUse"`
		PoolSize      int   `json:"poolSize"`
		QueueDepth    int64 `json:"queueDepth"`
		MineGateInUse int   `json:"mineGateInUse"`
		MineGateSize  int   `json:"mineGateSize"`
	} `json:"saturation"`
	// Lifecycle counts terminal-path events: client-side aborts, explicit
	// DELETE cancels, request deadlines, and recovered panics.
	Lifecycle struct {
		CancelRequests int64 `json:"cancelRequests"`
		Deadlines      int64 `json:"deadlines"`
		ClientGone     int64 `json:"clientGone"`
		Panics         int64 `json:"panics"`
		JobPanics      int64 `json:"jobPanics"`
	} `json:"lifecycle"`
}

// AdmissionStats is the /stats view of the bounded admission queue.
type AdmissionStats struct {
	Running      int    `json:"running"`
	RunningCap   int    `json:"runningCap"`
	Queued       int64  `json:"queued"`
	MaxQueue     int    `json:"maxQueue"`
	ShedFull     int64  `json:"shedFull"`
	ShedTimeout  int64  `json:"shedTimeout"`
	QueueTimeout string `json:"queueTimeout"`
}

// Handler returns the server's HTTP API, wrapped in the panic-recovery
// middleware: a panicking handler answers 500 with a request ID instead of
// tearing down the connection, and the panic is counted on /stats.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/identify", s.handleIdentify)
	mux.HandleFunc("GET /v1/rules", s.handleRulesGet)
	mux.HandleFunc("PUT /v1/rules", s.handleRulesPut)
	mux.HandleFunc("POST /v1/mine", s.handleMine)
	mux.HandleFunc("POST /v1/graph/delta", s.handleDelta)
	mux.HandleFunc("GET /v1/jobs", s.handleJobs)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobCancel)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /stats", s.handleStats)
	return s.recoverPanics(mux)
}

// recoverPanics tags every response with an X-Request-ID and converts
// handler panics into a 500 JSON error naming that ID, so operators can
// correlate a client-reported failure with server logs. If the handler
// already wrote a header before panicking, the body write below is a no-op
// garbage tail on a broken response — acceptable, the alternative is the
// connection reset Go's default panic handling produces.
func (s *Server) recoverPanics(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		reqID := fmt.Sprintf("r-%d", s.reqSeq.Add(1))
		w.Header().Set("X-Request-ID", reqID)
		defer func() {
			if rec := recover(); rec != nil {
				s.nPanics.Add(1)
				httpError(w, http.StatusInternalServerError,
					"internal error (request %s): %v", reqID, rec)
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// ready returns the current snapshot or writes the appropriate error.
func (s *Server) ready(w http.ResponseWriter) *Snapshot {
	if s.closed.Load() {
		httpError(w, http.StatusServiceUnavailable, "server is shutting down")
		return nil
	}
	snap := s.snap.Load()
	if snap == nil {
		httpError(w, http.StatusServiceUnavailable, "no snapshot loaded")
		return nil
	}
	return snap
}

func (s *Server) handleIdentify(w http.ResponseWriter, r *http.Request) {
	s.nIdentify.Add(1)
	snap := s.ready(w)
	if snap == nil {
		return
	}
	var req IdentifyRequest
	if !decodeBody(w, r, maxQueryBody, &req) {
		return
	}
	eta := req.Eta
	if eta == 0 {
		eta = 1
	}
	selected := snap.Rules
	if len(req.Rules) > 0 || len(req.Indices) > 0 {
		selected = nil
		seen := make(map[string]bool)
		pick := func(sr *ServedRule) {
			if !seen[sr.Key] {
				seen[sr.Key] = true
				selected = append(selected, sr)
			}
		}
		for _, key := range req.Rules {
			sr, ok := snap.RuleByKey(key)
			if !ok {
				httpError(w, http.StatusNotFound, "unknown rule key %q", key)
				return
			}
			pick(sr)
		}
		for _, ix := range req.Indices {
			if ix < 0 || ix >= len(snap.Rules) {
				httpError(w, http.StatusNotFound, "rule index %d out of range [0,%d)", ix, len(snap.Rules))
				return
			}
			pick(snap.Rules[ix])
		}
	}
	if len(selected) == 0 {
		httpError(w, http.StatusConflict, "no rules loaded; mine (POST /v1/mine) or upload (PUT /v1/rules) first")
		return
	}

	// Deadline propagation: the request carries the client's own context
	// plus the server-side ceiling. Admission happens after the body is
	// decoded (bad requests must not queue) and before any evaluation work.
	ctx := r.Context()
	if s.cfg.RequestTimeout > 0 {
		var cancelReq context.CancelFunc
		ctx, cancelReq = context.WithTimeout(ctx, s.cfg.RequestTimeout)
		defer cancelReq()
	}
	if s.admit != nil {
		release, err := s.admit.admit(ctx)
		if err != nil {
			s.shedResponse(w, err)
			return
		}
		defer release()
	}

	start := time.Now()
	resp := IdentifyResponse{Generation: snap.Gen, Eta: eta}
	// Evaluate the selected rules concurrently; the shared Pool still
	// bounds total matching work, this just overlaps the per-rule chains.
	type outcome struct {
		ev                *RuleEval
		cached, coalesced bool
		err               error
	}
	outcomes := make([]outcome, len(selected))
	var wg sync.WaitGroup
	for i, sr := range selected {
		wg.Add(1)
		go func(i int, sr *ServedRule) {
			defer wg.Done()
			o := &outcomes[i]
			// This goroutine is outside recoverPanics: a panicking
			// evaluation becomes the rule's error, or it would end the
			// process.
			defer func() {
				if rec := recover(); rec != nil {
					s.nPanics.Add(1)
					o.err = fmt.Errorf("evaluation panicked: %v", rec)
				}
			}()
			o.ev, o.cached, o.coalesced, o.err = s.identifyOne(snap, sr)
		}(i, sr)
	}
	wg.Wait()
	// Evaluations run to completion once started — partial results must
	// never enter the shared cache — so the deadline is enforced at the
	// boundaries: a request whose deadline passed while it evaluated
	// answers 503 rather than pretending it met its budget.
	if err := ctx.Err(); err != nil {
		s.nDeadline.Add(1)
		httpError(w, http.StatusServiceUnavailable, "deadline exceeded during evaluation: %v", err)
		return
	}
	var applied [][]graph.NodeID
	for i, sr := range selected {
		o := outcomes[i]
		if o.err != nil {
			httpError(w, http.StatusInternalServerError, "rule %s: %v", sr.Key, o.err)
			return
		}
		ir := IdentifyRule{
			Index:     sr.Index,
			Key:       sr.Key,
			Conf:      jsonFloat(o.ev.Conf),
			SuppR:     o.ev.Stats.SuppR,
			SuppQ:     o.ev.Stats.SuppQ,
			Matches:   len(o.ev.Matches),
			Applied:   o.ev.Conf >= eta,
			Cached:    o.cached,
			Coalesced: o.coalesced,
		}
		if req.IncludeMatches {
			ir.Nodes = o.ev.Matches
		}
		if ir.Applied {
			applied = append(applied, o.ev.Matches)
		}
		resp.Rules = append(resp.Rules, ir)
	}
	resp.Identified = unionSorted(applied)
	resp.Count = len(resp.Identified)
	resp.ElapsedMs = float64(time.Since(start).Microseconds()) / 1000
	writeJSON(w, http.StatusOK, resp)
}

// shedResponse maps an admission failure to its HTTP verdict: queue-full
// and queue-timeout shed with 429 + Retry-After (one queue-timeout is an
// honest estimate of when capacity frees up), a request-side deadline that
// expired while queued answers 503, and a client that vanished gets
// nothing — writing to it is wasted work, which is the point of shedding.
func (s *Server) shedResponse(w http.ResponseWriter, err error) {
	retryAfter := strconv.Itoa(max(1, int(s.cfg.QueueTimeout/time.Second)))
	switch {
	case errors.Is(err, errQueueFull):
		s.nShedFull.Add(1)
		w.Header().Set("Retry-After", retryAfter)
		httpError(w, http.StatusTooManyRequests, "overloaded: admission queue full")
	case errors.Is(err, errQueueTimeout):
		s.nShedTimeout.Add(1)
		w.Header().Set("Retry-After", retryAfter)
		httpError(w, http.StatusTooManyRequests, "overloaded: queued longer than %s", s.cfg.QueueTimeout)
	case errors.Is(err, context.DeadlineExceeded):
		s.nDeadline.Add(1)
		httpError(w, http.StatusServiceUnavailable, "deadline exceeded while queued")
	default: // context.Canceled: the client hung up
		s.nClientGone.Add(1)
	}
}

func (s *Server) handleRulesGet(w http.ResponseWriter, r *http.Request) {
	s.nRules.Add(1)
	snap := s.ready(w)
	if snap == nil {
		return
	}
	resp := RulesResponse{Generation: snap.Gen, Pred: snap.PredDisplay, Rules: []RuleInfo{}}
	for _, sr := range snap.Rules {
		resp.Rules = append(resp.Rules, RuleInfo{
			Index:  sr.Index,
			Key:    sr.Key,
			Rule:   sr.Display,
			Size:   sr.Size,
			Radius: sr.Radius,
		})
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleRulesPut replaces the served rule set with one in the core rule
// text format (the round-trip of core.WriteRules / core.ReadRules), hot-
// swapping the snapshot.
func (s *Server) handleRulesPut(w http.ResponseWriter, r *http.Request) {
	s.nRules.Add(1)
	snap := s.ready(w)
	if snap == nil {
		return
	}
	// Drain the body before taking any lock: a stalled client must not
	// wedge the swap path (or Shutdown) on a network read.
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxRulesBody))
	if err != nil {
		httpError(w, bodyErrorCode(err), "read body: %v", err)
		return
	}
	// ReadRules interns label names into the shared symbol table, which is
	// only safe under the swap lock.
	s.swapMu.Lock()
	rules, err := core.ReadRules(bytes.NewReader(body), snap.G.Symbols())
	s.swapMu.Unlock()
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad rule set: %v", err)
		return
	}
	gen, err := s.SwapRules(rules)
	if err != nil {
		httpError(w, http.StatusUnprocessableEntity, "swap failed: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"generation": gen, "rules": len(rules)})
}

func (s *Server) handleMine(w http.ResponseWriter, r *http.Request) {
	s.nMine.Add(1)
	if s.ready(w) == nil {
		return
	}
	var p MineParams
	if !decodeBody(w, r, maxQueryBody, &p) {
		return
	}
	job, err := s.StartMine(p)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusAccepted, job)
}

// handleJobCancel is DELETE /v1/jobs/{id}: it delivers a cancellation to a
// pending or running mine job. 202 means the cancel was signaled — the job
// flips to canceled when its run observes the context at the next superstep
// boundary; poll GET /v1/jobs/{id} for the terminal state. Jobs already
// finished answer 409.
func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	job, found, signaled := s.jobs.cancelJob(id)
	if !found {
		httpError(w, http.StatusNotFound, "unknown job %q", id)
		return
	}
	if !signaled {
		httpError(w, http.StatusConflict, "job %s already %s", id, job.Status)
		return
	}
	s.nCancelReq.Add(1)
	writeJSON(w, http.StatusAccepted, job)
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.jobs.List())
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	job, ok := s.jobs.Get(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, job)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	status, code := "ok", http.StatusOK
	if s.closed.Load() || s.snap.Load() == nil {
		status, code = "unavailable", http.StatusServiceUnavailable
	}
	durability := "off"
	if p := s.persist; p != nil {
		durability = string(p.policy)
	}
	writeJSON(w, code, map[string]any{
		"status":     status,
		"generation": s.gen.Load(),
		"uptimeSec":  time.Since(s.start).Seconds(),
		"durability": durability,
	})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	var resp StatsResponse
	resp.Generation, resp.UptimeSec = s.gen.Load(), time.Since(s.start).Seconds()
	d := &resp.Delta
	if snap := s.snap.Load(); snap != nil {
		resp.Graph.Nodes, resp.Graph.Edges = snap.G.NumNodes(), snap.G.NumEdges()
		resp.Pred, resp.Rules, resp.Fragments = snap.PredDisplay, len(snap.Rules), len(snap.chunks)
		d.Overlaid, d.OverlayOps = snap.G.Overlaid(), snap.G.OverlayOps()
	}
	d.Batches, d.Ops, d.Rejected = s.nDeltaBatches.Load(), s.nDeltaOps.Load(), s.nDeltaRejects.Load()
	d.RulesCarried, d.RulesInvalidated = s.nRuleCarried.Load(), s.nRuleInvalidated.Load()
	d.WarmMineHits, d.Compactions, d.CompactAborts = s.nWarmMineHits.Load(), s.nCompactions.Load(), s.nCompactAborts.Load()
	d.CompactThreshold = s.cfg.CompactThreshold
	resp.PoolSize = s.pool.Size()
	c := &resp.CPUBudget
	c.Procs, c.MineProcs, c.PoolSize = runtime.GOMAXPROCS(0), s.mineGate.Size(), s.pool.Size()
	resp.Cache, resp.Batch = s.cacheStats()
	resp.MineCache, resp.MineCapped = s.mineCacheStats(), s.nMineCapped.Load()
	k := &resp.Kernel
	k.Centres, k.Survivors, k.Matches = s.nCentres.Load(), s.nSurvivors.Load(), s.nMatches.Load()
	q := &resp.Requests
	q.Identify, q.Rules, q.Mine, q.Swaps = s.nIdentify.Load(), s.nRules.Load(), s.nMine.Load(), s.nSwap.Load()
	resp.Jobs = s.jobs.Counts()
	if p := s.persist; p != nil {
		resp.Persistence = p.stats()
	}
	if s.admit != nil {
		resp.Admission = &AdmissionStats{
			Running:      s.admit.inUse(),
			RunningCap:   cap(s.admit.slots),
			Queued:       s.admit.depth(),
			MaxQueue:     s.admit.maxQueue,
			ShedFull:     s.nShedFull.Load(),
			ShedTimeout:  s.nShedTimeout.Load(),
			QueueTimeout: s.cfg.QueueTimeout.String(),
		}
		resp.Saturation.QueueDepth = s.admit.depth()
	}
	sat := &resp.Saturation
	sat.PoolInUse, sat.PoolSize = s.pool.InUse(), s.pool.Size()
	sat.MineGateInUse, sat.MineGateSize = s.mineGate.InUse(), s.mineGate.Size()
	l := &resp.Lifecycle
	l.CancelRequests, l.Deadlines, l.ClientGone = s.nCancelReq.Load(), s.nDeadline.Load(), s.nClientGone.Load()
	l.Panics, l.JobPanics = s.nPanics.Load(), s.nJobPanics.Load()
	writeJSON(w, http.StatusOK, resp)
}

// unionSorted returns the sorted union of sorted ID lists, never nil, so
// it encodes as [] when empty. A single list is returned as is, without a
// copy. More are merged through a bitset sized by the largest last
// element, so the cost is their total length plus one word per 64 IDs.
func unionSorted(lists [][]graph.NodeID) []graph.NodeID {
	if len(lists) == 1 && lists[0] != nil {
		return lists[0]
	}
	hi := graph.NodeID(-1)
	for _, l := range lists {
		if len(l) > 0 {
			hi = max(hi, l[len(l)-1])
		}
	}
	set := make([]uint64, hi>>6+1)
	for _, l := range lists {
		for _, v := range l {
			set[v>>6] |= 1 << (v & 63)
		}
	}
	n := 0
	for _, word := range set {
		n += bits.OnesCount64(word)
	}
	out := make([]graph.NodeID, 0, n)
	for i, word := range set {
		for ; word != 0; word &= word - 1 {
			out = append(out, graph.NodeID(i<<6+bits.TrailingZeros64(word)))
		}
	}
	return out
}

// writeJSON answers v as compact JSON.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// Request body bounds: a delta batch may be as large as a rule set, an
// identify or mine request is a handful of parameters.
const (
	maxRulesBody = 16 << 20
	maxDeltaBody = 16 << 20
	maxQueryBody = 1 << 20
)

// decodeBody decodes a JSON request body of at most limit bytes into v. It
// answers 413 for a longer body and 400 for malformed JSON, a field v does
// not have, or anything but white space after the one JSON value, and
// reports whether v was decoded.
func decodeBody(w http.ResponseWriter, r *http.Request, limit int64, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil {
		if _, err = dec.Token(); err == io.EOF {
			return true
		}
		if bodyErrorCode(err) != http.StatusRequestEntityTooLarge {
			err = errors.New("data after the JSON value")
		}
	}
	httpError(w, bodyErrorCode(err), "bad request body: %v", err)
	return false
}

// bodyErrorCode maps a failed request-body read to its status: 413 when
// the body passed its limit, 400 otherwise.
func bodyErrorCode(err error) int {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]any{"error": fmt.Sprintf(format, args...)})
}

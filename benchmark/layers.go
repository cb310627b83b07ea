package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"time"

	"gpar/internal/core"
	"gpar/internal/diversify"
	"gpar/internal/eip"
	"gpar/internal/gen"
	"gpar/internal/graph"
	"gpar/internal/match"
	"gpar/internal/mine"
	"gpar/internal/mine/remote"
	"gpar/internal/partition"
	"gpar/internal/serve"
	"gpar/internal/sketch"
	"gpar/internal/snapfile"
)

// This file is the traced pass: the same seed's inputs and request
// sequences, run in this process by calling each layer's exported functions
// with a span around every call. The layers themselves carry no
// instrumentation; everything here is measured from outside.

// daemonPool mirrors gpard's default identify pool: GOMAXPROCS minus the
// half (rounded up) reserved for mining, at least one.
func daemonPool() *serve.Pool {
	procs := runtime.GOMAXPROCS(0)
	return serve.NewPool(max(1, procs-(procs+1)/2))
}

// layerStats turns spans into the per-layer numbers.
type layerStats struct {
	spans []span
}

// The three ways a metric is read off its spans. A span covering a loop
// counts per work unit.
func (l layerStats) median(name string) float64 { return median(perUnit(l.spans, name)) }

func (l layerStats) sum(name string) float64 {
	var total float64
	for _, s := range l.spans {
		if s.Name == name {
			total += float64(s.dur())
		}
	}
	return total
}

// mean is for a round-robin over rules of very different cost, where the
// mean is what throughput follows.
func (l layerStats) mean(name string) float64 {
	if n := len(perUnit(l.spans, name)); n > 0 {
		return l.sum(name) / float64(n)
	}
	return 0
}

// spanMetrics maps each traced per-layer metric to the span it is read from.
var spanMetrics = []struct {
	metric, span string
	agg          func(layerStats, string) float64
	unit         time.Duration
}{
	{"graph.freeze_ms", "graph.freeze", layerStats.median, time.Millisecond},
	{"partition.partition_ms", "partition.partition", layerStats.median, time.Millisecond},
	// Per snapshot build, so summed over the fragments.
	{"sketch.index_warm_ms", "sketch.index_warm", layerStats.sum, time.Millisecond},
	{"eip.classify_centers_ms", "eip.classify_centers", layerStats.sum, time.Millisecond},
	{"eip.triple_index_ms", "eip.triple_index", layerStats.sum, time.Millisecond},
	{"serve.build_snapshot_ms", "serve.build_snapshot", layerStats.median, time.Millisecond},
	{"serve.eval_rule_frozen_us", "serve.eval_rule_frozen", layerStats.mean, time.Microsecond},
	{"serve.eval_rule_overlay_us", "serve.eval_rule_overlay", layerStats.mean, time.Microsecond},
	{"serve.derive_delta_snapshot_us", "serve.derive_delta_snapshot", layerStats.median, time.Microsecond},
	{"match.has_match_guided_us", "match.has_match_guided", layerStats.median, time.Microsecond},
	{"match.has_match_unguided_us", "match.has_match_unguided", layerStats.median, time.Microsecond},
	{"eip.match_s", "eip.match", layerStats.median, time.Second},
	{"eip.matchc_s", "eip.matchc", layerStats.median, time.Second},
	{"eip.disvf2_s", "eip.disvf2", layerStats.median, time.Second},
	{"graph.apply_delta_us", "graph.apply_delta", layerStats.median, time.Microsecond},
	{"graph.label_within_distance_us", "graph.label_within_distance", layerStats.median, time.Microsecond},
	{"graph.compact_copy_ms", "graph.compact_copy", layerStats.median, time.Millisecond},
	{"serve.apply_delta_us", "serve.apply_delta", layerStats.median, time.Microsecond},
	{"serve.compact_ms", "serve.compact", layerStats.median, time.Millisecond},
	{"serve.recover_ms", "serve.recover", layerStats.median, time.Millisecond},
	{"snapfile.encode_ms", "snapfile.encode", layerStats.median, time.Millisecond},
	{"snapfile.decode_ms", "snapfile.decode", layerStats.median, time.Millisecond},
	{"mine.context_build_ms", "mine.context_build", layerStats.median, time.Millisecond},
	{"mine.dmine_ctx_s", "mine.dmine_ctx", layerStats.median, time.Second},
	{"mine.dmine_s", "mine.dmine", layerStats.median, time.Second},
	{"mine.dmine_noopt_s", "mine.dmine_noopt", layerStats.median, time.Second},
	{"mine.remote.loopback_s", "mine.remote.loopback", layerStats.median, time.Second},
	{"diversify.queue_update_us", "diversify.queue_update", layerStats.median, time.Microsecond},
	{"serve.mine.warm_hit_ms", "serve.mine.warm_hit", layerStats.median, time.Millisecond},
}

// fill sets every span-backed metric whose span this pass recorded.
func (l layerStats) fill(res *runResult) {
	recorded := make(map[string]bool)
	for _, s := range l.spans {
		recorded[s.Name] = true
	}
	for _, m := range spanMetrics {
		if recorded[m.span] {
			res.Layers[m.metric] = m.agg(l, m.span) / float64(m.unit)
		}
	}
}

// finishTrace writes the spans out and returns them for metric extraction.
func (e *env) finishTrace(tr *tracer, workload string) (layerStats, error) {
	path := filepath.Join("out", "trace-"+workload+".json")
	if err := tr.write(path); err != nil {
		return layerStats{}, err
	}
	return layerStats{spans: tr.spans}, nil
}

// buildLayers times the pieces serve.BuildSnapshot is made of, one by one:
// freeze, partition, and per fragment the sketch index, the LCWA
// classification and the triple index.
func buildLayers(tr *tracer, res *runResult, g *graph.Graph, xLabel graph.Label, pred core.Predicate, d int) {
	thawed := g.Clone()
	tr.do("graph.freeze", 0, 0, thawed.Freeze)
	var frags []*partition.Fragment
	tr.do("partition.partition", 0, 0, func() {
		frags = partition.Partition(g, g.NodesWithLabel(xLabel), 2, d)
	})
	size := 0
	for _, f := range frags {
		f.G.Freeze()
		size += f.Size()
		tr.do("sketch.index_warm", 0, 0, func() {
			ix := sketch.NewIndex(f.G, 2)
			for v := 0; v < f.G.NumNodes(); v++ {
				ix.Sketch(graph.NodeID(v))
			}
		})
		tr.do("eip.classify_centers", 0, 0, func() { eip.ClassifyCenters(f.G, f.Centers, pred) })
		tr.do("eip.triple_index", 0, 0, func() { eip.NewTripleIndex(f.G) })
	}
	res.Layers["partition.replication_factor"] = float64(size) / float64(g.Size())
}

// evalCycles calls snap.EvalRule on every rule, cycles times, one span per
// call. The first (untimed) cycle lets the lazy sketch index fill.
func evalCycles(tr *tracer, name string, snap *serve.Snapshot, pool *serve.Pool, cycles int) {
	for _, sr := range snap.Rules {
		snap.EvalRule(sr, pool)
	}
	for c := 0; c < cycles; c++ {
		for _, sr := range snap.Rules {
			tr.do(name, 0, 0, func() { snap.EvalRule(sr, pool) })
		}
	}
}

// farNode is a one-op batch that touches nothing near a user: the cheapest
// way to put a snapshot on the overlay path.
func farNode(g *graph.Graph) *graph.Graph {
	g2, err := g.ApplyDelta([]graph.DeltaOp{{Kind: graph.DeltaAddNode, Label: g.Symbols().Intern("tag")}})
	if err != nil {
		panic(err) // a single addNode with an interned label cannot be refused
	}
	return g2
}

// replayHTTP drives n identify requests of the given mix through h, one at
// a time, decoding each answer as the real client does. With a tracer, each
// request gets a "serve.http" span.
func replayHTTP(tr *tracer, h http.Handler, keys []string, wholeEvery, n int) (time.Duration, error) {
	sched := identifySchedule(len(keys), wholeEvery)
	start := time.Now()
	for i := 0; i < n; i++ {
		body := identifyBody(keys, sched[i%len(sched)])
		req := httptest.NewRequest(http.MethodPost, "/v1/identify", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		id := tr.begin("serve.http", 0, i+1)
		h.ServeHTTP(rec, req)
		tr.end(id, 0)
		if rec.Code != http.StatusOK {
			return 0, fmt.Errorf("in-process identify: HTTP %d", rec.Code)
		}
		var ans identifyAnswer
		if err := json.Unmarshal(rec.Body.Bytes(), &ans); err != nil {
			return 0, err
		}
	}
	return time.Since(start), nil
}

// traceIdentify is the traced pass of identify-cold and identify-hot.
func (e *env) traceIdentify(res *runResult, in *inputs, cacheCap, wholeEvery int) error {
	tr := newTracer()
	cfg := serve.Config{Workers: 2, CacheCap: cacheCap}
	pool := daemonPool()
	buildLayers(tr, res, in.g, in.pred.XLabel, in.pred, eip.MaxRadius(in.rules))

	var snap *serve.Snapshot
	var err error
	tr.do("serve.build_snapshot", 0, 0, func() { snap, err = serve.BuildSnapshot(in.g, in.pred, in.rules, cfg) })
	if err != nil {
		return err
	}
	evalCycles(tr, "serve.eval_rule_frozen", snap, pool, 3)
	var overlay *serve.Snapshot
	g2 := farNode(in.g)
	tr.do("serve.derive_delta_snapshot", 0, 0, func() { overlay = serve.DeriveDeltaSnapshot(snap, g2, cfg) })
	evalCycles(tr, "serve.eval_rule_overlay", overlay, pool, 3)

	// The kernel and the paper's Exp-3 point belong to the workload that is
	// all matching; identify-hot, which does none, skips them.
	if cacheCap < len(in.rules) {
		if err := e.traceKernels(tr, res, in); err != nil {
			return err
		}
	}

	// The request sequence itself, through the real handler, untraced and
	// traced: the handler's own share, and what the spans cost.
	keys := make([]string, len(snap.Rules))
	for i, sr := range snap.Rules {
		keys[i] = sr.Key
	}
	n := 10 * len(keys)
	if cacheCap >= len(keys) {
		n = 800
	}
	var walls [2]time.Duration
	for i, t := range []*tracer{nil, tr} {
		srv := serve.New(cfg)
		if err := srv.LoadSnapshot(in.g, in.pred, in.rules); err != nil {
			return err
		}
		if _, err := replayHTTP(nil, srv.Handler(), keys, wholeEvery, 2*len(keys)); err != nil { // warm-up
			return err
		}
		if walls[i], err = replayHTTP(t, srv.Handler(), keys, wholeEvery, n); err != nil {
			return err
		}
	}
	res.Layers["bench.trace_overhead_ratio"] = walls[1].Seconds() / walls[0].Seconds()

	l, err := e.finishTrace(tr, res.Workload)
	if err != nil {
		return err
	}
	l.fill(res)
	// The handler's own time can be read from outside only where every rule
	// is answered from the cache and the span has no evaluation in it: on
	// identify-hot. The EvalRule a cold request causes runs inside the
	// handler, where a span from outside cannot separate it.
	if cacheCap >= len(in.rules) {
		res.Layers["serve.http.self_us"] = median(selfOf(l.spans, "serve.http")) / float64(time.Microsecond)
	}
	return nil
}

// traceKernels times the match kernel alone and the three EIP algorithms.
func (e *env) traceKernels(tr *tracer, res *runResult, in *inputs) error {
	// The match kernel alone, per candidate, guided and not, on the whole
	// graph: how much of EvalRule is the matcher and how many candidates it
	// is asked about for each one that matches.
	cands := in.g.NodesWithLabel(in.pred.XLabel)
	ix := sketch.NewIndex(in.g, 2)
	tested, matched := 0, 0
	for pass, opts := range []match.Options{{Guided: true, Sketches: ix}, {Guided: true, Sketches: ix}, {}} {
		name := "match.has_match_unguided"
		if opts.Guided {
			name = "match.has_match_guided"
		}
		for _, r := range in.rules {
			m := match.NewMatcher(r.Q, in.g, opts)
			var id int
			if pass > 0 { // pass 0 fills the sketch index
				id = tr.begin(name, 0, 0)
			}
			for _, c := range cands {
				if m.HasMatchAt(c) && !opts.Guided {
					matched++
				}
			}
			tr.end(id, len(cands))
			m.Release()
			if !opts.Guided {
				tested += len(cands)
			}
		}
	}
	res.Layers["match.candidates_per_match"] = float64(tested) / float64(max(matched, 1))

	// The paper's Exp-3 point — Match vs Matchc vs disVF2 on 24 generated
	// rules with |Vp| = 4, |Ep| = 5, n = 2 — on a graph a tenth the size,
	// because disVF2 enumerates every match. Larger patterns than anything
	// the HTTP workloads send.
	small := gen.Pokec(graph.NewSymbols(), gen.DefaultPokec(max(e.cfg.pokecUsers/10, 200), e.cfg.seed))
	spred := gen.PokecPredicates(small.Symbols())[0]
	if big := gen.Rules(small, spred, gen.RuleGenParams{Count: 24, VP: 4, EP: 5, Seed: e.cfg.seed}); len(big) > 0 {
		eopts := eip.Options{N: 2, Eta: eta}
		var err error
		for _, alg := range []struct {
			name string
			run  func(*graph.Graph, []*core.Rule, eip.Options) (*eip.Result, error)
		}{{"eip.match", eip.Match}, {"eip.matchc", eip.Matchc}, {"eip.disvf2", eip.DisVF2}} {
			tr.do(alg.name, 0, 0, func() { _, err = alg.run(small, big, eopts) })
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// mapOps translates a wire batch into graph ops, as serve.ApplyDelta does.
func mapOps(syms *graph.Symbols, req serve.DeltaRequest) []graph.DeltaOp {
	kinds := map[string]graph.DeltaOpKind{"addNode": graph.DeltaAddNode, "addEdge": graph.DeltaAddEdge, "delEdge": graph.DeltaDelEdge}
	ops := make([]graph.DeltaOp, len(req.Ops))
	for i, o := range req.Ops {
		ops[i] = graph.DeltaOp{Kind: kinds[o.Op], From: graph.NodeID(o.From), To: graph.NodeID(o.To), Label: syms.Intern(o.Label)}
	}
	return ops
}

// traceLive is the traced pass of live-mix: the acknowledged batches of the
// process run, replayed through the delta, persistence and compaction
// layers one call at a time.
func (e *env) traceLive(res *runResult, in *inputs, log []serve.DeltaRequest) error {
	tr := newTracer()
	cfg := serve.Config{Workers: 2}
	pool := daemonPool()
	log = log[:min(len(log), 300)]
	if len(log) < 2 {
		return fmt.Errorf("live-mix trace: only %d acknowledged batches to replay", len(log))
	}
	half := len(log) / 2

	// graph: the overlay itself, and the impact-distance probe per touched node.
	g := in.g
	for _, req := range log {
		ops := mapOps(in.syms, req)
		var err error
		id := tr.begin("graph.apply_delta", 0, 0)
		g2, err := g.ApplyDelta(ops)
		tr.end(id, 0)
		if err != nil {
			return err
		}
		touched := g2.DeltaTouched()
		id = tr.begin("graph.label_within_distance", 0, 0)
		for _, t := range touched {
			g2.LabelWithinDistance(t, in.pred.XLabel, 2)
		}
		tr.end(id, len(touched))
		g = g2
	}
	var compacted *graph.Graph
	tr.do("graph.compact_copy", 0, 0, func() { compacted = g.CompactCopy() })

	// serve: snapshot derivation and overlay evaluation, then the frozen
	// rebuild a compaction pays.
	snap, err := serve.BuildSnapshot(in.g, in.pred, in.rules, cfg)
	if err != nil {
		return err
	}
	var overlay *serve.Snapshot
	for i := 0; i < 20; i++ {
		tr.do("serve.derive_delta_snapshot", 0, 0, func() { overlay = serve.DeriveDeltaSnapshot(snap, g, cfg) })
	}
	evalCycles(tr, "serve.eval_rule_overlay", overlay, pool, 3)
	tr.do("serve.build_snapshot", 0, 0, func() { _, err = serve.BuildSnapshot(compacted, in.pred, in.rules, cfg) })
	if err != nil {
		return err
	}

	// serve.ApplyDelta with persistence off, untraced and traced (the
	// tracing overhead), then off and on side by side, batch by batch, so
	// that drift cancels: the difference is the WAL append with its fsync.
	newServer := func(persistDir string) (*serve.Server, error) {
		srv := serve.New(cfg)
		if persistDir != "" {
			if err := srv.EnablePersistence(serve.PersistOptions{Dir: persistDir, Sync: serve.SyncAlways}); err != nil {
				return nil, err
			}
		}
		return srv, srv.LoadSnapshot(in.g, in.pred, in.rules)
	}
	apply := func(t *tracer, batches []serve.DeltaRequest, names []string, servers ...*serve.Server) (time.Duration, error) {
		start := time.Now()
		for _, req := range batches {
			for i, srv := range servers {
				var err error
				t.do(names[i], 0, 0, func() { _, err = srv.ApplyDelta(req) })
				if err != nil {
					return 0, err
				}
			}
		}
		return time.Since(start), nil
	}
	var walls [2]time.Duration
	for i, t := range []*tracer{nil, tr} {
		srv, err := newServer("")
		if err != nil {
			return err
		}
		if walls[i], err = apply(t, log, []string{"serve.apply_delta"}, srv); err != nil {
			return err
		}
	}
	res.Layers["bench.trace_overhead_ratio"] = walls[1].Seconds() / walls[0].Seconds()
	dataDir := filepath.Join(e.dir, "trace-data")
	volatile, err := newServer("")
	if err != nil {
		return err
	}
	durable, err := newServer(dataDir)
	if err != nil {
		return err
	}
	if _, err := apply(tr, log[:half], []string{"serve.apply_delta_paired", "serve.apply_delta_wal"}, volatile, durable); err != nil {
		return err
	}

	// Compaction on the durable server (copy + rebuild + checkpoint), more
	// batches so the WAL has a tail, then recovery by a fresh server.
	tr.do("serve.compact", 0, 0, func() { _, _, err = durable.Compact() })
	if err != nil {
		return err
	}
	for _, req := range log[half:] {
		if _, err := durable.ApplyDelta(req); err != nil {
			return err
		}
	}
	want := durable.Generation()
	if err := durable.Shutdown(context.Background()); err != nil {
		return err
	}
	recovered := serve.New(cfg)
	if err := recovered.EnablePersistence(serve.PersistOptions{Dir: dataDir, Sync: serve.SyncAlways}); err != nil {
		return err
	}
	var rep *serve.RecoveryReport
	tr.do("serve.recover", 0, 0, func() { rep, err = recovered.Recover() })
	if err != nil {
		return err
	}
	res.expect(rep.Recovered && rep.Generation == want, "live-mix trace: in-process recovery reached generation %d, want %d", rep.Generation, want)
	if err := recovered.Shutdown(context.Background()); err != nil {
		return err
	}

	// snapfile: the checkpoint format alone.
	data := &snapfile.Data{Generation: 1, Graph: compacted, Pred: in.pred, Rules: in.rules}
	var encoded []byte
	tr.do("snapfile.encode", 0, 0, func() { encoded = snapfile.Encode(data) })
	tr.do("snapfile.decode", 0, 0, func() { _, err = snapfile.Decode(encoded) })
	if err != nil {
		return err
	}
	res.Layers["snapfile.bytes_per_edge"] = float64(len(encoded)) / float64(compacted.NumEdges())

	l, err := e.finishTrace(tr, res.Workload)
	if err != nil {
		return err
	}
	l.fill(res)
	res.Layers["serve.wal_append_us"] = (l.median("serve.apply_delta_wal") - l.median("serve.apply_delta_paired")) / float64(time.Microsecond)
	return nil
}

// traceMine is the traced pass of mine-jobs: job 0's parameters, run through
// the mining layers one call at a time.
func (e *env) traceMine(res *runResult, in *inputs, pred core.Predicate, p serve.MineParams) error {
	tr := newTracer()
	opts := mine.Options{
		K: p.K, Sigma: p.Sigma, D: p.D, Lambda: p.Lambda, N: 2, MaxEdges: p.MaxEdges, MaxCandidatesPerRound: p.Cap,
	}.WithOptimizations().Defaults()
	buildLayers(tr, res, in.g, pred.XLabel, pred, opts.D)

	var ctx *mine.Context
	tr.do("mine.context_build", 0, 0, func() { ctx = mine.NewContext(in.g, pred.XLabel, opts) })
	var out *mine.Result
	var err error
	start := time.Now()
	if _, err = mine.DMineCtx(ctx, pred, opts); err != nil {
		return err
	}
	untraced := time.Since(start)
	start = time.Now()
	tr.do("mine.dmine_ctx", 0, 0, func() { out, err = mine.DMineCtx(ctx, pred, opts) })
	if err != nil {
		return err
	}
	res.Layers["bench.trace_overhead_ratio"] = time.Since(start).Seconds() / untraced.Seconds()
	tr.do("mine.dmine", 0, 0, func() { mine.DMine(in.g, pred, opts) })
	tr.do("mine.dmine_noopt", 0, 0, func() { mine.DMineNo(in.g, pred, opts) })

	res.Layers["mine.rounds"] = float64(out.Rounds)
	res.Layers["mine.generated"] = float64(out.Generated)
	res.Layers["mine.kept"] = float64(out.Kept)
	res.Layers["mine.pruned"] = float64(out.Pruned)
	res.Layers["mine.iso_checks"] = float64(out.IsoChecks)
	res.Layers["mine.bisim_skips"] = float64(out.BisimSkips)
	var total int64
	for _, ops := range out.WorkerOps {
		total += ops
	}
	if total > 0 {
		res.Layers["mine.worker_op_skew"] = float64(out.MaxWorkerOp) * float64(len(out.WorkerOps)) / float64(total)
	}

	// The same job over two worker services on loopback TCP.
	addrs := make([]string, opts.N)
	for i := range addrs {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		defer l.Close()
		go remote.Serve(l, remote.ServerOptions{}) // returns when l closes
		addrs[i] = l.Addr().String()
	}
	conns, err := remote.DialFleet(addrs, remote.DialOptions{StepTimeout: time.Minute})
	if err != nil {
		return err
	}
	tr.do("mine.remote.loopback", 0, 0, func() { _, err = remote.Mine(ctx, pred, opts, conns) })
	remote.CloseAll(conns)
	if err != nil {
		return err
	}

	// incDiv over everything the job retained, as one round would feed it.
	entries := make([]diversify.Entry, len(out.All))
	for i, m := range out.All {
		entries[i] = diversify.Entry{ID: uint32(i + 1), Conf: m.Conf, Set: m.Set}
	}
	if len(entries) > 0 {
		st := out.All[0].Stats
		params := diversify.Params{K: opts.K, Lambda: opts.Lambda, N: float64(st.SuppQ1) * float64(st.SuppQbar)}
		for i := 0; i < 5; i++ {
			q := diversify.NewQueue(params)
			tr.do("diversify.queue_update", 0, 0, func() { q.Update(entries, entries) })
		}
	}

	// A mine job answered from a carried result: same parameters, one
	// generation later, nothing near a candidate touched.
	srv := serve.New(serve.Config{Workers: 2})
	if err := srv.LoadSnapshot(in.g, pred, nil); err != nil {
		return err
	}
	p.Install = false
	runJob := func(name string) (*serve.Job, error) {
		id := tr.begin(name, 0, 0)
		job, err := srv.StartMine(p)
		if err != nil {
			return nil, err
		}
		h := srv.Handler()
		for job.Status == serve.JobPending || job.Status == serve.JobRunning {
			time.Sleep(200 * time.Microsecond)
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/jobs/"+job.ID, nil))
			if err := json.Unmarshal(rec.Body.Bytes(), &job); err != nil {
				return nil, err
			}
		}
		tr.end(id, 0)
		return &job, nil
	}
	if _, err := runJob("serve.mine.cold_job"); err != nil {
		return err
	}
	if _, err := srv.ApplyDelta(serve.DeltaRequest{Ops: []serve.DeltaOpSpec{{Op: "addNode", Label: "tag"}}}); err != nil {
		return err
	}
	warm, err := runJob("serve.mine.warm_hit")
	if err != nil {
		return err
	}
	res.expect(warm.WarmStarted, "mine-jobs trace: repeated job after a far delta was not warm-started")
	if err := srv.Shutdown(context.Background()); err != nil {
		return err
	}

	l, err := e.finishTrace(tr, res.Workload)
	if err != nil {
		return err
	}
	l.fill(res)
	return nil
}

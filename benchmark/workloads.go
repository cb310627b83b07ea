package main

import (
	"fmt"
	"math/rand"
	"net/http"
	"path/filepath"
	"slices"
	"sort"
	"time"

	"gpar/internal/core"
	"gpar/internal/gen"
	"gpar/internal/graph"
	"gpar/internal/mine"
	"gpar/internal/serve"
)

// config is one run's settings. Everything that shapes the inputs derives
// from seed.
type config struct {
	seed       int64
	seconds    time.Duration // measured time per run, split evenly over the rounds
	warmup     time.Duration // per round: driven but not timed
	rounds     int           // fresh set-ups (inputs, daemon, phase) per run
	pokecUsers int
	gplusUsers int
	trace      bool
	quick      bool
}

// A run is three rounds, each on a freshly generated input set and a fresh
// gpard process, and reports the median round. Two runs of one seed on this
// shared 2-vCPU VM differ by 5–8 % on every timed metric however long one
// process is measured — the difference sits between processes (memory
// placement, huge pages, what the neighbours are doing that half-minute),
// not inside one. Spending the run on three processes instead of one is
// what makes a single run repeatable; it is also what gives setup_s and
// recover_s their three samples.
func fullConfig(seed int64, seconds float64, trace bool) config {
	return config{
		seed: seed, seconds: time.Duration(seconds * float64(time.Second)), warmup: time.Second, rounds: 3,
		pokecUsers: 10000, gplusUsers: 5000, trace: trace,
	}
}

// quickConfig is the smoke configuration `go test` runs: tiny graphs, one
// one-second round per workload, every answer check on.
func quickConfig(seed int64) config {
	return config{
		seed: seed, seconds: time.Second, warmup: 300 * time.Millisecond, rounds: 1,
		pokecUsers: 400, gplusUsers: 400, trace: true, quick: true,
	}
}

// runResult is the outcome of one round, or of one run once its rounds are
// merged.
type runResult struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Errors    []string           `json:"errors,omitempty"`
	E2E       map[string]float64 `json:"endToEnd"`
	Layers    map[string]float64 `json:"perLayer"`
	// Samples is how many operations each latency percentile rests on: the
	// run's rounds pooled.
	Samples map[string]int `json:"samples"`
	// lat holds the measured phase's latencies in ms per operation class, so
	// that the tail percentiles can be taken over the pooled rounds.
	lat map[string][]float64
}

func newResult(name string, seed int64) *runResult {
	return &runResult{
		Workload: name, Seed: seed,
		E2E: make(map[string]float64), Layers: make(map[string]float64), Samples: make(map[string]int),
		lat: make(map[string][]float64),
	}
}

// set stores a metric under the list that declares it.
func (r *runResult) set(name string, v float64) {
	if d, _ := metricByName(name); d.Layer == "" {
		r.E2E[name] = v
	} else {
		r.Layers[name] = v
	}
}

// count folds one class of operations into attempted/failed.
func (r *runResult) count(attempted, failed int, firstErr string) {
	r.Attempted += attempted
	r.Failed += failed
	if firstErr != "" {
		r.Errors = append(r.Errors, firstErr)
	}
}

// check records one verification step as an operation of its own.
func (r *runResult) check(err error) {
	r.Attempted++
	if err != nil {
		r.Failed++
		r.Errors = append(r.Errors, err.Error())
	}
}

// expect is check for a condition: it fails with the formatted message when
// ok is false.
func (r *runResult) expect(ok bool, format string, args ...any) {
	var err error
	if !ok {
		err = fmt.Errorf(format, args...)
	}
	r.check(err)
}

// tailPrefix names the tail-latency metrics of each operation class.
var tailPrefix = map[string]string{"identify": "identify", "delta": "delta_ack"}

// mergeRounds folds a run's rounds into one result: operations and errors
// add up, counts add up, every other metric is the median round. A metric
// only some rounds report (the traced pass runs once) keeps the values it
// has. Tail percentiles are taken over the rounds' pooled samples, and only
// as far up as the pooled count supports (ten samples beyond the
// percentile): a p99 that rests on fewer is not reported at all.
func mergeRounds(rounds []*runResult) *runResult {
	out := newResult(rounds[0].Workload, rounds[0].Seed)
	e2e, layers := make(map[string][]float64), make(map[string][]float64)
	for _, r := range rounds {
		out.count(r.Attempted, r.Failed, "")
		out.Errors = append(out.Errors, r.Errors...)
		for k, v := range r.E2E {
			e2e[k] = append(e2e[k], v)
		}
		for k, v := range r.Layers {
			layers[k] = append(layers[k], v)
		}
		for class, lat := range r.lat {
			out.lat[class] = append(out.lat[class], lat...)
		}
	}
	for class, lat := range out.lat {
		out.Samples[class] = len(lat)
		for _, p := range []float64{95, 99} {
			if supportedPercentile(len(lat)) >= p {
				out.set(fmt.Sprintf("%s_p%g_ms", tailPrefix[class], p), percentile(lat, p))
			}
		}
	}
	for k, vs := range e2e {
		out.E2E[k] = median(vs)
	}
	for k, vs := range layers {
		if d, _ := metricByName(k); d.Unit == "count" {
			for _, v := range vs {
				out.Layers[k] += v
			}
		} else {
			out.Layers[k] = median(vs)
		}
	}
	return out
}

// env is what every round needs to run.
type env struct {
	cfg   config
	dir   string // scratch directory of this round, under benchmark/out
	bin   string // gpard binary
	hc    *http.Client
	trace bool // this round also runs the traced pass
	probe *probe
}

// setupLaps is how many probe laps are taken at each of the three points of
// a set-up: before it, between input generation and boot, and after.
const setupLaps = 8

// setup generates the inputs, boots gpard on them and, when ready is not
// nil, runs it against the booted daemon; setup_s is the wall time of all
// three (input generation + start-up mine + file write + boot to healthy +
// whatever else must happen before the first request can be served),
// corrected for the machine's speed at its three probe points.
func (e *env) setup(res *runResult, makeInputs func(dir string) (*inputs, error), args func(in *inputs) []string, ready func(in *inputs, p *gpard) error) (*inputs, *gpard, error) {
	slow := e.probe.slowness(setupLaps)
	start := time.Now()
	in, err := makeInputs(e.dir)
	if err != nil {
		return nil, nil, err
	}
	elapsed := time.Since(start)
	slow += e.probe.slowness(setupLaps)
	start = time.Now()
	p, err := startGpard(e.bin, filepath.Join(e.dir, "gpard.log"), args(in)...)
	if err != nil {
		return nil, nil, err
	}
	if _, err := p.waitHealthy(e.hc, time.Minute); err != nil {
		p.kill()
		return nil, nil, err
	}
	if ready != nil {
		if err := ready(in, p); err != nil {
			p.kill()
			return nil, nil, err
		}
	}
	elapsed += time.Since(start)
	slow += e.probe.slowness(setupLaps)
	res.E2E["setup_s"] = elapsed.Seconds() / (slow / 3)
	return in, p, nil
}

// step is a stretch of a measured window that ends with a probe lap: how
// long it took and how slow the machine was running right after it (see
// probe).
type step struct {
	end  time.Time
	dur  float64 // seconds, the lap not included
	slow float64 // the lap's time over the nominal lap
}

// phase is the measured part of a round: the clocks and the daemon's
// counters at both ends, and its windows cut into steps.
type phase struct {
	from, to           time.Time
	statsFrom, statsTo *serve.StatsResponse
	cpuFrom, cpuTo     float64 // gpard CPU seconds
	selfFrom, selfTo   float64 // this process's CPU seconds
	steps              []step
	windows            []float64 // seconds each window took at nominal machine speed
}

// rate is operations per second of a class that occurs perWindow times in
// every window: the median window's rate. A window that a GC cycle or a
// compaction stretched moves the mean and leaves the median alone.
func (ph *phase) rate(perWindow int) float64 { return float64(perWindow) / median(ph.windows) }

// slowAt is the slowness of the step that t fell in.
func (ph *phase) slowAt(t time.Time) float64 {
	i := sort.Search(len(ph.steps), func(i int) bool { return !ph.steps[i].end.Before(t) })
	return ph.steps[min(i, len(ph.steps)-1)].slow
}

// slowdown corrects a total over the phase, such as CPU time: clocked time
// over the time the same steps take at nominal speed.
func (ph *phase) slowdown() float64 {
	var clocked, nominal float64
	for _, st := range ph.steps {
		clocked += st.dur
		nominal += st.dur / st.slow
	}
	return clocked / nominal
}

// runPhase drives the daemon with ONE closed-loop caller: window issues a
// fixed sequence of operations, each after the previous one's answer, and
// runPhase repeats it — first for the warm-up, which is not timed, then,
// between two readings of the daemon's counters, for this round's share of
// cfg.seconds. Only whole windows run, so every window of a workload holds
// the same operations and their durations compare. window calls lap after
// each of its steps — a tenth to a fifth of a second of work — the last one
// included: while the daemon is idle the caller runs one probe lap, and the
// step's time is divided by the lap's slowness.
//
// One caller, not two: with the daemon's threads, two callers are more
// runnable threads than this machine has cores, and on a shared host that
// measures the scheduler (the first version of this benchmark had two and
// its ten-seed spread was 35 % on the driver's machine). One request in
// flight leaves a core idle to absorb the neighbours.
func (e *env) runPhase(p *gpard, a api, window func(lap func()) error) (*phase, error) {
	edge := func() (time.Time, *serve.StatsResponse, float64, float64, error) {
		st, err := a.stats()
		if err != nil {
			return time.Time{}, nil, 0, 0, err
		}
		cpu, err := p.cpuSeconds()
		return time.Now(), st, cpu, selfCPUSeconds(), err
	}
	var steps []step
	stepStart := time.Now()
	lap := func() {
		end := time.Now()
		steps = append(steps, step{end: end, dur: end.Sub(stepStart).Seconds(), slow: e.probe.slowness(1)})
		stepStart = time.Now()
	}
	for start := time.Now(); time.Since(start) < e.cfg.warmup; {
		if err := window(lap); err != nil {
			return nil, err
		}
	}
	ph := &phase{}
	var err error
	if ph.from, ph.statsFrom, ph.cpuFrom, ph.selfFrom, err = edge(); err != nil {
		return nil, err
	}
	for measure := e.cfg.seconds / time.Duration(e.cfg.rounds); time.Since(ph.from) < measure; {
		steps, stepStart = steps[:0], time.Now()
		if err := window(lap); err != nil {
			return nil, err
		}
		var nominal float64
		for _, st := range steps {
			nominal += st.dur / st.slow
		}
		ph.steps = append(ph.steps, steps...)
		ph.windows = append(ph.windows, nominal)
	}
	if ph.to, ph.statsTo, ph.cpuTo, ph.selfTo, err = edge(); err != nil {
		return nil, err
	}
	return ph, nil
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// common fills the metrics every workload reports from its identify samples,
// the phase's clocks and counters, and the daemon's /proc entries.
// perWindow is how many identify requests one window holds; otherOps is how
// many operations of the workload's other classes completed in the phase —
// they share the daemon's CPU time.
func (e *env) common(res *runResult, ph *phase, p *gpard, identify *recorder, perWindow, otherOps int) error {
	lat, sizes, attempted, failed := identify.window(ph)
	res.count(attempted, failed, identify.firstErr)
	if len(lat) == 0 {
		return fmt.Errorf("%s: no identify request completed in the measured phase", res.Workload)
	}
	res.lat["identify"] = lat
	res.E2E["identify_rps"] = ph.rate(perWindow)
	res.E2E["identify_p50_ms"] = percentile(lat, 50)
	res.Layers["serve.resp.bytes_p50"] = percentile(sizes, 50)
	res.E2E["cpu_ms_per_req"] = (ph.cpuTo - ph.cpuFrom) * 1000 / float64(len(lat)+otherOps) / ph.slowdown()
	rss, err := p.peakRSSMB()
	if err != nil {
		return err
	}
	res.E2E["rss_mb"] = rss

	from, to := ph.statsFrom, ph.statsTo
	hits, misses := to.Cache.Hits-from.Cache.Hits, to.Cache.Misses-from.Cache.Misses
	res.Layers["serve.cache.hit_ratio"] = ratio(hits, hits+misses)
	exec, coal := to.Batch.Executions-from.Batch.Executions, to.Batch.Coalesced-from.Batch.Coalesced
	res.Layers["serve.batch.coalesced_ratio"] = ratio(coal, exec+coal)
	if to.Admission != nil && from.Admission != nil {
		shed := to.Admission.ShedFull + to.Admission.ShedTimeout - from.Admission.ShedFull - from.Admission.ShedTimeout
		res.Layers["serve.admit.shed_ratio"] = ratio(shed, to.Requests.Identify-from.Requests.Identify)
	}
	self, daemon := ph.selfTo-ph.selfFrom, ph.cpuTo-ph.cpuFrom
	res.Layers["bench.client_cpu_share"] = self / (self + daemon)
	laps := make([]float64, len(ph.steps))
	for i, st := range ph.steps {
		laps[i] = st.slow * probeNominalMs
	}
	res.Layers["bench.probe_lap_ms"] = median(laps)
	return nil
}

// ---------------------------------------------------------------------------
// identify-cold and identify-hot

// caller is the one closed-loop client of a round's daemon. single asks for
// the next rule in round-robin order, whole for the whole set Σ; both check
// the answer against refs when refs is non-nil, and record the sample. A
// refused or wrong answer is a failed operation in the recorder, and the
// run goes on.
type caller struct {
	a     api
	keys  []string
	refs  []ruleRef
	sigma []graph.NodeID
	rec   *recorder
	next  int // the next single-rule request's rule
}

func (c *caller) single() {
	c.identify(c.next % len(c.keys))
	c.next++
}

func (c *caller) whole() { c.identify(-1) }

func (c *caller) identify(rule int) {
	s, err := c.a.identify(c.keys, rule, c.refs, c.sigma)
	c.rec.add(s, err)
}

// identifySchedule is one window of identify-cold (wholeEvery 0) and
// identify-hot (wholeEvery 4): every rule once, in order, and a whole-Σ
// request (-1) after every (wholeEvery-1)-th. The 3:1 mix (not 1:1) keeps
// the median inside the single-rule mode and the p95 inside the whole-Σ mode
// instead of on the boundary between them, where a percentile flips between
// two values.
func identifySchedule(rules, wholeEvery int) []int {
	var sched []int
	for i := 0; i < rules; i++ {
		sched = append(sched, i)
		if wholeEvery > 0 && i%(wholeEvery-1) == wholeEvery-2 {
			sched = append(sched, -1)
		}
	}
	return sched
}

func (e *env) pokecSetup(res *runResult, extra ...string) (*inputs, *gpard, error) {
	return e.setup(res,
		func(dir string) (*inputs, error) {
			return pokecInputs(dir, e.cfg.seed, e.cfg.pokecUsers, e.cfg.quick)
		},
		func(in *inputs) []string {
			return append([]string{"-graph", in.graphFile, "-rules", in.rulesFile, "-n", "2"}, extra...)
		}, nil)
}

// servedKeys fetches the daemon's rule keys and checks they are the rules
// file's, in order.
func servedKeys(a api, refs []ruleRef) ([]string, error) {
	keys, err := a.ruleKeys()
	if err != nil {
		return nil, err
	}
	want := make([]string, len(refs))
	for i, r := range refs {
		want[i] = r.key
	}
	if !slices.Equal(keys, want) {
		return nil, fmt.Errorf("daemon serves %d rules that are not the generated file's %d", len(keys), len(want))
	}
	return keys, nil
}

// identifyWorkload is identify-cold (cacheCap 1, single rules only) and
// identify-hot (cacheCap 256, 3:1 single to whole-Σ). A window is one pass
// over the rules.
func (e *env) identifyWorkload(name string, cacheCap, wholeEvery int) (*runResult, error) {
	res := newResult(name, e.cfg.seed)
	in, p, err := e.pokecSetup(res, "-cache", fmt.Sprint(cacheCap))
	if err != nil {
		return nil, err
	}
	defer p.kill()
	a := api{e.hc, "http://" + p.addr}
	refs, sigma := reference(in.g, in.rules)
	keys, err := servedKeys(a, refs)
	if err != nil {
		return nil, err
	}

	c := &caller{a: a, keys: keys, refs: refs, sigma: sigma, rec: &recorder{}}
	sched := identifySchedule(len(keys), wholeEvery)
	ph, err := e.runPhase(p, a, func(lap func()) error {
		for _, rule := range sched {
			c.identify(rule)
		}
		lap()
		return nil
	})
	if err != nil {
		return nil, err
	}
	if err := e.common(res, ph, p, c.rec, len(sched), 0); err != nil {
		return nil, err
	}

	if e.trace {
		if err := e.traceIdentify(res, in, cacheCap, wholeEvery); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// ---------------------------------------------------------------------------
// live-mix

// deltaGen produces the seeded mutation stream. Every batch it emits is
// valid against the state its earlier acknowledged batches left, so no
// batch is ever refused.
type deltaGen struct {
	rng      *rand.Rand
	base     *graph.Graph
	users    []graph.NodeID
	anchors  []graph.NodeID
	follow   graph.Label
	nextNode graph.NodeID // the ID the server assigns to the next addNode
	sizes    []int        // a permutation of 0..7; batch i has 1 + sizes[i%8] ops
	batches  int
	far      []graph.NodeID
	added    [][2]graph.NodeID // follow edges this stream added and has not deleted
	present  map[[2]graph.NodeID]bool
}

func newDeltaGen(in *inputs) *deltaGen {
	d := &deltaGen{
		rng:      rand.New(rand.NewSource(in.rng.Int63())),
		base:     in.g,
		users:    in.g.NodesWithLabel(in.pred.XLabel),
		anchors:  in.anchors,
		follow:   in.syms.Lookup("follow"),
		nextNode: graph.NodeID(in.g.NumNodes()),
		present:  make(map[[2]graph.NodeID]bool),
	}
	d.sizes = d.rng.Perm(8)
	return d
}

// The three impact classes, by the distance from a touched node to the
// nearest user (the x label of every served rule):
//
//	far   new "tag" nodes linked only among themselves — nothing within
//	      reach, every cache entry is carried;
//	mid   new nodes hung off an anchor, which sits two hops from a user —
//	      radius-1 rules are carried, radius-2 rules dropped;
//	near  follow edges between users — everything is dropped.
const (
	classFar = iota
	classMid
	classNear
)

// next returns a batch of 1–8 ops. Classes take turns and sizes cycle
// through a seeded permutation, so every seed's stream drops the cache and
// fills the overlay at the same rate; the seed decides which nodes and
// edges. The generator's state already reflects the batch; a refused batch
// would desynchronise the stream, which is why the workload treats a
// refusal as fatal.
func (d *deltaGen) next() serve.DeltaRequest {
	class := d.batches % 3
	k := 1 + d.sizes[d.batches%len(d.sizes)]
	d.batches++
	var ops []serve.DeltaOpSpec
	addNode := func() graph.NodeID {
		ops = append(ops, serve.DeltaOpSpec{Op: "addNode", Label: "tag"})
		d.nextNode++
		return d.nextNode - 1
	}
	link := func(from, to graph.NodeID) {
		ops = append(ops, serve.DeltaOpSpec{Op: "addEdge", From: int32(from), To: int32(to), Label: "link"})
	}
	switch class {
	case classFar:
		for len(ops) < k {
			n := addNode()
			if len(d.far) > 0 && len(ops) < k {
				link(n, d.far[d.rng.Intn(len(d.far))])
			}
			d.far = append(d.far, n)
		}
	case classMid:
		for len(ops) < max(k, 2) {
			n := addNode()
			if len(ops) < max(k, 2) {
				link(n, d.anchors[d.rng.Intn(len(d.anchors))])
			}
		}
	case classNear:
		for len(ops) < k {
			if len(d.added) > 0 && d.rng.Intn(4) == 0 {
				i := d.rng.Intn(len(d.added))
				e := d.added[i]
				d.added[i] = d.added[len(d.added)-1]
				d.added = d.added[:len(d.added)-1]
				delete(d.present, e)
				ops = append(ops, serve.DeltaOpSpec{Op: "delEdge", From: int32(e[0]), To: int32(e[1]), Label: "follow"})
				continue
			}
			u, v := d.users[d.rng.Intn(len(d.users))], d.users[d.rng.Intn(len(d.users))]
			e := [2]graph.NodeID{u, v}
			if u == v || d.present[e] || d.base.HasEdge(u, v, d.follow) {
				continue
			}
			d.present[e] = true
			d.added = append(d.added, e)
			ops = append(ops, serve.DeltaOpSpec{Op: "addEdge", From: int32(u), To: int32(v), Label: "follow"})
		}
	}
	return serve.DeltaRequest{Ops: ops}
}

// replay applies acknowledged batches to g in this process and returns the
// compacted result: the graph the daemon must be serving.
func replay(g *graph.Graph, log []serve.DeltaRequest) (*graph.Graph, error) {
	for i, req := range log {
		ops := mapOps(g.Symbols(), req)
		var err error
		if g, err = g.ApplyDelta(ops); err != nil {
			return nil, fmt.Errorf("replay batch %d: %w", i, err)
		}
	}
	return g.CompactCopy(), nil
}

// compactThreshold is the overlay size that triggers a background
// compaction; sized so a measured phase sees several.
func (e *env) compactThreshold() int {
	if e.cfg.quick {
		return 150
	}
	return 300
}

// walTail is how many batches the WAL holds behind the last checkpoint when
// live-mix kills the daemon: 37 on the full run. Batch sizes cycle through
// 1 to 8 ops, 4.5 on average, so the tail stays well short of the
// threshold and no compaction checkpoints it away.
func (e *env) walTail() int { return e.compactThreshold() / 8 }

// settle waits for the compaction a batch has started to install: nothing
// else writes meanwhile, so it cannot be overtaken, and the overlay is empty
// once it is in. It gives up after half a minute and returns the daemon's
// counters as they stand.
func settle(a api) (*serve.StatsResponse, error) {
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		st, err := a.stats()
		if err != nil || st.Delta.OverlayOps == 0 || time.Now().After(deadline) {
			return st, err
		}
	}
}

// A live-mix window is 24 batches — every impact class with every batch size
// — each followed by reads: liveSingles single-rule requests, then one
// whole-Σ request. A near batch drops every cached match set, so the singles
// behind it are evaluated on the overlay path and the whole-Σ request then
// evaluates (and caches) the rest; a far batch carries everything, so the
// reads behind it are cache hits; a mid batch drops the six radius-2 rules.
// Four singles behind a near batch and two behind the others put between
// 4/11 and 6/11 of all identify requests in "single rule, evaluated on the
// overlay", 2/11 to 4/11 in "single rule, cache hit" below it and 3/11 in
// whole-Σ above it: the median request is an overlay evaluation whatever
// the mid batches carried.
const liveWindowBatches = 24

var liveSingles = [3]int{classFar: 2, classMid: 2, classNear: 4}

const liveWindowIdentifies = liveWindowBatches / 3 * (2 + 2 + 4 + 3)

func (e *env) liveMix() (*runResult, error) {
	res := newResult("live-mix", e.cfg.seed)
	dataDir := filepath.Join(e.dir, "data")
	in, p, err := e.pokecSetup(res, "-data-dir", dataDir, "-wal-sync", "always", "-compact-threshold", fmt.Sprint(e.compactThreshold()))
	if err != nil {
		return nil, err
	}
	defer func() { p.kill() }()
	a := api{e.hc, "http://" + p.addr}
	refs, _ := reference(in.g, in.rules)
	keys, err := servedKeys(a, refs)
	if err != nil {
		return nil, err
	}

	// Answers change with every batch, so during the phase the caller checks
	// only that it is answered (refs nil); the exact check comes after.
	c := &caller{a: a, keys: keys, rec: &recorder{}}
	deltaRec := &recorder{}
	gen := newDeltaGen(in)
	var log []serve.DeltaRequest
	var ackedOps int
	var lastGen uint64
	// post sends the stream's next batch; an acknowledged batch joins the
	// log the answer check replays. A refused batch desynchronises the
	// stream, so it ends the run.
	post := func() (*serve.DeltaResponse, error) {
		req := gen.next()
		s, dr, err := a.delta(req)
		deltaRec.add(s, err)
		if err != nil {
			return nil, err
		}
		log = append(log, req)
		ackedOps += len(req.Ops)
		lastGen = dr.Generation
		return dr, nil
	}
	ph, err := e.runPhase(p, a, func(lap func()) error {
		for i := 0; i < liveWindowBatches; i++ {
			class := gen.batches % 3
			if _, err := post(); err != nil {
				return err
			}
			for j := 0; j < liveSingles[class]; j++ {
				c.single()
			}
			c.whole()
			if i%3 == 2 { // a step is one batch of each class with its reads
				lap()
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	dLat, _, dAttempted, dFailed := deltaRec.window(ph)
	res.count(dAttempted, dFailed, deltaRec.firstErr)
	if err := e.common(res, ph, p, c.rec, liveWindowIdentifies, len(dLat)); err != nil {
		return nil, err
	}
	res.lat["delta"] = dLat
	res.Layers["delta_rps"] = ph.rate(liveWindowBatches)
	res.Layers["delta_ack_p50_ms"] = percentile(dLat, 50)
	from, to := ph.statsFrom.Delta, ph.statsTo.Delta
	carried, dropped := to.RulesCarried-from.RulesCarried, to.RulesInvalidated-from.RulesInvalidated
	res.Layers["serve.delta.carried_ratio"] = ratio(carried, carried+dropped)
	res.Layers["serve.delta.compactions"] = float64(to.Compactions - from.Compactions)
	res.Layers["serve.delta.compact_aborts"] = float64(to.CompactAborts - from.CompactAborts)
	res.Layers["serve.delta.overlay_ops"] = float64(to.OverlayOps)
	if ph.statsTo.Persistence != nil && ph.statsFrom.Persistence != nil {
		res.Layers["serve.wal.records"] = float64(ph.statsTo.Persistence.WALRecords - ph.statsFrom.Persistence.WALRecords)
	}

	// The phase ends wherever the last compaction left the overlay, and
	// recovery time grows with the WAL tail behind the last checkpoint. So
	// that recover_s times the same recovery every round, the stream goes on
	// until a batch starts a compaction, waits for it, and then goes on for
	// exactly walTail batches more.
	for compacting := false; !compacting; {
		dr, err := post()
		if err != nil {
			return nil, err
		}
		compacting = dr.Compacting
	}
	st, err := settle(a)
	if err != nil {
		return nil, err
	}
	res.expect(st.Delta.OverlayOps == 0, "live-mix: %d overlay ops left half a minute after a batch started a compaction", st.Delta.OverlayOps)
	for i := 0; i < e.walTail(); i++ {
		if _, err := post(); err != nil {
			return nil, err
		}
	}
	if st, err = a.stats(); err != nil {
		return nil, err
	}
	res.expect(st.Generation == lastGen, "live-mix: daemon at generation %d, last acknowledged batch was %d", st.Generation, lastGen)

	// Check the whole-Σ answer against the acknowledged op log replayed in
	// this process, before and after a kill -9.
	final, err := replay(in.g, log)
	if err != nil {
		return nil, err
	}
	finalRefs, finalSigma := reference(final, in.rules)
	_, err = a.identify(keys, -1, finalRefs, finalSigma)
	res.check(err)
	size, err := dirBytes(dataDir)
	if err != nil {
		return nil, err
	}
	res.Layers["disk_bytes_per_op"] = float64(size) / float64(max(ackedOps, 1))

	// kill -9, restart on the same data dir, and time kill → healthy:
	// snapshot load, replay of the walTail batches, checkpoint. Corrected
	// like setup_s, by probe laps on either side.
	slow := e.probe.slowness(setupLaps)
	killed := time.Now()
	q, err := p.restart()
	if err != nil {
		return nil, err
	}
	p = q // the deferred kill now reaps the restarted daemon
	h, err := p.waitHealthy(e.hc, time.Minute)
	if err != nil {
		return nil, err
	}
	recovered := time.Since(killed)
	slow += e.probe.slowness(setupLaps)
	res.Layers["recover_s"] = recovered.Seconds() / (slow / 2)
	a = api{e.hc, "http://" + p.addr}
	res.expect(h.Generation == st.Generation, "live-mix: recovered generation %d, last served %d", h.Generation, st.Generation)
	_, err = a.identify(keys, -1, finalRefs, finalSigma)
	res.check(err)

	if e.trace {
		if err := e.traceLive(res, in, log); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// ---------------------------------------------------------------------------
// mine-jobs

// mineParams is job i of the run: predicates in seeded order, σ stepping up
// once per pass over them, so no two jobs of a run are the same.
func mineParams(in *inputs, preds []core.Predicate, i int) (core.Predicate, serve.MineParams) {
	pred := preds[i%len(preds)]
	return pred, serve.MineParams{
		XLabel: in.syms.Name(pred.XLabel), EdgeLabel: in.syms.Name(pred.EdgeLabel), YLabel: in.syms.Name(pred.YLabel),
		K: 8, Sigma: 4 + i/len(preds), D: 2, Lambda: 0.5, MaxEdges: 2, Cap: 40,
	}
}

// minedKeys runs the same job in this process and returns its rules, their
// keys and the objective value F of the set.
func minedKeys(in *inputs, pred core.Predicate, p serve.MineParams) ([]*core.Rule, []string, float64) {
	opts := mine.Options{K: p.K, Sigma: p.Sigma, D: p.D, Lambda: p.Lambda, MaxEdges: p.MaxEdges, MaxCandidatesPerRound: p.Cap}
	res := mine.DMine(in.g, pred, opts.WithOptimizations())
	rules := make([]*core.Rule, len(res.TopK))
	keys := make([]string, len(res.TopK))
	for i, m := range res.TopK {
		rules[i], keys[i] = m.Rule, m.Rule.Key()
	}
	return rules, keys, res.F
}

// checkedJobs is how many mine jobs are re-run in this process and compared.
const checkedJobs = 3

// mineIdentifies is how many single-rule identify requests follow each mine
// job. A mine-jobs window is one job per predicate, each followed by its
// reads, so identify_rps there is reads per second of a caller that mines
// between them: it moves with the job time, and identify_p50_ms with the
// uncached evaluation on this graph.
const mineIdentifies = 20

func (e *env) mineJobs() (*runResult, error) {
	res := newResult("mine-jobs", e.cfg.seed)
	// Job 0 belongs to set-up: it mines the boot predicate (see gplusInputs)
	// and installs its rules, so that the identify requests have a set to
	// query, and it is the job that builds the mine context from cold — this
	// workload's start-up mine. The other jobs' order is the seed's.
	var preds []core.Predicate
	var pred0 core.Predicate
	var params0 serve.MineParams
	var job0 *serve.Job
	in, p, err := e.setup(res,
		func(dir string) (*inputs, error) { return gplusInputs(dir, e.cfg.seed, e.cfg.gplusUsers) },
		func(in *inputs) []string {
			return []string{"-graph", in.graphFile, "-pred", in.predFlag(in.pred), "-n", "2", "-cache", "1"}
		},
		func(in *inputs, p *gpard) error {
			preds = gen.GplusPredicates(in.syms)
			first := slices.Index(preds, in.pred)
			preds[0], preds[first] = preds[first], preds[0]
			in.rng.Shuffle(len(preds)-1, func(i, j int) { preds[i+1], preds[j+1] = preds[j+1], preds[i+1] })
			pred0, params0 = mineParams(in, preds, 0)
			params0.Install = true
			s0, job, err := api{e.hc, "http://" + p.addr}.mineJob(params0)
			job0 = job
			res.Layers["serve.mine.first_job_s"] = s0.dur.Seconds()
			return err
		})
	if err != nil {
		return nil, err
	}
	defer p.kill()
	a := api{e.hc, "http://" + p.addr}
	rules0, keys0, f0 := minedKeys(in, pred0, params0)
	res.expect(slices.Equal(job0.RuleKeys, keys0), "mine-jobs: job 0 mined %v (F=%v), reference %v (F=%v)", job0.RuleKeys, job0.F, keys0, f0)
	if len(rules0) == 0 {
		return nil, fmt.Errorf("mine-jobs: seed %d: job 0 mined no rules", e.cfg.seed)
	}
	refs, sigma := reference(in.g, rules0)
	keys, err := servedKeys(a, refs)
	if err != nil {
		return nil, err
	}

	c := &caller{a: a, keys: keys, refs: refs, sigma: sigma, rec: &recorder{}}
	mineRec := &recorder{}
	type done struct {
		i   int
		job *serve.Job
	}
	var jobs []done
	nextJob := 1
	ph, err := e.runPhase(p, a, func(lap func()) error {
		for range preds {
			_, params := mineParams(in, preds, nextJob)
			s, job, err := a.mineJob(params)
			mineRec.add(s, err)
			if job != nil {
				jobs = append(jobs, done{nextJob, job})
			}
			nextJob++
			for j := 0; j < mineIdentifies; j++ {
				c.single()
			}
			lap()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	mLat, _, mAttempted, mFailed := mineRec.window(ph)
	res.count(mAttempted, mFailed, mineRec.firstErr)
	if err := e.common(res, ph, p, c.rec, len(preds)*mineIdentifies, len(mLat)); err != nil {
		return nil, err
	}
	if len(mLat) == 0 {
		return nil, fmt.Errorf("mine-jobs: no mine job completed in the measured phase")
	}
	res.Samples["mine"] = len(mLat)
	res.Layers["mine_job_p50_s"] = percentile(mLat, 50) / 1000
	from, to := ph.statsFrom.MineCache, ph.statsTo.MineCache
	res.Layers["serve.mine.ctx_hit_ratio"] = ratio(to.Hits-from.Hits, to.Hits-from.Hits+to.Misses-from.Misses)

	for _, d := range jobs[:min(len(jobs), checkedJobs-1)] {
		pred, params := mineParams(in, preds, d.i)
		_, want, f := minedKeys(in, pred, params)
		res.expect(slices.Equal(d.job.RuleKeys, want), "mine-jobs: job %d mined %v (F=%v), reference %v (F=%v)", d.i, d.job.RuleKeys, d.job.F, want, f)
	}

	if e.trace {
		if err := e.traceMine(res, in, pred0, params0); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// FuzzServeModel is the serve-level differential oracle. Its input decodes
// into a header byte (fan-out, cache capacity, WAL sync policy, compaction
// threshold) and up to maxModelOps operations — identify, valid and raw
// delta batches, rule swaps, mine jobs, a canceled mine job, compaction,
// and four kinds of crash — run against a Server persisting to a
// diskfault.MemFS. After every step the server must agree with a naive
// model: the graph as node labels plus an edge set, rebuilt from scratch
// and evaluated with core.Eval and mine.DMine. The rules are local and
// their supports plain functions of the graph (Section 3), so no history
// may change an answer. The seeds run under
// plain `go test`; `go test -fuzz FuzzServeModel` searches and minimises.
// TestDeltaServeOracle, TestCrashRecoveryOracle and FuzzDeltaHandler drive
// the same model with fixed op sequences and single raw delta bodies.
package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"regexp"
	"slices"
	"testing"
	"time"

	"gpar/internal/core"
	"gpar/internal/diskfault"
	"gpar/internal/gen"
	"gpar/internal/graph"
	"gpar/internal/match"
	"gpar/internal/mine"
)

// wireModel is one state of the model's graph: node labels and an edge set
// keyed (from, to, label) in the served graph's symbol table. A committed
// state is never mutated; its rebuilt graph and core.Eval answers are
// computed once.
type wireModel struct {
	syms   *graph.Symbols
	labels []graph.Label
	edges  map[[3]int32]bool
	g      *graph.Graph
	evals  map[string]core.EvalResult
}

func newWireModel(g *graph.Graph) *wireModel {
	m := &wireModel{syms: g.Symbols(), edges: make(map[[3]int32]bool)}
	for v := 0; v < g.NumNodes(); v++ {
		m.labels = append(m.labels, g.Label(graph.NodeID(v)))
		for _, e := range g.Out(graph.NodeID(v)) {
			m.edges[[3]int32{int32(v), int32(e.To), int32(e.Label)}] = true
		}
	}
	return m
}

func (m *wireModel) clone() *wireModel {
	return &wireModel{syms: m.syms, labels: slices.Clone(m.labels), edges: maps.Clone(m.edges)}
}

// rebase re-expresses the state in another symbol table, by label name.
func (m *wireModel) rebase(syms *graph.Symbols) *wireModel {
	to := func(l int32) int32 { return int32(syms.Lookup(m.syms.Name(graph.Label(l)))) }
	out := &wireModel{syms: syms, edges: make(map[[3]int32]bool, len(m.edges))}
	for _, l := range m.labels {
		out.labels = append(out.labels, graph.Label(to(int32(l))))
	}
	for k := range m.edges {
		out.edges[[3]int32{k[0], k[1], to(k[2])}] = true
	}
	return out
}

// graph returns a fresh graph with the state's exact logical content.
func (m *wireModel) graph() *graph.Graph {
	if m.g == nil {
		m.g = graph.New(m.syms)
		for _, l := range m.labels {
			m.g.AddNodeL(l)
		}
		for k := range m.edges {
			m.g.AddEdgeL(graph.NodeID(k[0]), graph.NodeID(k[1]), graph.Label(k[2]))
		}
	}
	return m.g
}

// eval is core.Eval of r on the state's graph, over every x-labeled node.
func (m *wireModel) eval(r *core.Rule) core.EvalResult {
	if m.evals == nil {
		m.evals = make(map[string]core.EvalResult)
	}
	k := r.Key()
	if _, ok := m.evals[k]; !ok {
		m.evals[k] = core.Eval(m.graph(), r, match.Options{}, true)
	}
	return m.evals[k]
}

// randBatch generates 2..6 always-valid wire ops against the state,
// applying each, so intra-batch references line up with the server's dense
// ID assignment.
func (m *wireModel) randBatch(rng *rand.Rand, nodeLabels, edgeLabels []string) []DeltaOpSpec {
	var ops []DeltaOpSpec
	for n := 2 + rng.Intn(5); len(ops) < n; {
		node := func() int32 { return int32(rng.Intn(len(m.labels))) }
		op := DeltaOpSpec{Op: "addEdge", From: node(), To: node(), Label: edgeLabels[rng.Intn(len(edgeLabels))]}
		switch k := rng.Intn(10); {
		case k == 0:
			op = DeltaOpSpec{Op: "addNode", Label: nodeLabels[rng.Intn(len(nodeLabels))]}
		case k < 3:
			op = DeltaOpSpec{Op: "setLabel", Node: node(), Label: nodeLabels[rng.Intn(len(nodeLabels))]}
		case k < 6 && len(m.edges) > 0: // delete an edge, picked in key order
			keys := slices.SortedFunc(maps.Keys(m.edges), func(a, b [3]int32) int { return slices.Compare(a[:], b[:]) })
			e := keys[rng.Intn(len(keys))]
			op = DeltaOpSpec{Op: "delEdge", From: e[0], To: e[1], Label: m.syms.Name(graph.Label(e[2]))}
		}
		body, _ := json.Marshal(DeltaRequest{Ops: []DeltaOpSpec{op}})
		if code, next := m.decide(body); code == http.StatusAccepted {
			*m = *next // else a duplicate edge: draw again
			ops = append(ops, op)
		}
	}
	return ops
}

// decide is the model's verdict on a delta body under DeltaOpSpec's
// semantics: 400 for bad JSON, a field DeltaRequest or DeltaOpSpec does not
// have, anything but white space after the JSON value, no ops, an unknown
// op or a missing label; 409 when an op names a node that does not exist,
// adds an edge that does, or deletes one that does not; otherwise 202 and
// the state the batch leads to. Like the server it interns the labels of a
// batch that is not a 400, in op order, before applying any op.
func (m *wireModel) decide(body []byte) (int, *wireModel) {
	var req DeltaRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if dec.Decode(&req) != nil || dec.InputOffset() != int64(len(bytes.TrimRight(body, " \t\r\n"))) || len(req.Ops) == 0 {
		return http.StatusBadRequest, nil
	}
	for _, op := range req.Ops {
		if op.Op != "delEdge" && (op.Label == "" || !slices.Contains([]string{"addNode", "addEdge", "setLabel"}, op.Op)) {
			return http.StatusBadRequest, nil
		}
	}
	ls := make([]int32, len(req.Ops))
	for i, op := range req.Ops {
		if op.Op == "delEdge" {
			ls[i] = int32(m.syms.Lookup(op.Label))
		} else {
			ls[i] = int32(m.syms.Intern(op.Label))
		}
	}
	next := m.clone()
	for i, op := range req.Ops {
		in := func(v int32) bool { return v >= 0 && int(v) < len(next.labels) }
		e := [3]int32{op.From, op.To, ls[i]}
		switch {
		case op.Op == "addNode":
			next.labels = append(next.labels, graph.Label(ls[i]))
		case op.Op == "setLabel" && in(op.Node):
			next.labels[op.Node] = graph.Label(ls[i])
		case op.Op == "addEdge" && in(op.From) && in(op.To) && !next.edges[e]:
			next.edges[e] = true
		case op.Op == "delEdge" && in(op.From) && in(op.To) && next.edges[e]:
			delete(next.edges, e)
		default:
			return http.StatusConflict, nil
		}
	}
	return http.StatusAccepted, next
}

// normIdentify re-marshals an identify body without its volatile fields:
// generation, timing and cache provenance.
func normIdentify(t *testing.T, body []byte) []byte {
	t.Helper()
	var v map[string]any
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatalf("identify body %q: %v", body, err)
	}
	delete(v, "generation")
	delete(v, "elapsedMs")
	rules, _ := v["rules"].([]any)
	for _, r := range rules {
		delete(r.(map[string]any), "cached")
		delete(r.(map[string]any), "coalesced")
	}
	out, _ := json.Marshal(v)
	return out
}

// sigmaOf renders a DMine result for equality checks: the search's
// counters, then every retained rule key in order, top-k first.
func sigmaOf(res *mine.Result) string {
	s := fmt.Sprint(res.F, res.Rounds, res.Generated, res.Kept)
	for _, mm := range slices.Concat(res.TopK, res.All) {
		s += " " + mm.Rule.Key()
	}
	return s
}

// The op alphabet. Argument bytes follow the opcode; reads past the end
// of the input yield zero.
const (
	opIdentify   = iota // eta and key-subset byte; its bit 7 leaves out the match sets
	opDelta             // randBatch seed byte
	opRawDelta          // length byte, then that many body bytes
	opPutRules          // pool-subset byte
	opMine              // parameter-set and install byte
	opCancelMine        // -
	opCompact           // -
	opCrash             // variant byte (a torn one reads a seed byte, a bit flip two offset bytes)
	numOps
)

// The crash variants: power loss; a kill at the next WAL write leaving a
// torn frame header or a torn payload durable; power loss, then a bit flip
// in the durable WAL.
const (
	crashClean = iota
	crashTornHeader
	crashTornPayload
	crashBitFlip
)

var tornFaults = map[byte]diskfault.Fault{
	crashTornHeader:  {Op: diskfault.OpWrite, Path: "wal-", ShortWrite: 5, KeepTail: 5, Kill: true},
	crashTornPayload: {Op: diskfault.OpWrite, Path: "wal-", KeepTail: 30, Kill: true},
}

const maxModelOps = 24

var corruptName = regexp.MustCompile(`\.corrupt(\.[0-9]+)?$`)

// The mine jobs' parameters repeat so warm starts happen. A canceled job
// never completes, so it is never answered from a carried result.
var (
	mineSets  = []MineParams{{K: 2, Sigma: 1, D: 2, MaxEdges: 1, Cap: 10}, {K: 3, Sigma: 1, D: 2, MaxEdges: 2, Cap: 20}}
	cancelSet = MineParams{K: 2, Sigma: 1, D: 1, MaxEdges: 1, Cap: 10, Install: true}
)

// model is the reference the server is checked against.
type model struct {
	t      *testing.T
	s      *Server
	fs     *diskfault.MemFS
	cfg    Config
	popts  PersistOptions
	in     []byte
	pred   core.Predicate
	pool   []*core.Rule
	rules  []*core.Rule // the served Σ
	ckpt   uint64       // the newest checkpoint's generation
	states []*wireModel // states[i] is the graph at generation ckpt+i; the last is acknowledged
	// overlay[i] is the served graph's overlay op count at states[i]: the
	// compaction threshold's input, and Compact works when it is positive.
	overlay              []int
	nodeNames, edgeNames []string
}

func (md *model) cur() *wireModel { return md.states[len(md.states)-1] }
func (md *model) gen() uint64     { return md.ckpt + uint64(len(md.states)) - 1 }

func (md *model) ops() int { return md.overlay[len(md.overlay)-1] }

// checkpoint records a swap: a new generation, durable as a snapshot.
func (md *model) checkpoint() {
	md.ckpt = md.gen() + 1
	md.states = md.states[len(md.states)-1:]
	md.overlay = md.overlay[len(md.overlay)-1:]
}

// compacted records a compaction: a checkpoint with no overlay left.
func (md *model) compacted() {
	md.checkpoint()
	md.overlay[0] = 0
}

func (md *model) next() (b byte) {
	if len(md.in) > 0 {
		b, md.in = md.in[0], md.in[1:]
	}
	return b
}

// do runs one request in process, decoding the response into out if set.
func (md *model) do(method, path string, body []byte, out any) (int, []byte) {
	rec := httptest.NewRecorder()
	md.s.Handler().ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
	json.Unmarshal(rec.Body.Bytes(), out) // a nil out decodes nothing
	return rec.Code, rec.Body.Bytes()
}

// newModel reads the header byte of in and loads the fixture: a 120-user
// Pokec graph serving two rules of a five-rule pool: four from gen.Rules
// and a hangingRule whose y half, some user -q-> y, can change every
// centre's answer at once. Header bits: 0–1 the
// fan-out, 2 a one-entry cache, 3 SyncNone, 4 a compaction threshold of 6
// overlay ops (randBatch draws 2–6 per batch).
func newModel(t *testing.T, in []byte) *model {
	syms := graph.NewSymbols()
	g := gen.Pokec(syms, gen.DefaultPokec(120, 1))
	pred, pool := supportedRules(t, g, 4)
	pool = append(pool, hangingRule(syms, pred, syms.Name(pred.EdgeLabel), syms.Name(pred.XLabel), false))
	fs := diskfault.NewMemFS()
	md := &model{t: t, fs: fs, in: in, pred: pred, pool: pool, rules: pool[:2], ckpt: 1, states: []*wireModel{newWireModel(g)}, overlay: []int{0}}
	hdr := md.next()
	md.cfg = Config{Workers: []int{1, 2, 3, 8}[hdr&3], CacheCap: []int{256, 1}[hdr>>2&1], CompactThreshold: []int{0, 6}[hdr>>4&1]}
	md.popts = PersistOptions{Dir: "d", FS: fs, Sync: []SyncPolicy{SyncAlways, SyncNone}[hdr>>3&1]}
	nodes, edges := map[string]bool{}, map[string]bool{}
	for v := 0; v < g.NumNodes(); v++ {
		nodes[g.LabelName(graph.NodeID(v))] = true
		for _, e := range g.Out(graph.NodeID(v)) {
			edges[syms.Name(e.Label)] = true
		}
	}
	md.nodeNames, md.edgeNames = slices.Sorted(maps.Keys(nodes)), slices.Sorted(maps.Keys(edges))
	md.s = New(md.cfg)
	if err := errors.Join(md.s.EnablePersistence(md.popts), md.s.LoadSnapshot(g, pred, md.rules)); err != nil {
		t.Fatal(err)
	}
	return md
}

// identify checks POST /v1/identify against core.Eval per selected rule:
// mask picks served rules by key (none picked means the whole Σ), eta 0
// means the server default of 1, and nodes asks for every rule's matches.
func (md *model) identify(mask byte, eta float64, nodes bool) {
	md.t.Helper()
	req := IdentifyRequest{Eta: eta, IncludeMatches: nodes}
	var sel, all []int
	for i, r := range md.rules {
		if all = append(all, i); mask>>i&1 != 0 {
			sel, req.Rules = append(sel, i), append(req.Rules, r.Key())
		}
	}
	if sel == nil {
		sel = all
	}
	body, _ := json.Marshal(req)
	code, got := md.do("POST", "/v1/identify", body, nil)
	if len(sel) == 0 && code == http.StatusConflict {
		return
	}
	if code != http.StatusOK || len(sel) == 0 {
		md.t.Fatalf("identify over %d rules: %d (%s)", len(sel), code, got)
	}
	want := IdentifyResponse{Eta: eta}
	if eta == 0 {
		want.Eta = 1
	}
	ids := []graph.NodeID{}
	for _, i := range sel {
		res := md.cur().eval(md.rules[i])
		conf := res.Stats.Conf()
		matches := slices.Sorted(slices.Values(res.QSet))
		ir := IdentifyRule{Index: i, Key: md.rules[i].Key(), Conf: jsonFloat(conf), SuppR: res.Stats.SuppR,
			SuppQ: res.Stats.SuppQ, Matches: len(res.QSet), Applied: conf >= want.Eta}
		if nodes {
			ir.Nodes = matches
		}
		if ir.Applied {
			ids = append(ids, matches...)
		}
		want.Rules = append(want.Rules, ir)
	}
	slices.Sort(ids)
	want.Identified = slices.Compact(ids)
	want.Count = len(want.Identified)
	wb, _ := json.Marshal(want)
	if got, w := normIdentify(md.t, got), normIdentify(md.t, wb); !bytes.Equal(got, w) {
		md.t.Fatalf("identify diverged from core.Eval\nserver: %s\nmodel:  %s", got, w)
	}
}

// check compares /stats with the model, then the whole-Σ identify.
func (md *model) check() {
	md.t.Helper()
	var st StatsResponse
	md.do("GET", "/stats", nil, &st)
	got := []any{st.Generation, st.Graph.Nodes, st.Graph.Edges, st.Rules, st.Persistence.LastCheckpointGeneration, st.Delta.OverlayOps}
	want := []any{md.gen(), len(md.cur().labels), len(md.cur().edges), len(md.rules), md.ckpt, md.ops()}
	if !slices.Equal(got, want) {
		md.t.Fatalf("stats (generation, nodes, edges, rules, checkpoint, overlay ops) %v, model %v", got, want)
	}
	md.identify(0, 0, true)
}

// delta posts a batch. An accepted batch that brings the overlay to the
// compaction threshold answers only once the compaction is published too:
// two generations, the batch's then the compaction's checkpoint.
func (md *model) delta(body []byte) {
	want, next := md.cur().decide(body)
	ops := md.ops()
	if next != nil {
		var req DeltaRequest
		json.Unmarshal(body, &req) // decide accepted it, so it decodes
		ops += len(req.Ops)
	}
	compacts := next != nil && md.cfg.CompactThreshold > 0 && ops >= md.cfg.CompactThreshold
	var dr DeltaResponse
	if code, got := md.do("POST", "/v1/graph/delta", body, &dr); code != want ||
		want == http.StatusAccepted && (dr.Generation != md.gen()+1 || dr.OverlayOps != ops || dr.Compacting != compacts) {
		md.t.Fatalf("delta %q: %d (%s); model says %d at generation %d, overlay %d ops, compacting %v",
			body, code, got, want, md.gen()+1, ops, compacts)
	}
	if next != nil {
		md.states = append(md.states, next)
		md.overlay = append(md.overlay, ops)
	}
	if compacts {
		md.compacted()
	}
}

func (md *model) putRules(mask byte) {
	var sub []*core.Rule
	for i, r := range md.pool {
		if mask>>i&1 != 0 {
			sub = append(sub, r)
		}
	}
	var buf bytes.Buffer
	core.WriteRules(&buf, sub)
	var resp struct{ Generation uint64 }
	if code, _ := md.do("PUT", "/v1/rules", buf.Bytes(), &resp); code != http.StatusOK || resp.Generation != md.gen()+1 {
		md.t.Fatalf("PUT /v1/rules: %d, generation %d, want %d", code, resp.Generation, md.gen()+1)
	}
	md.rules = sub
	md.checkpoint()
}

// startJob posts a mine job for the served predicate; it returns once until holds.
func (md *model) startJob(p MineParams, until func(Job) bool) Job {
	name := md.cur().syms.Name
	p.XLabel, p.EdgeLabel, p.YLabel = name(md.pred.XLabel), name(md.pred.EdgeLabel), name(md.pred.YLabel)
	body, _ := json.Marshal(p)
	var job Job
	if code, got := md.do("POST", "/v1/mine", body, &job); code != http.StatusAccepted {
		md.t.Fatalf("mine: %d (%s)", code, got)
	}
	return waitJobUntil(md.t, md.s, job.ID, 30*time.Second, until)
}

// mine runs a job to its end and checks its rule keys against mine.DMine
// on the rebuilt graph, whether or not the server warm-started it.
func (md *model) mine(b byte) {
	p := mineSets[b&1]
	p.Install = b&2 != 0
	job := md.startJob(p, func(j Job) bool { return terminal(j.Status) })
	res := mine.DMine(md.cur().graph(), md.pred, mine.Options{K: p.K, Sigma: p.Sigma, D: p.D,
		MaxEdges: p.MaxEdges, MaxCandidatesPerRound: p.Cap, N: 1})
	var keys []string
	var rules []*core.Rule
	for _, mm := range res.TopK {
		keys, rules = append(keys, mm.Rule.Key()), append(rules, mm.Rule)
	}
	install := p.Install && len(rules) > 0
	if job.Status != JobDone || !slices.Equal(job.RuleKeys, keys) || job.Installed != install ||
		install && job.Generation != md.gen()+1 {
		md.t.Fatalf("mine job %+v\nmodel: keys %v, installed %v at %d", job, keys, install, md.gen()+1)
	}
	if install {
		md.rules = rules
		md.checkpoint()
	}
}

// cancelMine starts a job while every mine-gate slot is held, so it cannot
// finish, and cancels it: it must end canceled with nothing installed.
func (md *model) cancelMine() {
	defer holdGate(md.t, md.s)()
	job := md.startJob(cancelSet, func(j Job) bool { return j.Status == JobRunning })
	if code, _ := md.do("DELETE", "/v1/jobs/"+job.ID, nil, nil); code != http.StatusAccepted {
		md.t.Fatalf("cancel: %d", code)
	}
	job = waitJobUntil(md.t, md.s, job.ID, 10*time.Second, func(j Job) bool { return terminal(j.Status) })
	if job.Status != JobCanceled || job.Installed {
		md.t.Fatalf("canceled job ended %+v", job)
	}
}

func (md *model) compact() {
	gen, did, err := md.s.Compact()
	if err != nil || did != (md.ops() > 0) || did && gen != md.gen()+1 {
		md.t.Fatalf("Compact: generation %d, did %v, err %v; model overlay %d ops at %d", gen, did, err, md.ops(), md.gen())
	}
	if did {
		md.compacted()
	}
}

// crash kills the server one of four ways and recovers a new one from the
// same directory. Recovery must stop between the last checkpoint and the
// acknowledged generation — at the acknowledged one under SyncAlways,
// unless a bit flip hit a record — serving the model's state there, and
// must report one truncated record and one quarantined file exactly when
// a torn or flipped record is durable.
func (md *model) crash(variant byte) {
	t := md.t
	fault, corrupt := tornFaults[variant]
	if corrupt {
		md.fs.Inject(fault)
		batch := md.cur().clone().randBatch(rand.New(rand.NewSource(int64(md.next()))), md.nodeNames, md.edgeNames)
		if _, err := md.s.ApplyDelta(DeltaRequest{Ops: batch}); !errors.Is(err, diskfault.ErrCrashed) {
			t.Fatalf("delta at the kill point: %v", err)
		}
	} else {
		md.fs.Crash()
	}
	md.fs.Reboot()
	wal := filepath.Join("d", fmt.Sprintf("wal-%016x.wal", md.ckpt))
	if size := md.fs.DurableLen(wal); variant == crashBitFlip && size > walHeaderLen {
		off := int64(md.next())<<8 | int64(md.next())
		corrupt = md.fs.CorruptDurable(wal, walHeaderLen+off%(size-walHeaderLen))
	}

	s := New(md.cfg)
	if err := s.EnablePersistence(md.popts); err != nil {
		t.Fatal(err)
	}
	rep, err := s.Recover()
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	rg, n := rep.Generation, 0
	if corrupt {
		n = 1
	}
	flipped := variant == crashBitFlip && corrupt
	if !rep.Recovered || rg != s.Generation() || rg < md.ckpt || rg > md.gen() ||
		md.popts.Sync == SyncAlways && (rg < md.gen()) != flipped ||
		rep.Snapshot != fmt.Sprintf("snap-%016x.gpsnap", md.ckpt) || rep.Replayed != int(rg-md.ckpt) ||
		rep.Truncated != n || len(rep.Quarantined) != n {
		t.Fatalf("recovery %+v; checkpoint %d, acknowledged %d, sync %s, corrupt records %d",
			rep, md.ckpt, md.gen(), md.popts.Sync, n)
	}
	for _, q := range rep.Quarantined {
		if b, err := diskfault.ReadFile(md.fs, filepath.Join("d", q)); !corruptName.MatchString(q) || len(b) == 0 {
			t.Fatalf("quarantined %q: %d bytes, %v", q, len(b), err)
		}
	}
	if ps := s.persist.stats(); ps.SnapshotLoads != 1 || ps.WALReplayed != int64(rep.Replayed) ||
		ps.WALTruncated != int64(n) || ps.Quarantines != int64(n) {
		t.Fatalf("persistence stats after recovery: %+v", ps)
	}

	// The recovered symbol table equals the old one up to the checkpoint;
	// DMine's tie-break reads label IDs, so the model adopts it.
	syms := s.Snapshot().G.Symbols()
	var buf bytes.Buffer
	core.WriteRules(&buf, md.rules)
	if md.rules, err = core.ReadRules(&buf, syms); err != nil {
		t.Fatal(err)
	}
	// Replay starts from a frozen snapshot: the overlay holds the replayed
	// batches' ops only.
	md.s = s
	md.states = []*wireModel{md.states[rg-md.ckpt].rebase(syms)}
	md.overlay = []int{md.overlay[rg-md.ckpt] - md.overlay[0]}
	md.ckpt = rg
}

// prog encodes an input: an int is one byte, a string a raw delta body
// preceded by its length.
func prog(parts ...any) []byte {
	var b []byte
	for _, p := range parts {
		switch p := p.(type) {
		case int:
			b = append(b, byte(p))
		case string:
			b = append(append(b, byte(len(p))), p...)
		}
	}
	return b
}

func FuzzServeModel(f *testing.F) {
	// Node 0 is the one music:Disco node, the predicate's y: one hop from
	// users, so relabeling it lands exactly at rule 1's radius. Nodes 166
	// and 167 are the first two added.
	const (
		island  = `{"ops":[{"op":"addNode","label":"island"},{"op":"addNode","label":"island"},{"op":"addEdge","from":166,"to":167,"label":"bridge"}]}`
		noDisco = `{"ops":[{"op":"setLabel","node":0,"label":"music:Rock"}]}`
		disco   = `{"ops":[{"op":"setLabel","node":0,"label":"music:Disco"}]}`
	)
	for _, in := range [][]byte{
		// Power loss keeps every acknowledged batch; recovery extends the history.
		prog(0x01, opDelta, 1, opDelta, 2, opDelta, 3, opCrash, crashClean, opDelta, 4, opIdentify, 4),
		// Kills mid-append: a torn frame header, then a torn payload.
		prog(0x00, opDelta, 5, opDelta, 6, opCrash, crashTornHeader, 7, opIdentify, 5, opCrash, crashTornPayload, 8, opDelta, 9),
		// SyncNone loses the unsynced tail, torn or clean.
		prog(0x0a, opDelta, 10, opDelta, 11, opCrash, crashTornPayload, 12, opDelta, 13, opCrash, crashClean, opIdentify, 7),
		// Recovery across a compaction; compacting a plain graph is a no-op.
		prog(0x03, opDelta, 14, opDelta, 15, opCompact, opDelta, 16, opCrash, crashClean, opCompact, opCompact),
		// A bit flip in a durable record, with a one-entry cache.
		prog(0x05, opDelta, 17, opDelta, 18, opDelta, 19, opCrash, crashBitFlip, 1, 44, opIdentify, 9),
		// Raw bodies read as 202, 409 and 400: rule 1's radius, a failing second op.
		prog(0x00, opRawDelta, island, opRawDelta, noDisco, opRawDelta, disco,
			opRawDelta, `{"ops":[{"op":"addEdge","from":0,"to":1,"label":"friend"}]}`,
			opRawDelta, `{"ops":[{"op":"delEdge","from":0,"to":1,"label":"friend"}]}`,
			opRawDelta, `{"ops":[{"op":"delEdge","from":0,"to":1,"label":"unheard-of"}]}`,
			opRawDelta, `{"ops":[{"op":"setLabel","node":-1,"label":"cust"}]}`,
			opRawDelta, `{"ops":[{"op":"addNode","label":"x"},{"op":"delEdge","from":0,"to":5,"label":"follow"}]}`,
			opRawDelta, `{"ops":[{"op":"addEdge","from":2147483647,"to":-2,"label":""}]}`,
			opRawDelta, `{"ops":[{"op":"explode"}]}`, opRawDelta, `{nope`, opCrash, crashClean),
		// Mine jobs: a warm start across an island, a re-mine after the
		// relabel, an install, an empty Σ, and a swap before power loss.
		prog(0x01, opPutRules, 0b1010, opMine, 0, opRawDelta, island, opMine, 0, opRawDelta, noDisco,
			opMine, 0, opRawDelta, disco, opMine, 3, opPutRules, 0, opIdentify, 3, opPutRules, 0b1111,
			opCrash, crashClean, opMine, 2),
		// Canceled jobs around an install, then a torn crash under SyncNone.
		prog(0x0e, opCancelMine, opDelta, 20, opMine, 2, opCancelMine, opCompact, opCrash, crashTornHeader, 21, opIdentify, 8),
		// A threshold of 6: crossing batches compact before they answer, and
		// a clean crash recovers from the last one's checkpoint.
		prog(0x11, opDelta, 22, opDelta, 23, opDelta, 24, opIdentify, 4, opDelta, 25, opDelta, 26,
			opDelta, 27, opCrash, crashClean, opDelta, 28, opCompact, opIdentify, 5),
		// The same under SyncNone, with a torn crash between crossings.
		prog(0x1a, opDelta, 29, opDelta, 30, opDelta, 31, opCrash, crashTornPayload, 32, opDelta, 33,
			opDelta, 34, opIdentify, 3, opCrash, crashClean, opDelta, 35),
		// The hanging rule served, cached and then reached by the relabel of
		// the one Disco node, far as that is from most users.
		prog(0x00, opPutRules, 0b10001, opRawDelta, noDisco, opRawDelta, disco, opIdentify, 2),
		// Answers without match sets: one rule, then Σ at each η, across a delta.
		prog(0x00, opIdentify, 0x83, opIdentify, 0x80, opDelta, 36, opIdentify, 0x81, opIdentify, 0x82),
	} {
		f.Add(in)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		t.Parallel()
		runModel(t, in)
	})
}

// runModel decodes in, runs its operations, checking the server against
// the model after each, and ends by comparing Σ mined on both graphs.
func runModel(t *testing.T, in []byte) {
	md := newModel(t, in)
	md.check()
	for step := 0; step < maxModelOps && len(md.in) > 0; step++ {
		switch md.next() % numOps {
		case opIdentify:
			b := md.next()
			a := b & 0x7f
			md.identify(a/3, []float64{0, 0.5, 2}[a%3], b < 0x80)
		case opDelta:
			batch := md.cur().clone().randBatch(rand.New(rand.NewSource(int64(md.next()))), md.nodeNames, md.edgeNames)
			body, _ := json.Marshal(DeltaRequest{Ops: batch})
			md.delta(body)
		case opRawDelta:
			body := md.in[:min(int(md.next()), len(md.in))]
			md.in = md.in[len(body):]
			md.delta(body)
		case opPutRules:
			md.putRules(md.next())
		case opMine:
			md.mine(md.next())
		case opCancelMine:
			md.cancelMine()
		case opCompact:
			md.compact()
		case opCrash:
			md.crash(md.next() % 4)
		}
		md.check()
	}

	// Σ mined on the served graph equals Σ mined on the rebuilt one.
	opts := mine.Options{K: 3, Sigma: 1, D: 2, MaxEdges: 2, N: md.cfg.Workers, MaxCandidatesPerRound: 20}
	live := sigmaOf(mine.DMine(md.s.Snapshot().G, md.pred, opts))
	if ref := sigmaOf(mine.DMine(md.cur().graph(), md.pred, opts)); live != ref {
		t.Fatalf("Σ diverged\nserved:  %+v\nrebuilt: %+v", live, ref)
	}
}

// modelFanOuts are the header's fan-outs, in header order.
var modelFanOuts = []int{1, 2, 3, 8}

// TestDeltaServeOracle runs deltas and compactions through the model at
// every fan-out: each answer must equal core.Eval on the rebuilt graph.
func TestDeltaServeOracle(t *testing.T) {
	for i, n := range modelFanOuts {
		t.Run(fmt.Sprintf("%d-workers", n), func(t *testing.T) {
			t.Parallel()
			s := 40 + 10*i
			runModel(t, prog(i, opDelta, s, opDelta, s+1, opIdentify, 4, opCompact, opDelta, s+2,
				opDelta, s+3, opDelta, s+4, opIdentify, 5, opCompact, opCompact, opDelta, s+5, opIdentify, 3))
		})
	}
}

// TestCrashRecoveryOracle runs deltas and every crash variant through the
// model at every fan-out under SyncAlways: no acknowledged batch may be
// lost unless a bit flip hit it, and every torn or flipped record must be
// truncated and quarantined.
func TestCrashRecoveryOracle(t *testing.T) {
	for i, n := range modelFanOuts {
		t.Run(fmt.Sprintf("%d-workers", n), func(t *testing.T) {
			t.Parallel()
			s := 80 + 10*i
			runModel(t, prog(i, opDelta, s, opDelta, s+1, opCrash, crashClean, opDelta, s+2,
				opCrash, crashTornHeader, s+3, opDelta, s+4, opCrash, crashTornPayload, s+5,
				opDelta, s+6, opDelta, s+7, opCrash, crashBitFlip, s, 7*s, opIdentify, 4, opDelta, s+8))
		})
	}
}

// FuzzDeltaHandler throws arbitrary bytes at POST /v1/graph/delta: the
// handler must answer what the model decides from DeltaOpSpec's semantics,
// move the generation only on a 202, and keep serving the model's graph.
func FuzzDeltaHandler(f *testing.F) {
	f.Add([]byte(`{"ops":[{"op":"addNode","label":"island"}]}`))
	f.Add([]byte(`{"ops":[{"op":"addNode","label":"x"},{"op":"addEdge","from":11,"to":0,"label":"friend"}]}`))
	f.Add([]byte(`{"ops":[{"op":"addEdge","from":0,"to":1,"label":"friend"}]}`))
	f.Add([]byte(`{"ops":[{"op":"delEdge","from":0,"to":1,"label":"friend"}]}`))
	f.Add([]byte(`{"ops":[{"op":"setLabel","node":-1,"label":"cust"}]}`))
	f.Add([]byte(`{"ops":[{"op":"addEdge","from":2147483647,"to":-2,"label":""}]}`))
	f.Add([]byte(`{"ops":[]}`))
	f.Add([]byte(`{nope`))
	f.Add([]byte(`{"ops":[{"op":"addNode","label":"x","lable":"y"}]}`))
	f.Add([]byte(`{"ops":[{"op":"addNode","label":"x"}]}{}`))
	f.Add([]byte("{\"ops\":[{\"op\":\"addNode\",\"label\":\"x\"}]} \r\n"))
	f.Fuzz(func(t *testing.T, body []byte) {
		t.Parallel()
		md := newModel(t, []byte{0x01})
		md.delta(body)
		md.check()
	})
}

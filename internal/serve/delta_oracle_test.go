// The serve-level mutation differential oracle: a server fed randomized
// delta batches through ApplyDelta must answer identify requests — and
// mine Σ — byte-identically to a server loaded from scratch with a graph
// rebuilt to the same logical content. The snapshot code is the same on
// both sides; what differs is the graph under it (overlay on the shared CSR,
// or its compaction, vs a from-scratch freeze) and the live side's history.
// This pins the whole incremental path at once: the graph overlay, selective
// cache carry, and compaction's hot swap.
package serve

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"gpar/internal/gen"
	"gpar/internal/graph"
	"gpar/internal/mine"
)

// wireModel is the oracle's reference state, mutated in lockstep with the
// live server via the same wire-level ops. It shares the live graph's
// symbol table, so a rebuilt graph renders identical rule keys.
type wireModel struct {
	syms   *graph.Symbols
	labels []graph.Label
	edges  map[[3]int32]bool // (from, to, label)
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

func (m *wireModel) apply(ops []DeltaOpSpec) {
	for _, op := range ops {
		l := int32(m.syms.Lookup(op.Label))
		switch op.Op {
		case "addNode":
			m.labels = append(m.labels, graph.Label(l))
		case "addEdge":
			m.edges[[3]int32{op.From, op.To, l}] = true
		case "delEdge":
			delete(m.edges, [3]int32{op.From, op.To, l})
		case "setLabel":
			m.labels[op.Node] = graph.Label(l)
		}
	}
}

// rebuild constructs a fresh graph with the model's exact logical content.
func (m *wireModel) rebuild() *graph.Graph {
	g := graph.New(m.syms)
	for _, l := range m.labels {
		g.AddNodeL(l)
	}
	for k := range m.edges {
		g.AddEdgeL(graph.NodeID(k[0]), graph.NodeID(k[1]), graph.Label(k[2]))
	}
	return g
}

// randBatch generates 2..6 always-valid wire ops against the model's
// current state, mutating it as it goes so intra-batch references line up
// with the server's dense ID assignment.
func (m *wireModel) randBatch(rng *rand.Rand, nodeLabels, edgeLabels []string) []DeltaOpSpec {
	n := 2 + rng.Intn(5)
	ops := make([]DeltaOpSpec, 0, n)
	for len(ops) < n {
		var op DeltaOpSpec
		switch rng.Intn(10) {
		case 0: // add node
			op = DeltaOpSpec{Op: "addNode", Label: nodeLabels[rng.Intn(len(nodeLabels))]}
		case 1, 2: // relabel
			op = DeltaOpSpec{Op: "setLabel",
				Node:  int32(rng.Intn(len(m.labels))),
				Label: nodeLabels[rng.Intn(len(nodeLabels))]}
		case 3, 4, 5: // delete a random existing edge
			if len(m.edges) == 0 {
				continue
			}
			i, target := rng.Intn(len(m.edges)), [3]int32{}
			for k := range m.edges {
				if i == 0 {
					target = k
					break
				}
				i--
			}
			op = DeltaOpSpec{Op: "delEdge", From: target[0], To: target[1],
				Label: m.syms.Name(graph.Label(target[2]))}
		default: // add a fresh edge
			from := int32(rng.Intn(len(m.labels)))
			to := int32(rng.Intn(len(m.labels)))
			name := edgeLabels[rng.Intn(len(edgeLabels))]
			if m.edges[[3]int32{from, to, int32(m.syms.Lookup(name))}] {
				continue
			}
			op = DeltaOpSpec{Op: "addEdge", From: from, To: to, Label: name}
		}
		m.apply([]DeltaOpSpec{op})
		ops = append(ops, op)
	}
	return ops
}

// identifyBytes runs a full includeMatches identify against a handler and
// returns the response with its volatile fields (generation, timing, cache
// provenance) normalized, re-marshaled for byte comparison.
func identifyBytes(t *testing.T, h http.Handler) []byte {
	t.Helper()
	req := httptest.NewRequest("POST", "/v1/identify",
		strings.NewReader(`{"eta":1.0,"includeMatches":true}`))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != 200 {
		t.Fatalf("identify: %d (%s)", rec.Code, rec.Body.Bytes())
	}
	var idr IdentifyResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &idr); err != nil {
		t.Fatalf("identify body: %v", err)
	}
	idr.Generation = 0
	idr.ElapsedMs = 0
	for i := range idr.Rules {
		idr.Rules[i].Cached = false
		idr.Rules[i].Coalesced = false
	}
	out, err := json.Marshal(idr)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// sigma summarizes a DMine result for equality checks: the search
// trajectory counters plus every retained rule key in order.
type sigma struct {
	f                       float64
	rounds, generated, kept int
	topK, all               []string
}

func sigmaOf(res *mine.Result) sigma {
	s := sigma{f: res.F, rounds: res.Rounds, generated: res.Generated, kept: res.Kept}
	for _, mm := range res.TopK {
		s.topK = append(s.topK, mm.Rule.Key())
	}
	for _, mm := range res.All {
		s.all = append(s.all, mm.Rule.Key())
	}
	return s
}

func TestDeltaServeOracle(t *testing.T) {
	for _, n := range []int{1, 2, 3, 8} {
		n := n
		t.Run(string(rune('0'+n))+"-workers", func(t *testing.T) {
			t.Parallel()
			syms := graph.NewSymbols()
			g := gen.Pokec(syms, gen.DefaultPokec(120, 1))
			pred, rules := supportedRules(t, g, 3)
			model := newWireModel(g)

			live := New(Config{Workers: n})
			if err := live.LoadSnapshot(g, pred, rules); err != nil {
				t.Fatalf("LoadSnapshot: %v", err)
			}
			liveH := live.Handler()

			// The op vocabulary: every node and edge label name the
			// generator used, read back from the base graph.
			nodeLabels := map[string]bool{}
			edgeLabels := map[string]bool{}
			for v := 0; v < g.NumNodes(); v++ {
				nodeLabels[g.LabelName(graph.NodeID(v))] = true
				for _, e := range g.Out(graph.NodeID(v)) {
					edgeLabels[syms.Name(e.Label)] = true
				}
			}
			var nodeNames, edgeNames []string
			for name := range nodeLabels {
				nodeNames = append(nodeNames, name)
			}
			for name := range edgeLabels {
				edgeNames = append(edgeNames, name)
			}

			// compare rebuilds the reference server from the model and
			// checks the identify response byte-for-byte.
			compare := func(step int) *graph.Graph {
				t.Helper()
				refG := model.rebuild()
				ref := New(Config{Workers: n})
				if err := ref.LoadSnapshot(refG, pred, rules); err != nil {
					t.Fatalf("step %d: reference LoadSnapshot: %v", step, err)
				}
				liveBytes := identifyBytes(t, liveH)
				refBytes := identifyBytes(t, ref.Handler())
				if !bytes.Equal(liveBytes, refBytes) {
					t.Fatalf("step %d: identify diverged from rebuild\nlive: %s\nref:  %s",
						step, liveBytes, refBytes)
				}
				return refG
			}

			mineOpts := mine.Options{
				K: 3, Sigma: 1, D: 2, MaxEdges: 2, N: n, MaxCandidatesPerRound: 20,
			}.WithOptimizations()

			rng := rand.New(rand.NewSource(int64(7 * n)))
			const steps = 8
			for step := 1; step <= steps; step++ {
				batch := model.randBatch(rng, nodeNames, edgeNames)
				if _, err := live.ApplyDelta(DeltaRequest{Ops: batch}); err != nil {
					t.Fatalf("step %d: ApplyDelta: %v", step, err)
				}
				refG := compare(step)

				// Mid-sequence and at the end: DMine Σ over the overlay
				// graph must equal Σ over the rebuilt graph.
				if step == steps/2 || step == steps {
					liveSigma := sigmaOf(mine.DMine(live.Snapshot().G, pred, mineOpts))
					refSigma := sigmaOf(mine.DMine(refG, pred, mineOpts))
					if !reflect.DeepEqual(liveSigma, refSigma) {
						t.Fatalf("step %d: Σ diverged\nlive: %+v\nref:  %+v", step, liveSigma, refSigma)
					}
				}

				// Every third step, fold the overlay down and re-compare:
				// compaction must be invisible to readers.
				if step%3 == 0 {
					if _, did, err := live.Compact(); err != nil || !did {
						t.Fatalf("step %d: Compact: did=%v err=%v", step, did, err)
					}
					compare(step)
				}
			}
		})
	}
}

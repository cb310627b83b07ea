package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"

	"gpar/internal/core"
	"gpar/internal/gen"
	"gpar/internal/graph"
	"gpar/internal/match"
	"gpar/internal/mine"
)

// eta is the confidence bound every identify request carries. The generated
// rules have Bayes-factor confidences scattered around 1, so the server
// default of 1.0 would make "is this rule applied" — and with it the size of
// every whole-Σ answer — a coin flip per seed. Half of that keeps every
// rule with evidence applied on every seed.
const eta = 0.5

// startupMine is the DMine configuration that produces the served rule set:
// the "mine once" half of mine-once-match-many, timed as part of setup_s.
var startupMine = mine.Options{
	K: 26, Sigma: 5, D: 2, Lambda: 0.5, N: 2, MaxEdges: 2, MaxCandidatesPerRound: 50,
}.WithOptimizations()

// largerShapes are the six two-edge antecedent shapes the identify
// workloads add to the mined single-edge rules, cheapest first (7 to 25 ms
// per evaluation on the 10 k-user graph, against 1.3 ms for a mined rule).
// Matching cost is a function of the shape (1.7 ms to 1 s on that graph)
// and hardly of the labels, so fixing the shapes and letting the seed pick
// the labels and neighbourhoods keeps the workload's cost profile the same
// on every seed; taking gen.Rules' first samples instead moved identify_rps
// by an order of magnitude between seeds.
//
// Each edge is "<from>-<edge label>><to>" over node classes: x, or the node
// label up to its colon.
var largerShapes = canonShapes([][]string{
	{"x-follow>user", "x-hobby>hobby"},
	{"user-follow>x", "x-hobby>hobby"},
	{"x-follow>user", "user-live_in>city"},
	{"user-follow>x", "user-live_in>city"},
	{"x-follow>user", "user-like_music>music"},
	{"user-follow>x", "user-hobby>hobby"},
})

func canonShapes(shapes [][]string) []string {
	out := make([]string, len(shapes))
	for i, edges := range shapes {
		sort.Strings(edges)
		out[i] = fmt.Sprintf("%d:%s", len(edges)+1, strings.Join(edges, ","))
	}
	return out
}

// shapeOf renders a rule's antecedent in the largerShapes notation.
func shapeOf(r *core.Rule) string {
	q := r.Q
	class := func(u int) string {
		if u == q.X {
			return "x"
		}
		name, _, _ := strings.Cut(q.LabelName(u), ":")
		return name
	}
	var edges []string
	for _, e := range q.Edges() {
		edges = append(edges, fmt.Sprintf("%s-%s>%s", class(e.From), q.Symbols().Name(e.Label), class(e.To)))
	}
	sort.Strings(edges)
	return fmt.Sprintf("%d:%s", q.NumNodes(), strings.Join(edges, ","))
}

// ruleRef is one rule's reference answer, computed in this process with the
// plain unguided matcher over the whole graph (core.Eval): no fragments, no
// sketches, no cache — nothing the server's path shares.
type ruleRef struct {
	key     string
	matches []graph.NodeID // Q(x,G), ascending
	applied bool           // conf >= eta
}

// reference evaluates every rule on g and returns the per-rule answers and
// Σ(x,G,η), the sorted union of the applied rules' match sets.
func reference(g *graph.Graph, rules []*core.Rule) ([]ruleRef, []graph.NodeID) {
	refs := make([]ruleRef, len(rules))
	seen := make(map[graph.NodeID]struct{})
	for i, r := range rules {
		ev := core.Eval(g, r, match.Options{}, true)
		slices.Sort(ev.QSet)
		refs[i] = ruleRef{key: r.Key(), matches: ev.QSet, applied: ev.Stats.Conf() >= eta}
		if refs[i].applied {
			for _, v := range ev.QSet {
				seen[v] = struct{}{}
			}
		}
	}
	identified := make([]graph.NodeID, 0, len(seen))
	for v := range seen {
		identified = append(identified, v)
	}
	slices.Sort(identified)
	return refs, identified
}

// inputs is everything one workload run is generated from. The seed is the
// only source of randomness: graph, rules, rule order, delta ops and mine
// parameter order all derive from it.
type inputs struct {
	rng   *rand.Rand
	syms  *graph.Symbols
	g     *graph.Graph
	pred  core.Predicate
	rules []*core.Rule // in rules-file order
	// anchors are the "tag" nodes hung off item nodes: two hops from the
	// nearest user, so a delta touching only them has impact distance 2.
	anchors   []graph.NodeID
	graphFile string
	rulesFile string // "" when the daemon boots with an empty rule set
}

// anchorCount is how many tag nodes the Pokec-style graph gets.
const anchorCount = 16

// pokecInputs generates the identify/live input set: a Pokec-style graph,
// 26 rules mined from it plus the six larger shapes, in seeded order,
// written to dir as the two files gpard boots from.
func pokecInputs(dir string, seed int64, users int, quick bool) (*inputs, error) {
	in := &inputs{rng: rand.New(rand.NewSource(seed)), syms: graph.NewSymbols()}
	in.g = gen.Pokec(in.syms, gen.DefaultPokec(users, seed))
	var items []graph.NodeID
	userL := in.syms.Lookup("user")
	for v := 0; v < in.g.NumNodes() && in.g.Label(graph.NodeID(v)) != userL; v++ {
		if !strings.HasPrefix(in.g.LabelName(graph.NodeID(v)), "city:") {
			items = append(items, graph.NodeID(v))
		}
	}
	for i := 0; i < anchorCount; i++ {
		a := in.g.AddNode("tag")
		in.g.AddEdge(items[i%len(items)], a, "tagged")
		in.anchors = append(in.anchors, a)
	}
	in.pred = gen.PokecPredicates(in.syms)[0]

	for _, m := range mine.DMine(in.g, in.pred, startupMine).TopK {
		in.rules = append(in.rules, m.Rule)
	}
	if len(in.rules) == 0 {
		return nil, fmt.Errorf("seed %d: start-up mine found no rules", seed)
	}
	want := make(map[string]bool, len(largerShapes))
	for _, s := range largerShapes {
		want[s] = true
	}
	// The rarer shapes turn up a handful of times per thousand samples, so
	// one batch misses one now and then; further batches are still a pure
	// function of the seed. The quick smoke's 400-user graph lacks some
	// shapes altogether and takes what one batch finds.
	batches := int64(20)
	if quick {
		batches = 1
	}
	for batch := int64(0); len(want) > 0 && batch < batches; batch++ {
		for _, r := range gen.Rules(in.g, in.pred, gen.RuleGenParams{Count: 1000, VP: 3, EP: 2, Seed: seed + batch<<32}) {
			if s := shapeOf(r); want[s] {
				delete(want, s)
				in.rules = append(in.rules, r)
			}
		}
	}
	// The full-size graph must contain every shape, or the workload is not
	// the one described.
	if len(want) > 0 && !quick {
		return nil, fmt.Errorf("seed %d: gen.Rules produced no rule of shapes %v", seed, want)
	}
	in.rng.Shuffle(len(in.rules), func(i, j int) { in.rules[i], in.rules[j] = in.rules[j], in.rules[i] })

	in.graphFile = filepath.Join(dir, "graph.txt")
	in.rulesFile = filepath.Join(dir, "rules.txt")
	if err := writeFile(in.graphFile, func(f *os.File) error { _, err := in.g.WriteTo(f); return err }); err != nil {
		return nil, err
	}
	if err := writeFile(in.rulesFile, func(f *os.File) error { return core.WriteRules(f, in.rules) }); err != nil {
		return nil, err
	}
	return in, nil
}

// gplusInputs generates the mining input: a Google+-style graph (five node
// types, alumni homophily — a different shape and label skew from Pokec)
// and no rules file.
func gplusInputs(dir string, seed int64, users int) (*inputs, error) {
	in := &inputs{rng: rand.New(rand.NewSource(seed)), graphFile: filepath.Join(dir, "graph.txt")}
	generated := gen.Gplus(graph.NewSymbols(), gen.DefaultGplus(users, seed))
	if err := writeFile(in.graphFile, func(f *os.File) error { _, err := generated.WriteTo(f); return err }); err != nil {
		return nil, err
	}
	// The reference mines on the graph as gpard reads it, not as the
	// generator built it: the file interns labels in a different order, and
	// DMine breaks ties between equally good rules by label number, so the
	// two graphs — equal as graphs — can yield different, equally good, top-k
	// sets.
	f, err := os.Open(in.graphFile)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	in.syms = graph.NewSymbols()
	if in.g, err = graph.Read(f, in.syms); err != nil {
		return nil, err
	}
	in.g.Freeze()
	// The employer predicate: the rules mined for it are what the identify
	// requests query, and they are single-edge rules of about a millisecond
	// each on every seed. The major and school predicates mine "shares a
	// school with another user" antecedents that take 100–200 ms to
	// evaluate, which would turn the reads into the workload.
	in.pred = gen.GplusPredicates(in.syms)[2]
	return in, nil
}

// predFlag renders a predicate the way gpard's -pred flag reads it.
func (in *inputs) predFlag(p core.Predicate) string {
	return strings.Join([]string{in.syms.Name(p.XLabel), in.syms.Name(p.EdgeLabel), in.syms.Name(p.YLabel)}, ",")
}

func writeFile(path string, fill func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fill(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

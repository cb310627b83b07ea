package bench

import (
	"bytes"
	"encoding/csv"
	"reflect"
	"slices"
	"strings"
	"testing"
)

func TestFigureFormat(t *testing.T) {
	fig := Figure{ID: "x", Title: "t", XAxis: "n", Serie: []Series{
		{Name: "A", Points: []Point{{X: "1", Seconds: 0.5, Counters: Counters{Work: 10}}}},
	}}
	var buf bytes.Buffer
	fig.Format(&buf)
	out := buf.String()
	for _, want := range []string{"Figure x", "A (s)", "0.500"} {
		if !strings.Contains(out, want) {
			t.Errorf("Format output missing %q:\n%s", want, out)
		}
	}
}

// The figure shape tests run the experiment table at QuickScale, split in
// four groups of figures, and assert the paper's shape claims on the
// deterministic counters, never on seconds. DESIGN.md's *Paper fidelity*
// table lists the claims and the QuickScale deviations left out (disVF2 on
// the synthetic graphs).
var (
	dmineFigs      = []string{"5a", "5c", "5e", "5f"}
	dmineGplusFigs = []string{"5b", "5d", "5x"}
	eipFigs        = []string{"5h", "5j", "5n", "5o"}
	eipGplusDFigs  = []string{"5i", "5k", "5l", "5m"}
)

func TestDMineFiguresQuick(t *testing.T)        { checkShapes(t, dmineFigs) }
func TestDMineGplusFiguresQuick(t *testing.T)   { checkShapes(t, dmineGplusFigs) }
func TestEIPFiguresQuick(t *testing.T)          { checkShapes(t, eipFigs) }
func TestEIPGplusAndDFiguresQuick(t *testing.T) { checkShapes(t, eipGplusDFigs) }

// TestFigureGroupsCoverTable keeps the four groups a partition of the
// experiment table, so every figure's shape is asserted exactly once.
func TestFigureGroupsCoverTable(t *testing.T) {
	seen := map[string]int{}
	for _, g := range [][]string{dmineFigs, dmineGplusFigs, eipFigs, eipGplusDFigs} {
		for _, id := range g {
			seen[id]++
		}
	}
	for _, e := range Experiments(QuickScale()) {
		if seen[e.ID] != 1 {
			t.Errorf("fig %s is in %d shape groups, want 1", e.ID, seen[e.ID])
		}
		delete(seen, e.ID)
	}
	for id := range seen {
		t.Errorf("shape group names fig %s, which the table lacks", id)
	}
}

// checkShapes measures the named experiments and asserts every shape claim
// on the figures among them.
func checkShapes(t *testing.T, ids []string) {
	t.Helper()
	figs := map[string]Figure{}
	for _, e := range Experiments(QuickScale()) {
		if !slices.Contains(ids, e.ID) {
			continue
		}
		fig, err := Measure(e)
		if err != nil {
			t.Fatalf("fig %s: %v", e.ID, err)
		}
		for a, s := range fig.Serie {
			if s.Name != e.Algos[a] || len(s.Points) != len(e.Xs) {
				t.Fatalf("fig %s series %d: %s with %d points, want %s with %d", e.ID, a, s.Name, len(s.Points), e.Algos[a], len(e.Xs))
			}
		}
		figs[e.ID] = fig
	}
	if len(figs) != len(ids) {
		t.Fatalf("measured %d of figs %v", len(figs), ids)
	}
	points := func(id, algo string) []Point {
		for _, s := range figs[id].Serie {
			if s.Name == algo {
				return s.Points
			}
		}
		t.Fatalf("fig %s has no series %s", id, algo)
		return nil
	}
	work := func(p Point) int64 { return p.Work }
	iso := func(p Point) int64 { return int64(p.IsoChecks) }
	// below asserts a's counter is under b's at every point of each
	// measured figure among claimIDs, or at most b's when orEqual.
	below := func(claimIDs []string, a, b string, counter func(Point) int64, orEqual bool) {
		for _, id := range claimIDs {
			if _, ok := figs[id]; !ok {
				continue
			}
			pa, pb := points(id, a), points(id, b)
			for i := range pa {
				if x, y := counter(pa[i]), counter(pb[i]); x > y || x == y && !orEqual {
					t.Errorf("fig %s at %s: %s %d, %s %d", id, pa[i].X, a, x, b, y)
				}
			}
		}
	}
	below([]string{"5h", "5i", "5j", "5k", "5l", "5m", "5n", "5o"}, "Match", "Matchc", work, false)
	below([]string{"5h", "5i", "5j", "5k", "5l", "5m"}, "Matchc", "disVF2", work, true)
	below([]string{"5a", "5b", "5c", "5d", "5e", "5f", "5x"}, "DMine", "DMineno", iso, false)
	for _, id := range []string{"5a", "5b", "5e", "5h", "5i", "5n"} {
		for _, s := range figs[id].Serie {
			for i := 1; i < len(s.Points); i++ {
				if s.Points[i].Work > s.Points[i-1].Work {
					t.Errorf("fig %s %s: work rises with n, %d at %s to %d at %s", id, s.Name,
						s.Points[i-1].Work, s.Points[i-1].X, s.Points[i].Work, s.Points[i].X)
				}
			}
		}
	}
}

func TestPrecisionQuick(t *testing.T) {
	sc := QuickScale()
	table := Precision(sc, []int{5, 10})
	if len(table.Metrics) != 3 {
		t.Fatalf("metrics = %v", table.Metrics)
	}
	for mi, row := range table.Values {
		if len(row) != 2 {
			t.Fatalf("row %d has %d values", mi, len(row))
		}
		for _, v := range row {
			if v < 0 || v > 1 {
				t.Errorf("precision %v out of [0,1]", v)
			}
		}
	}
	// The paper's ordering: conf at least PCAconf at every top, and the
	// best of the three at top 10.
	pca, iconf, conf := table.Values[0], table.Values[1], table.Values[2]
	for ti, top := range table.Tops {
		if conf[ti] < pca[ti] {
			t.Errorf("top %d: conf %.3f below PCAconf %.3f", top, conf[ti], pca[ti])
		}
	}
	if conf[1] <= pca[1] || conf[1] <= iconf[1] {
		t.Errorf("top 10: conf %.3f not above PCAconf %.3f and Iconf %.3f", conf[1], pca[1], iconf[1])
	}
	var buf bytes.Buffer
	table.Format(&buf)
	if !strings.Contains(buf.String(), "conf") {
		t.Error("Format output missing metric names")
	}
}

func TestCaseStudyQuick(t *testing.T) {
	var buf bytes.Buffer
	CaseStudy(&buf, QuickScale())
	out := buf.String()
	for _, want := range []string{"Pokec-like", "Google+-like", "GRAMI-like"} {
		if !strings.Contains(out, want) {
			t.Errorf("case study output missing %q", want)
		}
	}
}

func TestGraphCaching(t *testing.T) {
	a, _ := PokecGraph(100, 5)
	b, _ := PokecGraph(100, 5)
	if a != b {
		t.Error("PokecGraph not memoized")
	}
	c, _ := PokecGraph(100, 6)
	if a == c {
		t.Error("different seeds shared a cache entry")
	}
	s1, _ := SyntheticGraph(50, 100, 1)
	s2, _ := SyntheticGraph(50, 100, 1)
	if s1 != s2 {
		t.Error("SyntheticGraph not memoized")
	}
	g1, _ := GplusGraph(100, 5)
	g2, _ := GplusGraph(100, 5)
	if g1 != g2 {
		t.Error("GplusGraph not memoized")
	}
	// Building the experiment table generates nothing.
	sc := QuickScale()
	sc.Seed = 99
	Experiments(sc)
	graphCache.Range(func(key, _ any) bool {
		if strings.HasSuffix(key.(string), "-99") {
			t.Errorf("Experiments generated %s", key)
		}
		return true
	})
}

func TestSyntheticPredicateHasSupport(t *testing.T) {
	g, _ := SyntheticGraph(500, 1000, 3)
	pred := SyntheticPredicate(g)
	if pred.XLabel == 0 || pred.EdgeLabel == 0 {
		t.Fatal("degenerate predicate")
	}
}

func TestWriteCSV(t *testing.T) {
	fig := Figure{ID: "5f", XAxis: "|G|", Mining: true, Serie: []Series{
		{Name: "DMine", Points: []Point{{X: "(1000,2000)", Seconds: 1.5, Counters: Counters{Work: 100, IsoChecks: 7, Kept: 2}}}},
		{Name: "DMineno", Points: []Point{{X: "(1000,2000)", Seconds: 2.0, Counters: Counters{Work: 100, IsoChecks: 9, Kept: 2}}}},
	}}
	match := Figure{ID: "5h", XAxis: "n", Serie: []Series{
		{Name: "Match", Points: []Point{{X: "2", Seconds: 0.25, Counters: Counters{Work: 31}}}},
	}}
	prec := PrecisionTable{Tops: []int{5}, Metrics: []string{"conf"}, Values: [][]float64{{0.144}}}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, []Figure{fig, match}, prec); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatalf("not CSV: %v\n%s", err, buf.String())
	}
	want := [][]string{
		{"figure", "x", "series", "work", "iso_checks", "kept", "precision", "seconds"},
		{"5f", "(1000,2000)", "DMine", "100", "7", "2", "", "1.500000"},
		{"5f", "(1000,2000)", "DMineno", "100", "9", "2", "", "2.000000"},
		{"5h", "2", "Match", "31", "", "", "", "0.250000"},
		{"precision", "5", "conf", "", "", "", "0.144000", ""},
	}
	if !reflect.DeepEqual(rows, want) {
		t.Errorf("rows:\n%q\nwant:\n%q", rows, want)
	}
}

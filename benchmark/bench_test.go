package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"
)

// TestQuickSmoke runs all four workloads end to end at smoke scale — real
// gpard processes, answer checks on, traced pass included — and checks that
// nothing failed and every declared metric was produced.
func TestQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns gpard processes")
	}
	out := filepath.Join(t.TempDir(), "result.json")
	if code := run(quickConfig(1), "", 1, out); code != 0 {
		t.Fatalf("quick run exited %d", code)
	}
	f, err := readResultFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Runs) != len(workloads) {
		t.Fatalf("%d runs, want %d", len(f.Runs), len(workloads))
	}
	// Metrics that are legitimately zero: nothing is shed or coalesced with
	// one closed-loop caller, Lemma 3 prunes nothing on this graph, the WAL's
	// cost can vanish in the noise on a fast disk, a one-second phase holds
	// too few samples for the tail percentiles, a compaction is overtaken
	// only if a batch lands during its copy, and the phase can end right
	// after one emptied the overlay.
	mayBeZero := map[string]bool{
		"serve.admit.shed_ratio": true, "serve.batch.coalesced_ratio": true,
		"mine.pruned": true, "serve.wal_append_us": true,
		"identify_p95_ms": true, "identify_p99_ms": true, "delta_ack_p95_ms": true, "delta_ack_p99_ms": true,
		"serve.delta.compact_aborts": true, "serve.delta.overlay_ops": true,
	}
	nonZero := make(map[string]bool)
	for _, r := range f.Runs {
		if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d: %v", r.Workload, r.Correct, r.Attempted, r.Failed, r.Errors)
		}
		for _, d := range endToEnd {
			if r.E2E[d.Name] <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", r.Workload, d.Name, r.E2E[d.Name])
			}
		}
		for name, v := range r.Layers {
			if _, ok := metricByName(name); !ok {
				t.Errorf("%s: reported undeclared metric %s", r.Workload, name)
			}
			if v != 0 {
				nonZero[name] = true
			}
		}
	}
	for _, d := range perLayer {
		if !nonZero[d.Name] && !mayBeZero[d.Name] {
			t.Errorf("per-layer metric %s is zero on every workload", d.Name)
		}
	}
	for _, r := range f.Runs {
		hit := r.Layers["serve.cache.hit_ratio"]
		if r.Workload == "identify-cold" && hit >= 0.05 {
			t.Errorf("identify-cold: cache hit ratio %v, want < 0.05", hit)
		}
		if r.Workload == "identify-hot" && hit <= 0.95 {
			t.Errorf("identify-hot: cache hit ratio %v, want > 0.95", hit)
		}
	}
	if _, err := os.Stat(filepath.Join("out", "trace-identify-cold.json")); err != nil {
		t.Errorf("traced pass left no span file: %v", err)
	}
}

func TestIdentifySchedule(t *testing.T) {
	if got, want := identifySchedule(4, 0), []int{0, 1, 2, 3}; !slices.Equal(got, want) {
		t.Errorf("identifySchedule(4, 0) = %v, want %v", got, want)
	}
	if got, want := identifySchedule(7, 4), []int{0, 1, 2, -1, 3, 4, 5, -1, 6}; !slices.Equal(got, want) {
		t.Errorf("identifySchedule(7, 4) = %v, want %v", got, want)
	}
}

// TestPhaseCorrection pins the machine-speed correction: a latency is
// divided by the slowness of the step it finished in, a total over the phase
// by clocked time over nominal time.
func TestPhaseCorrection(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	ph := &phase{
		from: t0, to: at(1000),
		steps: []step{{end: at(200), dur: 0.2, slow: 1}, {end: at(500), dur: 0.3, slow: 1.5}, {end: at(700), dur: 0.2, slow: 1}},
	}
	for _, c := range []struct {
		ms   int
		want float64
	}{{100, 1}, {200, 1}, {201, 1.5}, {500, 1.5}, {650, 1}, {900, 1}} {
		if got := ph.slowAt(at(c.ms)); got != c.want {
			t.Errorf("slowAt(%d ms) = %v, want %v", c.ms, got, c.want)
		}
	}
	if got, want := ph.slowdown(), 0.7/0.6; math.Abs(got-want) > 1e-12 {
		t.Errorf("slowdown = %v, want %v", got, want)
	}
	rec := &recorder{}
	rec.add(sample{start: at(-10), dur: 5 * time.Millisecond, ok: true}, nil) // warm-up
	rec.add(sample{start: at(100), dur: 2 * time.Millisecond, ok: true}, nil)
	rec.add(sample{start: at(300), dur: 3 * time.Millisecond, ok: true}, nil) // in the slow step
	rec.add(sample{start: at(400), dur: 3 * time.Millisecond}, errors.New("refused"))
	lat, _, attempted, failed := rec.window(ph)
	if want := []float64{2, 2}; !slices.Equal(lat, want) || attempted != 3 || failed != 1 {
		t.Errorf("window = %v, attempted %d, failed %d; want %v, 3, 1", lat, attempted, failed, want)
	}
}

// TestProbeLapIsFixedWork checks that every lap does the same work, which
// is what makes lap times comparable.
func TestProbeLapIsFixedWork(t *testing.T) {
	p := newProbe()
	p.lap()
	first := p.sink
	p.lap()
	if first == 0 || p.sink != 2*first {
		t.Errorf("two laps found %d paths, one found %d", p.sink, first)
	}
	if s := p.slowness(3); s <= 0 {
		t.Errorf("slowness = %v", s)
	}
}

func TestSupportedPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{5, 50}, {19, 50}, {20, 50}, {99, 50}, {100, 90}, {199, 90}, {200, 95},
		{999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := supportedPercentile(c.n); got != c.want {
			t.Errorf("supportedPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestPercentileIsNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for p, want := range map[float64]float64{50: 5, 90: 9, 95: 10, 99: 10, 10: 1} {
		if got := percentile(xs, p); got != want {
			t.Errorf("percentile(%v) = %v, want %v", p, got, want)
		}
	}
}

// TestExclusiveQuartiles pins the spread arithmetic to Python's
// statistics.quantiles(xs, n=4), which is what the driver uses.
func TestExclusiveQuartiles(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 3, 1, 2, 4}, 1.5, 4.5},
		{[]float64{10, 20}, 7.5, 22.5},
	} {
		if q1, q3 := exclusiveQuartiles(c.xs); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("exclusiveQuartiles(%v) = %v, %v, want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "http", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "eval", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "eval", Start: 30, End: 60},  // overlaps span 2: counted once
		{ID: 4, Parent: 1, Name: "enc", Start: 90, End: 120},  // sticks out: clipped at 100
		{ID: 5, Parent: 2, Name: "match", Start: 10, End: 35}, // grandchild: only reduces span 2
		{ID: 6, Name: "alone", Start: 0, End: 7},
	}
	self := selfTimes(spans)
	for id, want := range map[int]int64{1: 100 - 50 - 10, 2: 5, 3: 30, 4: 30, 5: 25, 6: 7} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
	if got := selfOf(spans, "eval"); len(got) != 2 || got[0] != 5 || got[1] != 30 {
		t.Errorf("selfOf(eval) = %v", got)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var off *tracer
	off.do("x", 0, 0, func() {})
	off.end(off.begin("x", 0, 0), 3) // must not panic
}

func TestVerdict(t *testing.T) {
	tight := func(m float64) spread { return spread{N: 5, Median: m, Rel: 0.01} }
	loose := func(m float64) spread { return spread{N: 5, Median: m, Rel: 0.2} }
	once := func(m float64) spread { return spread{N: 1, Median: m} }
	for _, c := range []struct {
		better string
		bound  float64
		a, b   spread
		want   string
	}{
		{"lower", 0.05, tight(100), tight(103), "ok"},
		{"lower", 0.05, tight(100), tight(106), "worse"},
		{"lower", 0.05, tight(100), tight(80), "ok"}, // better is never worse
		{"higher", 0.05, tight(100), tight(94), "worse"},
		{"higher", 0.05, tight(100), tight(120), "ok"},
		{"lower", 0.05, loose(100), tight(101), "unresolved"},
		{"lower", 0.05, tight(100), loose(130), "worse"},    // past the bound is worse even when noisy
		{"lower", 0.05, once(100), once(101), "unresolved"}, // one run has no spread to judge by
		{"lower", 0.05, tight(100), once(130), "worse"},
		{"lower", 0, tight(100), tight(500), "info"},
		{"lower", 0.05, spread{}, tight(1), "unresolved"},
	} {
		if _, got := verdict(c.better, c.bound, c.a, c.b); got != c.want {
			t.Errorf("verdict(%s within %v, %v → %v) = %s, want %s", c.better, c.bound, c.a.Median, c.b.Median, got, c.want)
		}
	}
}

func TestCompareRefusesOtherMachines(t *testing.T) {
	mk := func(cpu string, rps float64) *resultFile {
		return &resultFile{
			Fingerprint: fingerprint{CPU: cpu, NumCPU: 2, GOMAXPROCS: 2, GoVersion: "go1.24.0", Commit: cpu},
			Summary:     map[string]map[string]spread{"identify-cold": {"identify_rps": {N: 3, Median: rps}}},
		}
	}
	var buf bytes.Buffer
	if code := compare(&buf, mk("cpu A", 100), mk("cpu B", 100)); code != 2 || !strings.Contains(buf.String(), "refusing") {
		t.Errorf("different CPUs: exit %d, output %q", code, buf.String())
	}
	buf.Reset()
	a, b := mk("cpu A", 100), mk("cpu A", 70)
	b.Fingerprint.Commit = "another commit" // comparing commits is the point
	if code := compare(&buf, a, b); code != 1 || !strings.Contains(buf.String(), "worse") {
		t.Errorf("30%% slower: exit %d, output %q", code, buf.String())
	}
}

func TestCompareFailsOnFailedOperations(t *testing.T) {
	mk := func(failed int) *resultFile {
		return &resultFile{
			Fingerprint: fingerprint{CPU: "cpu", NumCPU: 2, GOMAXPROCS: 2, GoVersion: "go1.24.0"},
			Runs:        []*runResult{{Workload: "live-mix", Attempted: 100, Failed: failed}},
			Summary:     map[string]map[string]spread{"live-mix": {"identify_rps": {N: 3, Median: 100}}},
		}
	}
	var buf bytes.Buffer
	if code := compare(&buf, mk(0), mk(0)); code != 0 {
		t.Errorf("no failures: exit %d, output %q", code, buf.String())
	}
	buf.Reset()
	if code := compare(&buf, mk(0), mk(1)); code != 1 || !strings.Contains(buf.String(), "failed operations") {
		t.Errorf("one failed operation: exit %d, output %q", code, buf.String())
	}
}

// TestMergeRoundsPoolsTails pins the percentile rule: tails come from the
// pooled rounds and only as far up as the pooled count supports.
func TestMergeRoundsPoolsTails(t *testing.T) {
	round := func(n int) *runResult {
		r := newResult("live-mix", 1)
		for i := 1; i <= n; i++ {
			r.lat["delta"] = append(r.lat["delta"], float64(i))
		}
		return r
	}
	m := mergeRounds([]*runResult{round(100), round(100), round(100)})
	if m.Samples["delta"] != 300 {
		t.Errorf("pooled samples = %d, want 300", m.Samples["delta"])
	}
	if got := m.Layers["delta_ack_p95_ms"]; got != 95 {
		t.Errorf("p95 over 300 pooled samples = %v, want 95", got)
	}
	if _, ok := m.Layers["delta_ack_p99_ms"]; ok {
		t.Error("p99 reported on 300 samples, which leave only 3 beyond it")
	}
	if m = mergeRounds([]*runResult{round(400), round(400), round(400)}); m.Layers["delta_ack_p99_ms"] != 396 {
		t.Errorf("p99 over 1200 pooled samples = %v, want 396", m.Layers["delta_ack_p99_ms"])
	}
}

// TestBenchmarkJSONMatchesTable keeps BENCHMARK.json, which the driver
// reads, in step with the tables the program reports from.
func TestBenchmarkJSONMatchesTable(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bm struct {
		Workloads []workloadDef `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bm); err != nil {
		t.Fatal(err)
	}
	if len(bm.Workloads) != len(workloads) || len(bm.EndToEnd) != len(endToEnd) || len(bm.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d workloads, %d end-to-end, %d per-layer; the tables have %d, %d, %d",
			len(bm.Workloads), len(bm.EndToEnd), len(bm.PerLayer), len(workloads), len(endToEnd), len(perLayer))
	}
	for i, w := range workloads {
		if bm.Workloads[i] != w {
			t.Errorf("workload %d: BENCHMARK.json %+v, table %+v", i, bm.Workloads[i], w)
		}
	}
	for i, d := range endToEnd {
		if got := bm.EndToEnd[i]; got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better || got.Bound != d.maxBound() {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, table %+v", i, got, d)
		}
	}
	for i, d := range perLayer {
		if got := bm.PerLayer[i]; got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, table %+v", i, got, d)
		}
	}
}

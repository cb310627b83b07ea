// Command benchjson turns `go test -bench -benchmem` output into the
// BENCH_*.json artifacts tracked by `make bench`: per-benchmark ns/op,
// B/op and allocs/op, joined against a recorded baseline so the speedup
// and allocation-reduction ratios of a hot-path rewrite are visible in one
// file. -set picks the baseline: "match" (pre-CSR matcher, d6c8e5f) or
// "mine" (pre-interning DMine loop, 0549b0b).
//
// Usage: go test -bench ... -benchmem ./... | benchjson [-set match|mine] [-o BENCH_match.json]
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"strconv"
	"strings"

	"gpar/internal/benchfmt"
)

// baselines hold the numbers measured at the named commits on the same
// workloads, recorded before each rewrite landed. They were taken on the
// machine that produced the committed artifacts; the ratios are only
// meaningful when the current run uses comparable hardware.
//
// "match": commit d6c8e5f — pointer-chasing [][]Edge adjacency, map
// used-set, per-candidate matcher allocation, before the CSR rewrite.
//
// "mine": commit 0549b0b — string rule/extension identity, per-embedding
// map scratch, single-threaded assembly and sorted-slice diversification
// diffs, before the allocation-lean DMine rewrite.
var baselines = map[string]map[string]measurement{
	"match": {
		"BenchmarkAnchoredMatch/unguided": {NsPerOp: 7171, BytesPerOp: 1379, AllocsPerOp: 64},
		"BenchmarkAnchoredMatch/guided":   {NsPerOp: 44948, BytesPerOp: 6707, AllocsPerOp: 209},
		"BenchmarkMatchSet":               {NsPerOp: 20951397, BytesPerOp: 4145511, AllocsPerOp: 192160},
		"BenchmarkIdentify":               {NsPerOp: 19078529, BytesPerOp: 6297920, AllocsPerOp: 103736},
	},
	"mine": {
		"BenchmarkDMine":              {NsPerOp: 112067462, BytesPerOp: 31951282, AllocsPerOp: 790954},
		"BenchmarkDMineNo":            {NsPerOp: 119691820, BytesPerOp: 29647447, AllocsPerOp: 710175},
		"BenchmarkDiscoverExtensions": {NsPerOp: 1285430, BytesPerOp: 304374, AllocsPerOp: 11801},
		"BenchmarkDiversifyUpdate":    {NsPerOp: 77365179, BytesPerOp: 260412, AllocsPerOp: 91},
	},
}

// baselineCommits names the commit each baseline set was measured at.
var baselineCommits = map[string]string{
	"match": "d6c8e5f",
	"mine":  "0549b0b",
}

// measurement, entry and report live in internal/benchfmt, shared with
// cmd/benchguard.
type (
	measurement = benchfmt.Measurement
	entry       = benchfmt.Entry
	report      = benchfmt.Report
)

// The optional MB/s column appears when a benchmark calls b.SetBytes
// (the durability benchmarks do); it must be skipped, not mistaken for
// the B/op column.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([\d.]+) ns/op(?:\s+[\d.]+ MB/s)?(?:\s+([\d.]+) B/op)?(?:\s+(\d+) allocs/op)?`)

func main() {
	out := flag.String("o", "", "output file (default stdout)")
	set := flag.String("set", "match", "baseline set: match or mine")
	flag.Parse()
	baseline, ok := baselines[*set]
	if !ok {
		fmt.Fprintf(os.Stderr, "benchjson: unknown baseline set %q\n", *set)
		os.Exit(2)
	}

	var entries []entry
	sc := bufio.NewScanner(os.Stdin)
	for sc.Scan() {
		line := sc.Text()
		fmt.Fprintln(os.Stderr, line) // keep the raw output visible in logs
		m := benchLine.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil {
			continue
		}
		var cur measurement
		cur.NsPerOp, _ = strconv.ParseFloat(m[2], 64)
		if m[3] != "" {
			b, _ := strconv.ParseFloat(m[3], 64)
			cur.BytesPerOp = int64(b)
		}
		if m[4] != "" {
			cur.AllocsPerOp, _ = strconv.ParseInt(m[4], 10, 64)
		}
		e := entry{Name: m[1], Current: cur}
		if base, ok := baseline[m[1]]; ok {
			b := base
			e.Base = &b
			if cur.NsPerOp > 0 {
				e.Speedup = round2(base.NsPerOp / cur.NsPerOp)
			}
			allocs := cur.AllocsPerOp
			if allocs == 0 {
				e.ZeroAllocs = true
				allocs = 1 // lower-bound ratio; the true reduction is infinite
			}
			if base.AllocsPerOp > 0 {
				e.AllocReduction = round2(float64(base.AllocsPerOp) / float64(allocs))
			}
		}
		entries = append(entries, e)
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson: read:", err)
		os.Exit(1)
	}
	if len(entries) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines found")
		os.Exit(1)
	}

	rep := report{
		GeneratedBy:    "make bench",
		BaselineCommit: baselineCommits[*set],
		Benchmarks:     entries,
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if *out == "" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

func round2(f float64) float64 {
	return float64(int64(f*100+0.5)) / 100
}

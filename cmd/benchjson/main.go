// Command benchjson turns `go test -bench -benchmem` output into the
// BENCH_*.json artifacts tracked by `make bench`: per-benchmark ns/op,
// B/op and allocs/op, stamped with the machine and commit that produced
// them. Two artifacts are comparable only when their fingerprints agree on
// everything but the commit.
//
// Usage: go test -bench ... -benchmem ./... | benchjson [-o BENCH_match.json]
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"strconv"
	"strings"
)

// fingerprint identifies the machine and build an artifact came from.
type fingerprint struct {
	CPU        string `json:"cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	Commit     string `json:"commit"`
	Dirty      bool   `json:"dirty"` // uncommitted changes on top of Commit
}

func machineFingerprint() fingerprint {
	fp := fingerprint{
		CPU: "unknown", GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: "unknown",
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				fp.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	// Outside a git checkout the commit stays unknown.
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		fp.Commit = strings.TrimSpace(string(out))
		st, err := exec.Command("git", "status", "--porcelain").Output()
		fp.Dirty = err != nil || len(st) > 0
	}
	return fp
}

// entry is one benchmark's -benchmem triple.
type entry struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// report is one BENCH_*.json file.
type report struct {
	GeneratedBy string      `json:"generated_by"`
	Fingerprint fingerprint `json:"fingerprint"`
	Benchmarks  []entry     `json:"benchmarks"`
}

// The optional MB/s column appears when a benchmark calls b.SetBytes
// (the durability benchmarks do); it must be skipped, not mistaken for
// the B/op column.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([\d.]+) ns/op(?:\s+[\d.]+ MB/s)?(?:\s+([\d.]+) B/op)?(?:\s+(\d+) allocs/op)?`)

func main() {
	out := flag.String("o", "", "output file (default stdout)")
	flag.Parse()

	var entries []entry
	sc := bufio.NewScanner(os.Stdin)
	for sc.Scan() {
		line := sc.Text()
		fmt.Fprintln(os.Stderr, line) // keep the raw output visible in logs
		m := benchLine.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil {
			continue
		}
		e := entry{Name: m[1]}
		e.NsPerOp, _ = strconv.ParseFloat(m[2], 64)
		if m[3] != "" {
			b, _ := strconv.ParseFloat(m[3], 64)
			e.BytesPerOp = int64(b)
		}
		if m[4] != "" {
			e.AllocsPerOp, _ = strconv.ParseInt(m[4], 10, 64)
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
		GeneratedBy: "make bench",
		Fingerprint: machineFingerprint(),
		Benchmarks:  entries,
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

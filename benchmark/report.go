package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
)

// fingerprint identifies the machine and build a result came from. Results
// are only comparable when everything but the commit agrees.
type fingerprint struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	Commit     string `json:"commit"`
	Dirty      bool   `json:"dirty"`
}

func machineFingerprint() fingerprint {
	fp := fingerprint{
		CPU: "unknown", NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
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
	// Outside a git checkout (the driver's copy) the commit stays unknown.
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		fp.Commit = strings.TrimSpace(string(out))
		st, err := exec.Command("git", "status", "--porcelain").Output()
		fp.Dirty = err != nil || len(st) > 0
	}
	return fp
}

// sameMachine reports whether two results may be compared.
func (f fingerprint) sameMachine(g fingerprint) bool {
	return f.CPU == g.CPU && f.NumCPU == g.NumCPU && f.GOMAXPROCS == g.GOMAXPROCS && f.GoVersion == g.GoVersion
}

// resultFile is what a run without -workload writes: every run, and per
// workload × metric the spread over the repeats.
type resultFile struct {
	Fingerprint fingerprint                  `json:"fingerprint"`
	Seed        int64                        `json:"seed"`
	Seconds     float64                      `json:"seconds"`
	Runs        []*runResult                 `json:"runs"`
	Summary     map[string]map[string]spread `json:"summary"` // workload → metric → spread
}

func newResultFile(cfg config, runs []*runResult) *resultFile {
	f := &resultFile{
		Fingerprint: machineFingerprint(), Seed: cfg.seed, Seconds: cfg.seconds.Seconds(),
		Runs: runs, Summary: make(map[string]map[string]spread),
	}
	values := make(map[string]map[string][]float64)
	for _, r := range runs {
		if values[r.Workload] == nil {
			values[r.Workload] = make(map[string][]float64)
		}
		for _, m := range []map[string]float64{r.E2E, r.Layers} {
			for name, v := range m {
				values[r.Workload][name] = append(values[r.Workload][name], v)
			}
		}
	}
	for w, ms := range values {
		f.Summary[w] = make(map[string]spread, len(ms))
		for name, xs := range ms {
			f.Summary[w][name] = summarise(xs)
		}
	}
	return f
}

func (f *resultFile) write(path string) error {
	data, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readResultFile(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// printResult prints one run: every metric by name with its unit.
func printResult(w io.Writer, r *runResult) {
	fmt.Fprintf(w, "\n== %s  seed %d  attempted %d  failed %d  fail_ratio %g\n",
		r.Workload, r.Seed, r.Attempted, r.Failed, float64(r.Failed)/float64(max(r.Attempted, 1)))
	for _, e := range r.Errors {
		fmt.Fprintf(w, "   FAILED: %s\n", e)
	}
	var samples []string
	for class, n := range r.Samples {
		samples = append(samples, fmt.Sprintf("%s n=%d (tail supported to p%g)", class, n, supportedPercentile(n)))
	}
	sort.Strings(samples)
	fmt.Fprintf(w, "   samples: %s\n", strings.Join(samples, "; "))
	for _, d := range endToEnd {
		fmt.Fprintf(w, "   %-34s %14.4f %s\n", d.Name, r.E2E[d.Name], d.Unit)
	}
	for _, d := range perLayer {
		if v, ok := r.Layers[d.Name]; ok {
			fmt.Fprintf(w, "   %-34s %14.4f %-6s [%s]\n", d.Name, v, d.Unit, d.Layer)
		}
	}
}

// boundText renders a bound for the tables.
func boundText(bound float64) string {
	if bound == 0 {
		return "-"
	}
	return fmt.Sprintf("%.0f%%", bound*100)
}

// eachMetric calls fn for every workload × declared metric, in table order.
func eachMetric(fn func(workload string, d metricDef)) {
	for _, wl := range workloads {
		for _, list := range [][]metricDef{endToEnd, perLayer} {
			for _, d := range list {
				fn(wl.Name, d)
			}
		}
	}
}

// printSpread prints, per workload × metric, the median, quartiles and
// relative spread over the repeats.
func printSpread(w io.Writer, f *resultFile) {
	fmt.Fprintf(w, "\n== spread over %d sets (IQR as a share of the median, as the driver computes it)\n", len(f.Runs)/len(f.Summary))
	fmt.Fprintf(w, "%-14s %-34s %12s %12s %12s %8s %7s\n", "workload", "metric", "median", "q1", "q3", "spread", "bound")
	eachMetric(func(workload string, d metricDef) {
		if sp, ok := f.Summary[workload][d.Name]; ok {
			fmt.Fprintf(w, "%-14s %-34s %12.4f %12.4f %12.4f %7.1f%% %7s\n",
				workload, d.Name, sp.Median, sp.Q1, sp.Q3, sp.Rel*100, boundText(d.bound(workload)))
		}
	})
}

// verdict compares a metric's baseline and candidate spreads against its
// bound on one workload. "worse" needs the median to have moved past the
// bound in the bad direction. A metric cannot be called unchanged, and is
// "unresolved", when its own run-to-run spread exceeds the bound or when a
// side has a single run and so no spread at all.
func verdict(better string, bound float64, a, b spread) (change float64, v string) {
	if a.Median == 0 {
		return 0, "unresolved"
	}
	change = (b.Median - a.Median) / a.Median
	worse := change
	if better == "higher" {
		worse = -change
	}
	switch {
	case bound == 0:
		return change, "info"
	case worse > bound:
		return change, "worse"
	case min(a.N, b.N) < 2 || max(a.Rel, b.Rel) > bound:
		return change, "unresolved"
	}
	return change, "ok"
}

// failures counts a file's failed operations per workload.
func (f *resultFile) failures() map[string]int {
	failed := make(map[string]int)
	for _, r := range f.Runs {
		failed[r.Workload] += r.Failed
	}
	return failed
}

// compareMain implements `benchmark compare a.json b.json`; a is the
// baseline. The exit code is 1 when any bounded metric is worse or either
// side had a failed operation (fail_ratio must be 0).
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark compare baseline.json candidate.json")
		return 2
	}
	a, err := readResultFile(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	b, err := readResultFile(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	return compare(os.Stdout, a, b)
}

func compare(w io.Writer, a, b *resultFile) int {
	if !a.Fingerprint.sameMachine(b.Fingerprint) {
		fmt.Fprintf(w, "refusing to compare results from different machines:\n  %+v\n  %+v\n", a.Fingerprint, b.Fingerprint)
		return 2
	}
	fmt.Fprintf(w, "baseline %s (dirty=%v)  candidate %s (dirty=%v)\n",
		a.Fingerprint.Commit, a.Fingerprint.Dirty, b.Fingerprint.Commit, b.Fingerprint.Dirty)
	fmt.Fprintf(w, "%-14s %-34s %12s %12s %8s %7s  %s\n", "workload", "metric", "baseline", "candidate", "change", "bound", "verdict")
	code := 0
	failedA, failedB := a.failures(), b.failures()
	for _, wl := range workloads {
		if fa, fb := failedA[wl.Name], failedB[wl.Name]; fa+fb > 0 {
			code = 1
			fmt.Fprintf(w, "%-14s %-34s %12d %12d %8s %7s  %s\n", wl.Name, "failed operations", fa, fb, "", "0", "worse")
		}
	}
	eachMetric(func(workload string, d metricDef) {
		sa, okA := a.Summary[workload][d.Name]
		sb, okB := b.Summary[workload][d.Name]
		if !okA || !okB {
			return
		}
		bound := d.bound(workload)
		change, v := verdict(d.Better, bound, sa, sb)
		if v == "worse" {
			code = 1
		}
		fmt.Fprintf(w, "%-14s %-34s %12.4f %12.4f %+7.1f%% %7s  %s\n",
			workload, d.Name, sa.Median, sb.Median, change*100, boundText(bound), v)
	})
	return code
}

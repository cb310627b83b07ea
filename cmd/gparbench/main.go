// Command gparbench regenerates the paper's tables and figures (Section 6)
// at laptop scale, from internal/bench's experiment table.
//
// Usage:
//
//	gparbench                 # run everything at the default scale
//	gparbench -quick          # tiny smoke-test scale
//	gparbench -exp 5a,5h      # selected figures
//	gparbench -exp case       # the Fig. 5(g) case study
//	gparbench -exp precision  # the Exp-2 precision table
//	gparbench -quick -csv FIGURES.csv  # also write the figures and precision table as CSV
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"gpar/internal/bench"
)

func main() {
	var (
		quick = flag.Bool("quick", false, "use the tiny smoke-test scale")
		exp   = flag.String("exp", "all", "comma-separated experiment ids (5a..5o, 5x, case, precision, all)")
		csv   = flag.String("csv", "", "also write the figures and precision table as CSV to this file, replacing it")
	)
	flag.Parse()
	sc := bench.DefaultScale()
	if *quick {
		sc = bench.QuickScale()
	}
	table := bench.Experiments(sc)
	want, err := parseExp(*exp, table)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gparbench: %v\n", err)
		os.Exit(2)
	}
	all := want["all"]

	var figs []bench.Figure
	for _, e := range table {
		if !all && !want[e.ID] {
			continue
		}
		fig, err := bench.Measure(e)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gparbench: figure %s: %v\n", e.ID, err)
			os.Exit(1)
		}
		fig.Format(os.Stdout)
		fmt.Println()
		figs = append(figs, fig)
	}
	if all || want["case"] || want["5g"] {
		bench.CaseStudy(os.Stdout, sc)
		fmt.Println()
	}
	var prec bench.PrecisionTable
	if all || want["precision"] {
		fmt.Println("=== Exp-2 precision table (conf vs PCAconf vs Iconf) ===")
		tops := []int{10, 30, 60}
		if *quick {
			tops = []int{5, 10}
		}
		prec = bench.Precision(sc, tops)
		prec.Format(os.Stdout)
	}
	if *csv != "" {
		f, err := os.Create(*csv)
		if err == nil {
			err = errors.Join(bench.WriteCSV(f, figs, prec), f.Close())
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "gparbench: %v\n", err)
			os.Exit(1)
		}
	}
}

// parseExp reads -exp's comma-separated ids into a set. An id that names
// no experiment is an error listing the valid ones.
func parseExp(spec string, table []bench.Experiment) (map[string]bool, error) {
	var valid []string
	for _, e := range table {
		valid = append(valid, e.ID)
	}
	valid = append(valid, "case", "5g", "precision", "all")
	want := map[string]bool{}
	for _, id := range strings.Split(spec, ",") {
		id = strings.TrimSpace(id)
		if !slices.Contains(valid, id) {
			return nil, fmt.Errorf("unknown experiment %q (valid: %s)", id, strings.Join(valid, ", "))
		}
		want[id] = true
	}
	return want, nil
}

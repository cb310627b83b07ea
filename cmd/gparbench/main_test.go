package main

import (
	"strings"
	"testing"

	"gpar/internal/bench"
)

func TestParseExp(t *testing.T) {
	table := bench.Experiments(bench.QuickScale())
	want, err := parseExp("5a, 5o,case,precision", table)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"5a", "5o", "case", "precision"} {
		if !want[id] {
			t.Errorf("%s not selected: %v", id, want)
		}
	}
	for _, spec := range []string{"5z", "5a,5z", ""} {
		_, err := parseExp(spec, table)
		if err == nil {
			t.Errorf("%q: accepted", spec)
			continue
		}
		for _, id := range []string{"5a", "5x", "5o", "case", "precision", "all"} {
			if !strings.Contains(err.Error(), id) {
				t.Errorf("%q: error %q does not name %s", spec, err, id)
			}
		}
	}
}

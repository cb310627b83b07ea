package main

import (
	"math"
	"sort"
)

// median returns the middle of xs (mean of the two middles for even n), 0
// for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// percentile is the nearest-rank p-th percentile (p in (0,100]) — an actual
// sample, which is what a latency percentile should be.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// percentileLadder is the set of tail percentiles the benchmark reports, in
// per mille so the rule below is exact integer arithmetic.
var percentileLadder = []int{500, 900, 950, 990, 999}

// supportedPercentile is the reporting rule of the choosing-metrics guide:
// the highest percentile of the ladder that still has at least ten samples
// beyond it. A p99 over 500 samples rests on five requests and is not
// reported; the ladder then stops at p95.
func supportedPercentile(n int) float64 {
	best := percentileLadder[0]
	for _, pm := range percentileLadder {
		if n*(1000-pm) >= 10*1000 {
			best = pm
		}
	}
	return float64(best) / 10
}

// spread summarises repeated measurements of one metric.
type spread struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	// Rel is the interquartile range as a share of the median — the same
	// number the driver computes with statistics.quantiles(values, n=4).
	Rel float64 `json:"rel"`
}

// exclusiveQuartiles reproduces Python's statistics.quantiles(xs, n=4)
// (the default "exclusive" method) so that the spread table in the README
// is the number the driver will see.
func exclusiveQuartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(i int) float64 { // i in 1..3
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := i*(n+1) - j*4
		return (s[j-1]*float64(4-d) + s[j]*float64(d)) / 4
	}
	return at(1), at(3)
}

func summarise(xs []float64) spread {
	sp := spread{N: len(xs)}
	if len(xs) == 0 {
		return sp
	}
	sp.Median = median(xs)
	sp.Q1, sp.Q3 = exclusiveQuartiles(xs)
	sp.Min, sp.Max = xs[0], xs[0]
	for _, x := range xs {
		sp.Min = math.Min(sp.Min, x)
		sp.Max = math.Max(sp.Max, x)
	}
	if sp.Median != 0 {
		sp.Rel = (sp.Q3 - sp.Q1) / math.Abs(sp.Median)
	}
	return sp
}

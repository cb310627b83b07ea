package main

import "time"

// probe is a fixed piece of work with the matcher's access pattern — short
// walks over a CSR graph with a label test at every step — over arrays of
// its own, filled from a constant. Nothing in it depends on the seed, the
// workload or the repository's code, so the time one lap takes says how fast
// this machine is running at that moment and nothing else.
//
// The benchmark's host is shared: unchanged code runs 1.3 to 2 times slower
// for seconds to minutes at a time (README, Noise), and every clock in the
// run — wall time, latencies, the daemon's CPU time — stretches with it. The
// caller therefore runs one lap after every step of a window, while the
// daemon is idle, and divides what it timed in the step by the lap's
// slowness: lap time over probeNominalMs, the lap time of the machine this
// was built on when nothing disturbs it. A reported time is thus the time
// the work would have taken at nominal machine speed. Over twelve runs of
// one seed that spanned a slow episode, the median identify-cold window took
// 164 to 246 ms as clocked (coefficient of variation 12 %) and 153 to 165 ms
// so corrected (2 %). The correction removes most of a slow episode, not
// all of it, and a disturbance that slows the probe but not the daemon makes
// a run read too fast; the README has the cases seen.
// bench.probe_lap_ms reports the median lap itself, so the correction can
// be undone.
type probe struct {
	off   []int32 // node → first edge
	adj   []int32 // edge → target
	label []uint8
	sink  int
}

const (
	probeNodes  = 1 << 14
	probeDegree = 12
	probeWalks  = 40000 // per lap: about four milliseconds

	// probeNominalMs is the lap time on an undisturbed 2.1 GHz Xeon guest.
	// It only fixes the scale of the corrected times; comparisons between
	// commits do not depend on it.
	probeNominalMs = 4.0
)

// xorshift is a generator whose stream cannot change with the Go release.
type xorshift uint64

func (x *xorshift) next() uint64 {
	*x ^= *x << 13
	*x ^= *x >> 7
	*x ^= *x << 17
	return uint64(*x)
}

func newProbe() *probe {
	p := &probe{off: make([]int32, probeNodes+1), adj: make([]int32, probeNodes*probeDegree), label: make([]uint8, probeNodes)}
	rng := xorshift(0x9E3779B97F4A7C15)
	for v := 0; v < probeNodes; v++ {
		p.off[v+1] = p.off[v] + probeDegree
		p.label[v] = uint8(rng.next() % 7)
		for e := p.off[v]; e < p.off[v+1]; e++ {
			p.adj[e] = int32(rng.next() % probeNodes)
		}
	}
	return p
}

// slowness runs n laps and returns their mean time over the nominal lap:
// 1 on an undisturbed machine, 1.4 in a bad minute.
func (p *probe) slowness(n int) float64 {
	var total time.Duration
	for i := 0; i < n; i++ {
		total += p.lap()
	}
	return float64(total.Nanoseconds()) / 1e6 / float64(n) / probeNominalMs
}

// lap runs the fixed work once and returns how long it took: from each of
// probeWalks start nodes, count the two-hop paths whose middle node carries
// label 2 and whose end node label 3.
func (p *probe) lap() time.Duration {
	start := time.Now()
	rng := xorshift(0x2545F4914F6CDD1D)
	found := 0
	for w := 0; w < probeWalks; w++ {
		u := int32(rng.next() % probeNodes)
		for e := p.off[u]; e < p.off[u+1]; e++ {
			v := p.adj[e]
			if p.label[v] != 2 {
				continue
			}
			for f := p.off[v]; f < p.off[v+1]; f++ {
				if p.label[p.adj[f]] == 3 {
					found++
				}
			}
		}
	}
	p.sink += found
	return time.Since(start)
}

package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from outside the layer: the
// benchmark wraps the layer's exported function, the layer itself is not
// instrumented. Times are nanoseconds since the tracer started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root
	Req    int    `json:"req"`    // spans of one request share it; 0 = none
	Name   string `json:"name"`   // "<layer>.<operation>"
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	// Work is how many units the call covered when one span times a loop
	// (candidates tested, ops applied); 0 means 1.
	Work int `json:"work,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so the same replay code runs traced and untraced.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name string, parent, req int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Req: req, Name: name, Start: now})
	id := len(t.spans)
	t.mu.Unlock()
	return id
}

// end closes span id, recording how many work units it covered.
func (t *tracer) end(id, work int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.spans[id-1].Work = work
	t.mu.Unlock()
}

// do times fn as one span.
func (t *tracer) do(name string, parent, req int, fn func()) {
	id := t.begin(name, parent, req)
	fn()
	t.end(id, 0)
}

// selfTimes returns, per span id, the span's duration minus the part of its
// interval that its child spans cover. Children may overlap each other
// (concurrent fan-out) and may stick out of the parent (clock skew between
// goroutines); overlap is counted once and the excess is clipped.
func selfTimes(spans []span) map[int]int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, upto := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, upto), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				upto = hi
			}
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}

// perUnit returns each named span's duration per work unit, in nanoseconds.
func perUnit(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.dur())/float64(max(s.Work, 1)))
		}
	}
	return out
}

// selfOf returns the self times of every span with the given name, in
// nanoseconds.
func selfOf(spans []span, name string) []float64 {
	self := selfTimes(spans)
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(self[s.ID]))
		}
	}
	return out
}

// write dumps the spans as JSON. Called once, when the run ends.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

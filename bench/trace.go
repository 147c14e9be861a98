package main

import (
	"sort"
	"time"
)

// span is one interval the traced run recorded around a call into a layer.
// Spans of one timed unit share Unit (0 is set-up); Parent indexes the
// enclosing span, -1 at the root.
type span struct {
	Unit   int    `json:"unit"`
	Name   string `json:"name"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps the traced run's spans and policy-hook counters in memory
// until the run ends. It is not safe for concurrent use: everything it
// instruments runs on the goroutine that runs the unit. (The sweep's worker
// goroutines are never instrumented; its hooks are timed in a sequential
// replay.) A nil tracer records nothing, so workload code calls it
// unconditionally.
type tracer struct {
	t0    time.Time
	unit  int
	spans []span
	open  []int
	hooks [numHooks]hookStat
	// clockNS is the median cost of one clock read. Timing a hook call
	// pays one, so it is taken off every timed call.
	clockNS int64
}

func newTracer() *tracer {
	t := &tracer{t0: time.Now()}
	d := make([]int64, 1001)
	for i := range d {
		a := t.now()
		d[i] = t.now() - a
	}
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	t.clockNS = d[len(d)/2]
	return t
}

// callNS is the duration of a call timed from start, net of the clock read.
func (t *tracer) callNS(start, end int64) int64 { return max(0, end-start-t.clockNS) }

// now is the monotonic time since the tracer started, in nanoseconds.
func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span under the innermost open one and returns its index.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Unit: t.unit, Name: name, Parent: parent, Start: t.now(), End: -1})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = t.now()
	t.open = t.open[:len(t.open)-1]
}

// spanTotal is the time recorded under one span name.
type spanTotal struct {
	Name  string  `json:"name"`
	Count int     `json:"count"`
	Total float64 `json:"total_s"`
	// Self is Total minus the time covered by child spans.
	Self float64 `json:"self_s"`
}

// totals sums the spans by name, sorted by name.
func totals(spans []span) []spanTotal {
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	byName := make(map[string]*spanTotal)
	for i, s := range spans {
		t := byName[s.Name]
		if t == nil {
			t = &spanTotal{Name: s.Name}
			byName[s.Name] = t
		}
		d := s.End - s.Start
		t.Count++
		t.Total += float64(d) / 1e9
		t.Self += float64(d-child[i]) / 1e9
	}
	out := make([]spanTotal, 0, len(byName))
	for _, t := range byName {
		out = append(out, *t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// spanSeconds is the summed duration of the spans named name.
func spanSeconds(spans []span, name string) float64 {
	var ns int64
	for _, s := range spans {
		if s.Name == name {
			ns += s.End - s.Start
		}
	}
	return float64(ns) / 1e9
}

package telemetry

import (
	"bufio"
	"fmt"
	"io"
)

// ChromeTracer renders the DES event stream as Chrome trace_event JSON
// (the JSON-array format), loadable in chrome://tracing and Perfetto.
//
// The mapping from simulator to trace model:
//
//   - ts is VIRTUAL time in microseconds — the trace timeline is the
//     simulation's clock, not the wall clock.
//   - Fired events are complete ("X") slices on tid 1 whose dur is the
//     handler's WALL-clock execution time in microseconds (floored at 1 so
//     slices stay visible), which makes hot handlers literally wider.
//   - Schedules are instant ("i") events on tid 2.
//   - Logical spans (request lifetimes) are complete ("X") slices on tid 4
//     whose dur is VIRTUAL elapsed time — a request's slice spans arrival
//     to completion on the simulation clock.
//
// Traces of large runs are bounded two ways: SampleEvery records only every
// Nth event of each kind, and MaxEvents hard-caps the file; both are
// reported in the trailing metadata so a truncated trace is self-describing.
//
// ChromeTracer implements the des.Tracer interface structurally (the
// signatures use only builtin types), so this package has no dependency on
// the engine. A nil *ChromeTracer is a valid no-op sink.
type ChromeTracer struct {
	w           *bufio.Writer
	sampleEvery uint64
	maxEvents   int

	written int
	dropped uint64
	seen    [3]uint64 // per-kind observation counts for sampling
	closed  bool
}

// Event-kind indexes into ChromeTracer.seen.
const (
	kindFired = iota
	kindScheduled
	kindSpan
)

// NewChromeTracer starts a trace on w. sampleEvery < 1 means record every
// event; maxEvents < 1 means the default cap of 1,000,000 records.
func NewChromeTracer(w io.Writer, sampleEvery, maxEvents int) *ChromeTracer {
	if sampleEvery < 1 {
		sampleEvery = 1
	}
	if maxEvents < 1 {
		maxEvents = 1_000_000
	}
	t := &ChromeTracer{
		w:           bufio.NewWriterSize(w, 64<<10),
		sampleEvery: uint64(sampleEvery),
		maxEvents:   maxEvents,
	}
	t.w.WriteString("[\n")
	t.meta(`{"name":"process_name","ph":"M","pid":1,"tid":0,"args":{"name":"arraysim (virtual time)"}}`)
	t.meta(`{"name":"thread_name","ph":"M","pid":1,"tid":1,"args":{"name":"fired"}}`)
	t.meta(`{"name":"thread_name","ph":"M","pid":1,"tid":2,"args":{"name":"scheduled"}}`)
	t.meta(`{"name":"thread_name","ph":"M","pid":1,"tid":4,"args":{"name":"spans"}}`)
	return t
}

func (t *ChromeTracer) meta(line string) {
	t.w.WriteString(line)
	t.w.WriteString(",\n")
}

// admit applies sampling and the size cap for one event of the given kind.
func (t *ChromeTracer) admit(kind int) bool {
	if t == nil || t.closed {
		return false
	}
	t.seen[kind]++
	if (t.seen[kind]-1)%t.sampleEvery != 0 {
		return false
	}
	if t.written >= t.maxEvents {
		t.dropped++
		return false
	}
	t.written++
	return true
}

func label(l string) string {
	if l == "" {
		return "event"
	}
	return l
}

// EventFired records one fired event: at is the virtual firing time in
// seconds, wallNanos the handler's wall-clock execution time.
func (t *ChromeTracer) EventFired(id uint64, l string, at float64, wallNanos int64) {
	if !t.admit(kindFired) {
		return
	}
	dur := float64(wallNanos) / 1e3
	if dur < 1 {
		dur = 1
	}
	fmt.Fprintf(t.w, `{"name":%q,"ph":"X","pid":1,"tid":1,"ts":%.3f,"dur":%.3f,"args":{"seq":%d}}`+",\n",
		label(l), at*1e6, dur, id)
}

// EventScheduled records that an event was scheduled at virtual time `now`
// to fire at virtual time `at`.
func (t *ChromeTracer) EventScheduled(id uint64, l string, at, now float64) {
	if !t.admit(kindScheduled) {
		return
	}
	fmt.Fprintf(t.w, `{"name":%q,"ph":"i","s":"t","pid":1,"tid":2,"ts":%.3f,"args":{"seq":%d,"fires_at_us":%.3f}}`+",\n",
		label(l), now*1e6, id, at*1e6)
}

// Span records a logical interval [start, end] in virtual seconds as a
// complete slice; dur is virtual elapsed time (floored at 1 µs so slices
// stay visible). It implements the des.SpanTracer extension structurally.
func (t *ChromeTracer) Span(l string, start, end float64) {
	if !t.admit(kindSpan) {
		return
	}
	dur := (end - start) * 1e6
	if dur < 1 {
		dur = 1
	}
	fmt.Fprintf(t.w, `{"name":%q,"ph":"X","pid":1,"tid":4,"ts":%.3f,"dur":%.3f}`+",\n",
		label(l), start*1e6, dur)
}

// Written returns the number of event records emitted so far.
func (t *ChromeTracer) Written() int {
	if t == nil {
		return 0
	}
	return t.written
}

// Close writes the trailing coverage metadata and the closing bracket and
// flushes. It does not close the underlying writer.
func (t *ChromeTracer) Close() error {
	if t == nil || t.closed {
		return nil
	}
	t.closed = true
	// Final metadata record: how much of the stream this trace covers.
	// No trailing comma — it is the last element of the JSON array.
	fmt.Fprintf(t.w,
		`{"name":"trace_coverage","ph":"M","pid":1,"tid":0,"args":{"fired_seen":%d,"scheduled_seen":%d,"spans_seen":%d,"records_written":%d,"dropped_at_cap":%d,"sample_every":%d}}`+"\n",
		t.seen[kindFired], t.seen[kindScheduled], t.seen[kindSpan], t.written, t.dropped, t.sampleEvery)
	t.w.WriteString("]\n")
	return t.w.Flush()
}

package telemetry

import (
	"bytes"
	"testing"
)

// parseTrace (shared with recorder_test.go) decodes the tracer's output,
// failing the test on invalid JSON.

func coverage(t *testing.T, events []map[string]any) map[string]any {
	t.Helper()
	last := events[len(events)-1]
	if last["name"] != "trace_coverage" {
		t.Fatalf("last record is %v, want trace_coverage", last["name"])
	}
	return last["args"].(map[string]any)
}

// The trace must stay valid JSON when the event cap truncates it, and the
// coverage trailer must account exactly for what was seen vs. written.
func TestChromeTracerValidJSONUnderCap(t *testing.T) {
	var buf bytes.Buffer
	tr := NewChromeTracer(&buf, 1, 3)
	for i := 0; i < 10; i++ {
		tr.EventFired(uint64(i), "ev", float64(i), 1500)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	events := parseTrace(t, buf.Bytes())
	cov := coverage(t, events)
	if cov["fired_seen"] != 10.0 || cov["records_written"] != 3.0 || cov["dropped_at_cap"] != 7.0 {
		t.Fatalf("coverage wrong: %v", cov)
	}
	if tr.Written() != 3 {
		t.Fatalf("Written() = %d, want 3", tr.Written())
	}
	// 4 metadata headers + 3 events + 1 coverage trailer.
	if len(events) != 8 {
		t.Fatalf("got %d records, want 8", len(events))
	}
}

// Sampling admits every Nth event of each kind independently.
func TestChromeTracerSampling(t *testing.T) {
	var buf bytes.Buffer
	tr := NewChromeTracer(&buf, 3, 0)
	for i := 0; i < 9; i++ {
		tr.EventFired(uint64(i), "f", float64(i), 100)
	}
	for i := 0; i < 4; i++ {
		tr.EventScheduled(uint64(i), "s", float64(i+1), float64(i))
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	events := parseTrace(t, buf.Bytes())
	cov := coverage(t, events)
	// fired: indices 0,3,6 → 3; scheduled: 0,3 → 2.
	if cov["records_written"] != 5.0 {
		t.Fatalf("sampled records = %v, want 5", cov["records_written"])
	}
	if cov["sample_every"] != 3.0 {
		t.Fatalf("sample_every = %v", cov["sample_every"])
	}
}

// An empty trace (no events at all) still closes to valid JSON with the
// headers and trailer.
func TestChromeTracerEmptyTrace(t *testing.T) {
	var buf bytes.Buffer
	tr := NewChromeTracer(&buf, 1, 0)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	events := parseTrace(t, buf.Bytes())
	cov := coverage(t, events)
	if cov["records_written"] != 0.0 || cov["dropped_at_cap"] != 0.0 {
		t.Fatalf("empty coverage wrong: %v", cov)
	}
}

// Event labels land as record names, with empty labels defaulting; virtual
// timestamps are microseconds.
func TestChromeTracerRecordShape(t *testing.T) {
	var buf bytes.Buffer
	tr := NewChromeTracer(&buf, 1, 0)
	tr.EventFired(7, "arrival", 1.5, 2500)
	tr.EventScheduled(8, "", 2.5, 1.5)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	events := parseTrace(t, buf.Bytes())
	var fired, sched map[string]any
	for _, e := range events {
		switch e["name"] {
		case "arrival":
			fired = e
		case "event":
			sched = e
		}
	}
	if fired == nil || fired["ph"] != "X" || fired["ts"] != 1.5e6 {
		t.Fatalf("fired record wrong: %v", fired)
	}
	if fired["dur"] != 2.5 { // 2500 ns → 2.5 µs
		t.Fatalf("fired dur = %v, want 2.5", fired["dur"])
	}
	if sched == nil || sched["ph"] != "i" {
		t.Fatalf("scheduled record with defaulted label wrong: %v", sched)
	}
}

// Close is idempotent and writing after Close is a silent no-op, so a
// truncated-then-closed trace cannot be corrupted by stragglers.
func TestChromeTracerCloseIdempotent(t *testing.T) {
	var buf bytes.Buffer
	tr := NewChromeTracer(&buf, 1, 0)
	tr.EventFired(1, "x", 1, 1)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	size := buf.Len()
	tr.EventFired(2, "y", 2, 1)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != size {
		t.Fatal("writes after Close changed the trace")
	}
	parseTrace(t, buf.Bytes())
}

// A nil tracer is a valid no-op sink.
func TestChromeTracerNilSafe(t *testing.T) {
	var tr *ChromeTracer
	tr.EventFired(1, "x", 1, 1)
	tr.EventScheduled(1, "x", 2, 1)
	if tr.Written() != 0 {
		t.Fatal("nil tracer wrote records")
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
}

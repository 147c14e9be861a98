// Package telemetry is the simulator's observability layer: per-disk
// time-series export (NDJSON and CSV), the array timeline, a Chrome
// trace_event writer for the DES event stream, the policy decision log, and
// the lock-free live views the ops plane and the -progress log line read. The run's totals are not
// counted here: they live in the simulation's Result, which arraysim
// writes to metrics.json.
//
// The package is built around one invariant: instrumentation must cost
// nothing when it is off. Every handle type (*Recorder, *ChromeTracer,
// *DecisionLog, *Live) treats the nil pointer as a fully valid no-op sink —
// a hot path calls its handles unconditionally and pays exactly one nil
// check and zero allocations per call when telemetry is disabled.
// Telemetry is also observationally pure: it only reads simulation state
// through snapshot accessors and never schedules events, so enabling it
// cannot change simulation results.
package telemetry

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/atomicio"
)

// Config parameterizes a file-backed Recorder.
type Config struct {
	// Dir is the output directory (created if missing). The recorder
	// writes disks.ndjson, disks.csv, and — with TraceEvents — trace.json
	// into it.
	Dir string
	// TraceEvents enables the Chrome trace_event DES trace.
	TraceEvents bool
	// TraceSampleEvery records every Nth DES event of each kind in the
	// Chrome trace; values < 1 mean every event.
	TraceSampleEvery int
	// TraceMaxEvents hard-caps the Chrome trace record count; values < 1
	// mean the default of 1,000,000.
	TraceMaxEvents int
	// TraceDecisions enables the policy decision log (decisions.ndjson).
	TraceDecisions bool
}

// Recorder bundles the telemetry sinks one simulation writes to: the
// per-disk time series, the in-memory timeline, an optional DES event
// tracer, an optional decision log, and an optional live view. A nil
// *Recorder disables everything; the zero value is a valid in-memory-only
// recorder that keeps the timeline (set Decisions/Live as needed).
type Recorder struct {
	// Decisions, when non-nil, receives one record per policy decision;
	// Close writes it to decisions.ndjson when the recorder has a
	// directory.
	Decisions *DecisionLog
	// Live, when non-nil, receives the lock-free snapshot the simulation
	// (or a fleet's router) publishes for /metrics, /progress and the
	// -progress log line. Nil (the default) keeps the hot path at one nil
	// check and zero allocations.
	Live *Live

	series   *SeriesWriter
	timeline []Sample
	tracer   *ChromeTracer
	files    []*atomicio.File
	dir      string
}

// Open creates cfg.Dir and returns a Recorder writing into it.
func Open(cfg Config) (*Recorder, error) {
	if cfg.Dir == "" {
		return nil, errors.New("telemetry: empty output directory")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("telemetry: %w", err)
	}
	r := &Recorder{dir: cfg.Dir}
	// Artifacts stream into atomic temp files and only appear under their
	// final names when Close commits them, so a run killed mid-flight never
	// leaves a truncated disks.ndjson / disks.csv / trace.json behind.
	open := func(name string) (*atomicio.File, error) {
		f, err := atomicio.Create(filepath.Join(cfg.Dir, name))
		if err != nil {
			r.closeFiles()
			return nil, fmt.Errorf("telemetry: %w", err)
		}
		r.files = append(r.files, f)
		return f, nil
	}
	nd, err := open("disks.ndjson")
	if err != nil {
		return nil, err
	}
	csvf, err := open("disks.csv")
	if err != nil {
		return nil, err
	}
	r.series = NewSeriesWriter(nd, csvf)
	if cfg.TraceEvents {
		tf, err := open("trace.json")
		if err != nil {
			return nil, err
		}
		r.tracer = NewChromeTracer(tf, cfg.TraceSampleEvery, cfg.TraceMaxEvents)
	}
	if cfg.TraceDecisions {
		r.Decisions = NewDecisionLog()
	}
	return r, nil
}

// Dir returns the output directory ("" for an in-memory recorder).
func (r *Recorder) Dir() string {
	if r == nil {
		return ""
	}
	return r.dir
}

// Tracer returns the Chrome tracer, or nil when event tracing is off.
func (r *Recorder) Tracer() *ChromeTracer {
	if r == nil {
		return nil
	}
	return r.tracer
}

// RecordDiskSample appends one per-disk time-series sample.
func (r *Recorder) RecordDiskSample(s DiskSample) error {
	if r == nil {
		return nil
	}
	return r.series.Write(s)
}

// RecordTimeline appends one timeline row.
func (r *Recorder) RecordTimeline(s Sample) {
	if r == nil {
		return
	}
	r.timeline = append(r.timeline, s)
}

// Timeline returns the timeline rows recorded so far (nil on nil).
func (r *Recorder) Timeline() []Sample {
	if r == nil {
		return nil
	}
	return r.timeline
}

func (r *Recorder) closeFiles() error {
	var first error
	for _, f := range r.files {
		if err := f.Close(); err != nil && first == nil {
			first = err
		}
	}
	r.files = nil
	return first
}

// Close flushes the series, finalizes the Chrome trace, writes the decision
// log, and closes all files. It is safe on nil.
func (r *Recorder) Close() error {
	if r == nil {
		return nil
	}
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	keep(r.series.Flush())
	keep(r.tracer.Close())
	if r.dir != "" && r.Decisions != nil {
		f, err := atomicio.Create(filepath.Join(r.dir, "decisions.ndjson"))
		if err != nil {
			keep(err)
		} else {
			keep(r.Decisions.WriteNDJSON(f))
			keep(f.Close())
		}
	}
	keep(r.closeFiles())
	return first
}

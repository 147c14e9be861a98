// Package telemetry is a miniature stand-in for repro/internal/telemetry
// for the engineaffinity fixtures: affine handles plus mediated views.
package telemetry

// Recorder bundles a run's sinks; goroutine-affine.
type Recorder struct{ n int }

// RecordDiskSample appends one sample.
func (r *Recorder) RecordDiskSample(v int) {
	if r != nil {
		r.n++
	}
}

// DecisionLog is the affine decision recorder.
type DecisionLog struct{ n int }

// Append records one decision.
func (l *DecisionLog) Append(v int) {
	if l != nil {
		l.n++
	}
}

// Live is the seqlock-published view; safe cross-goroutine.
type Live struct{ v uint64 }

// Snapshot returns a coherent view.
func (l *Live) Snapshot() uint64 { return l.v }

// SweepTracker tracks cells under a mutex; safe cross-goroutine.
type SweepTracker struct{ n int }

// CellDone marks one cell finished.
func (t *SweepTracker) CellDone(key string) {
	if t != nil {
		t.n++
	}
}

// Logger is mutex-serialized; safe cross-goroutine.
type Logger struct{ n int }

// Infof logs at the default level.
func (l *Logger) Infof(format string, args ...any) {
	if l != nil {
		l.n++
	}
}

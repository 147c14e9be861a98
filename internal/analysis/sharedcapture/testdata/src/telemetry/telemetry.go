// Package telemetry is a miniature stand-in for repro/internal/telemetry:
// the goroutine-affine handles plus the mediated cross-goroutine types the
// sharedcapture allowlist recognizes.
package telemetry

// Recorder bundles a cell's observation sinks; goroutine-affine.
type Recorder struct{ n int }

// Close flushes the sinks.
func (r *Recorder) Close() error { return nil }

// DecisionLog records policy decisions; goroutine-affine.
type DecisionLog struct{ n int }

// Live is the seqlock-published live view; safe to share.
type Live struct{ v uint64 }

// Tick publishes one observation.
func (l *Live) Tick(v uint64) { l.v = v }

// SweepTracker tracks cell states under a mutex; safe to share.
type SweepTracker struct{ n int }

// CellDone marks a cell finished.
func (t *SweepTracker) CellDone(key string) {
	if t != nil {
		t.n++
	}
}

// Logger is the mutex-serialized leveled logger; safe to share.
type Logger struct{ n int }

// Infof logs at the default level.
func (l *Logger) Infof(format string, args ...any) {
	if l != nil {
		l.n++
	}
}

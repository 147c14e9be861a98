package des

import (
	"fmt"
	"math"
	"sync/atomic"
)

// StallError is the structured diagnostic RunGuarded returns when the
// watchdog trips: stallLimit consecutive events fired without the virtual
// clock advancing. It carries enough state to identify the spinning chain —
// the label of the last fired event is the chain id for every event class
// the simulator schedules — so an ops plane (/healthz) and sweep-cell
// failure markers can report *what* wedged, not just that something did.
type StallError struct {
	// Streak is the number of consecutive same-instant events fired when
	// the watchdog tripped.
	Streak uint64
	// SimTime is the virtual time (seconds) the loop is pinned at.
	SimTime float64
	// Fired is the total number of events executed by the engine.
	Fired uint64
	// Pending is the number of scheduled, not-yet-fired events.
	Pending int
	// LastLabel is the tracer label of the last fired event — the event
	// chain spinning at the stall instant ("" for unlabeled events).
	LastLabel string
}

// Error keeps the historical "event loop stalled" phrasing so existing
// callers matching on the message keep working.
func (e *StallError) Error() string {
	return fmt.Sprintf(
		"des: watchdog: event loop stalled — %d consecutive events at t=%v without progress (last event %q, total fired %d, pending %d)",
		e.Streak, e.SimTime, e.LastLabel, e.Fired, e.Pending)
}

// Watch is a lock-free live view of a running engine for observers on other
// goroutines (the ops server's /metrics and /healthz handlers). The engine
// is single-threaded by design, so the Watch has exactly one writer — the
// simulation goroutine inside RunGuarded — and any number of readers.
//
// Consistency is a seqlock: the writer bumps seq to odd, stores the fields
// (each individually atomic, so the race detector sees only synchronized
// access), and bumps seq to even; readers retry until they observe the same
// even seq on both sides of the field loads. Snapshot therefore returns a
// cross-field-consistent view without the writer ever taking a lock.
//
// A nil *Watch is a valid no-op sink, matching the telemetry handle idiom:
// an engine with no watch installed pays one nil check per event and zero
// allocations. The Watch itself never reads the wall clock — staleness
// detection against real time belongs to the observer, keeping this package
// inside the detrand determinism contract.
type Watch struct {
	seq     atomic.Uint64
	simTime atomic.Uint64 // math.Float64bits
	fired   atomic.Uint64
	pending atomic.Uint64
	sched   atomic.Uint64
	streak  atomic.Uint64
	limit   atomic.Uint64
	label   atomic.Pointer[string]
	stall   atomic.Pointer[StallError]
	done    atomic.Bool

	// interned maps event labels to stable pointers so the per-event
	// publish settles to zero allocations: labels are a small fixed set of
	// compile-time constants. Writer-local; never iterated.
	interned map[string]*string
}

// WatchSnapshot is one consistent reading of a Watch.
type WatchSnapshot struct {
	SimTime float64
	Fired   uint64
	Pending uint64
	// Scheduled is the number of events ever scheduled (Engine.Seq). Every
	// scheduled event fires or stays pending, so Scheduled == Fired +
	// Pending: the engine's conservation ledger.
	Scheduled  uint64
	Streak     uint64
	StallLimit uint64
	LastLabel  string
	Done       bool
	Stall      *StallError
}

// NewWatch returns an empty watch ready to be installed via SetWatch.
func NewWatch() *Watch {
	return &Watch{interned: make(map[string]*string)}
}

// publish records the engine's position after one fired event. Called only
// from the engine goroutine.
func (w *Watch) publish(simTime float64, fired, pending, scheduled, streak uint64, label string) {
	if w == nil {
		return
	}
	lp, ok := w.interned[label]
	if !ok {
		s := label
		lp = &s
		w.interned[label] = lp
	}
	w.seq.Add(1) // odd: snapshot in progress
	w.simTime.Store(math.Float64bits(simTime))
	w.fired.Store(fired)
	w.pending.Store(pending)
	w.sched.Store(scheduled)
	w.streak.Store(streak)
	w.label.Store(lp)
	w.seq.Add(1) // even: snapshot consistent
}

// setLimit records the active watchdog stall limit so observers can report
// streak pressure as a fraction of the trip point.
func (w *Watch) setLimit(limit uint64) {
	if w == nil {
		return
	}
	w.limit.Store(limit)
}

// setStall records the watchdog diagnostic when the loop trips.
func (w *Watch) setStall(err *StallError) {
	if w == nil {
		return
	}
	w.stall.Store(err)
}

// MarkDone flags the watched run as finished, so observers distinguish "no
// events advancing because the run completed" from a hang.
func (w *Watch) MarkDone() {
	if w == nil {
		return
	}
	w.done.Store(true)
}

// Snapshot returns a consistent view of the watch. Safe to call from any
// goroutine; a nil watch yields the zero snapshot.
func (w *Watch) Snapshot() WatchSnapshot {
	if w == nil {
		return WatchSnapshot{}
	}
	var snap WatchSnapshot
	for {
		s1 := w.seq.Load()
		if s1%2 != 0 {
			continue // writer mid-publish; retry
		}
		snap.SimTime = math.Float64frombits(w.simTime.Load())
		snap.Fired = w.fired.Load()
		snap.Pending = w.pending.Load()
		snap.Scheduled = w.sched.Load()
		snap.Streak = w.streak.Load()
		if w.seq.Load() == s1 {
			break
		}
	}
	snap.StallLimit = w.limit.Load()
	if lp := w.label.Load(); lp != nil {
		snap.LastLabel = *lp
	}
	snap.Done = w.done.Load()
	snap.Stall = w.stall.Load()
	return snap
}

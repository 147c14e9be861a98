package des

import (
	"errors"
	"strings"
	"sync"
	"testing"
)

// TestWatchPublishesEnginePosition runs a guarded engine with a watch
// attached and checks the final snapshot matches the engine's own counters.
func TestWatchPublishesEnginePosition(t *testing.T) {
	e, o := New(), &fnOwner{}
	w := NewWatch()
	e.SetWatch(w)
	for i := 0; i < 5; i++ {
		o.at(e, float64(i), "tick", nop)
	}
	if err := e.RunGuarded(100); err != nil {
		t.Fatal(err)
	}
	snap := w.Snapshot()
	if snap.Fired != e.Fired() {
		t.Fatalf("snapshot fired %d, engine fired %d", snap.Fired, e.Fired())
	}
	if snap.Scheduled != e.Seq() || snap.Scheduled != snap.Fired+snap.Pending {
		t.Fatalf("snapshot scheduled %d, engine seq %d, fired+pending %d",
			snap.Scheduled, e.Seq(), snap.Fired+snap.Pending)
	}
	if snap.SimTime != e.Now() {
		t.Fatalf("snapshot sim time %v, engine now %v", snap.SimTime, e.Now())
	}
	if snap.LastLabel != "tick" {
		t.Fatalf("snapshot last label %q, want %q", snap.LastLabel, "tick")
	}
	if snap.StallLimit != 100 {
		t.Fatalf("snapshot stall limit %d, want 100", snap.StallLimit)
	}
	if snap.Stall != nil {
		t.Fatalf("unexpected stall record %+v", snap.Stall)
	}
	w.MarkDone()
	if !w.Snapshot().Done {
		t.Fatal("MarkDone not visible in snapshot")
	}
}

// TestWatchStallRecordsStructuredError checks the watchdog surfaces a
// *StallError (extractable with errors.As) and mirrors it into the watch.
func TestWatchStallRecordsStructuredError(t *testing.T) {
	e, o := New(), &fnOwner{}
	w := NewWatch()
	e.SetWatch(w)
	var loop func(*Engine)
	loop = func(e *Engine) { o.after(e, 0, "spin", loop) }
	o.after(e, 0, "spin", loop)
	err := e.RunGuarded(25)
	if err == nil {
		t.Fatal("expected a stall error")
	}
	var serr *StallError
	if !errors.As(err, &serr) {
		t.Fatalf("error %T is not a *StallError", err)
	}
	if serr.Streak != 25 || serr.LastLabel != "spin" {
		t.Fatalf("stall record %+v, want streak 25 label spin", serr)
	}
	if serr.Fired != e.Fired() || serr.SimTime != e.Now() {
		t.Fatalf("stall record %+v does not match engine fired=%d now=%v",
			serr, e.Fired(), e.Now())
	}
	if got := w.Snapshot().Stall; got != serr {
		t.Fatalf("watch stall %+v, want the returned error %+v", got, serr)
	}
}

// TestWatchSnapshotConsistentUnderConcurrentReads hammers Snapshot from
// several goroutines while the engine runs: every observed snapshot must be
// internally consistent (fired never decreases, sim time never decreases),
// which is what the seqlock guarantees. Run under -race this also proves the
// single-writer/many-reader protocol is data-race-free.
func TestWatchSnapshotConsistentUnderConcurrentReads(t *testing.T) {
	e, o := New(), &fnOwner{}
	w := NewWatch()
	e.SetWatch(w)
	const n = 20000
	for i := 0; i < n; i++ {
		o.at(e, float64(i)*1e-3, "tick", nop)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lastFired uint64
			var lastTime float64
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := w.Snapshot()
				if s.Fired < lastFired {
					t.Errorf("fired went backwards: %d -> %d", lastFired, s.Fired)
					return
				}
				if s.SimTime < lastTime {
					t.Errorf("sim time went backwards: %v -> %v", lastTime, s.SimTime)
					return
				}
				lastFired, lastTime = s.Fired, s.SimTime
			}
		}()
	}
	if err := e.RunGuarded(1000); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	if s := w.Snapshot(); s.Fired != n {
		t.Fatalf("final snapshot fired %d, want %d", s.Fired, n)
	}
}

// TestWatchNilSafe exercises every Watch method on a nil receiver: like all
// telemetry handles, a nil watch is a valid no-op sink.
func TestWatchNilSafe(t *testing.T) {
	var w *Watch
	w.publish(1, 2, 3, 5, 4, "x")
	w.setLimit(10)
	w.setStall(&StallError{})
	w.MarkDone()
	if s := w.Snapshot(); s != (WatchSnapshot{}) {
		t.Fatalf("nil watch snapshot %+v, want zero", s)
	}
	e, o := New(), &fnOwner{}
	e.SetWatch(nil)
	o.at(e, 0, "", nop)
	if err := e.RunGuarded(10); err != nil {
		t.Fatal(err)
	}
}

// TestStallErrorFormatAndFields pins the watchdog error's message shape and
// field round-trip: ops surfaces (/healthz, sweep-cell failure markers)
// report these fields verbatim, and existing callers match on the
// "event loop stalled" phrasing.
func TestStallErrorFormatAndFields(t *testing.T) {
	e := &StallError{
		Streak:    1000,
		SimTime:   86400.5,
		Fired:     123456,
		Pending:   7,
		LastLabel: "rebuild-step",
	}
	msg := e.Error()
	for _, want := range []string{
		"event loop stalled",
		"1000 consecutive events",
		"t=86400.5",
		`last event "rebuild-step"`,
		"total fired 123456",
		"pending 7",
	} {
		if !strings.Contains(msg, want) {
			t.Fatalf("StallError message %q missing %q", msg, want)
		}
	}
	// An unlabeled stall renders the empty label explicitly rather than
	// dropping the clause.
	if msg := (&StallError{}).Error(); !strings.Contains(msg, `last event ""`) {
		t.Fatalf("zero StallError message %q does not render the empty label", msg)
	}
}

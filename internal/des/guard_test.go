package des

import (
	"strings"
	"testing"
)

// TestRunGuardedEdgeCases covers the watchdog's boundary behaviour: an empty
// queue, a zero (already-expired) stall limit, a same-instant burst exactly
// at the limit, and the watchdog firing on the very last pending event.
func TestRunGuardedEdgeCases(t *testing.T) {
	cases := []struct {
		name       string
		setup      func(e *Engine)
		stallLimit uint64
		wantErr    string // "" means nil error
		wantFired  uint64
	}{
		{
			name:       "zero pending events drains immediately",
			setup:      func(e *Engine) {},
			stallLimit: 10,
			wantErr:    "",
			wantFired:  0,
		},
		{
			name: "zero stall limit is an already-expired deadline",
			setup: func(e *Engine) {
				e.MustSchedule(1, func(*Engine) {})
			},
			stallLimit: 0,
			wantErr:    "stall limit must be positive",
			wantFired:  0,
		},
		{
			name: "burst below the limit is fine",
			setup: func(e *Engine) {
				for i := 0; i < 4; i++ {
					e.MustSchedule(0, func(*Engine) {})
				}
				e.MustSchedule(1, func(*Engine) {})
			},
			stallLimit: 5,
			wantErr:    "",
			wantFired:  5,
		},
		{
			name: "watchdog fires during the final event",
			// Three same-instant events and nothing after them: the stall
			// limit is reached exactly when the last pending event fires, so
			// the watchdog must still report the stall rather than letting
			// the drained queue mask it.
			setup: func(e *Engine) {
				for i := 0; i < 3; i++ {
					e.MustSchedule(0, func(*Engine) {})
				}
			},
			stallLimit: 3,
			wantErr:    "event loop stalled",
			wantFired:  3,
		},
		{
			name: "self-rescheduling handler trips the watchdog",
			setup: func(e *Engine) {
				var loop Handler
				loop = func(e *Engine) { e.MustSchedule(0, loop) }
				e.MustSchedule(0, loop)
			},
			stallLimit: 50,
			wantErr:    "event loop stalled",
			wantFired:  50,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := New()
			tc.setup(e)
			err := e.RunGuarded(tc.stallLimit)
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatalf("RunGuarded: %v", err)
			case tc.wantErr != "" && err == nil:
				t.Fatalf("RunGuarded: want error containing %q, got nil", tc.wantErr)
			case tc.wantErr != "" && !strings.Contains(err.Error(), tc.wantErr):
				t.Fatalf("RunGuarded: error %v does not contain %q", err, tc.wantErr)
			}
			if e.Fired() != tc.wantFired {
				t.Fatalf("fired %d events, want %d", e.Fired(), tc.wantFired)
			}
		})
	}
}

// TestRestorePreservesOrdering checkpoints a running engine's pending set by
// hand and verifies a restored engine fires the remaining events in the
// identical order, including same-instant FIFO ties with newly scheduled
// events.
func TestRestorePreservesOrdering(t *testing.T) {
	var origOrder []string
	record := func(log *[]string, name string) Handler {
		return func(*Engine) { *log = append(*log, name) }
	}

	build := func(log *[]string) *Engine {
		e := New()
		e.MustSchedule(1, record(log, "a"))
		e.MustSchedule(2, record(log, "b1"))
		e.MustSchedule(2, record(log, "b2"))
		e.MustSchedule(3, record(log, "c"))
		return e
	}

	orig := build(&origOrder)
	if !orig.Step() { // fire "a"; b1,b2,c remain pending
		t.Fatal("no event fired")
	}

	// Snapshot: pending events in scheduling order with their absolute times.
	type saved struct {
		t    float64
		name string
	}
	names := map[uint64]string{2: "b1", 3: "b2", 4: "c"}
	var snap []saved
	for _, pe := range orig.PendingEvents() {
		snap = append(snap, saved{pe.Time, names[pe.Seq]})
	}
	savedNow, savedSeq, savedFired := orig.Now(), orig.Seq(), orig.Fired()

	// Restore into a fresh engine.
	var restoredOrder []string
	re := New()
	if err := re.BeginRestore(savedNow); err != nil {
		t.Fatal(err)
	}
	for _, s := range snap {
		if err := re.At(s.t, record(&restoredOrder, s.name)); err != nil {
			t.Fatal(err)
		}
	}
	if err := re.FinishRestore(savedSeq, savedFired); err != nil {
		t.Fatal(err)
	}
	if re.Now() != savedNow || re.Seq() != savedSeq || re.Fired() != savedFired {
		t.Fatalf("restored counters now=%v seq=%d fired=%d, want %v/%d/%d",
			re.Now(), re.Seq(), re.Fired(), savedNow, savedSeq, savedFired)
	}

	// Schedule one more same-instant event on both engines: it must sort
	// after the restored t=2 pair in both.
	orig.MustSchedule(1, record(&origOrder, "late"))
	re.MustSchedule(1, record(&restoredOrder, "late"))

	orig.Run()
	re.Run()

	if strings.Join(origOrder[1:], ",") != strings.Join(restoredOrder, ",") {
		t.Fatalf("orders diverge: original %v, restored %v", origOrder[1:], restoredOrder)
	}
	if orig.Fired() != re.Fired() {
		t.Fatalf("fired counts diverge: %d vs %d", orig.Fired(), re.Fired())
	}
}

func TestBeginRestoreRequiresFreshEngine(t *testing.T) {
	e := New()
	e.MustSchedule(1, func(*Engine) {})
	if err := e.BeginRestore(5); err == nil {
		t.Fatal("BeginRestore on a used engine should fail")
	}
	fresh := New()
	if err := fresh.BeginRestore(5); err != nil {
		t.Fatal(err)
	}
	fresh.MustSchedule(0, func(*Engine) {})
	if err := fresh.FinishRestore(0, 0); err == nil {
		t.Fatal("FinishRestore with a too-small seq should fail")
	}
}

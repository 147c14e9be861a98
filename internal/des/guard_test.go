package des

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
)

// TestRunGuardedEdgeCases covers the watchdog's boundary behaviour: an empty
// queue, a zero (already-expired) stall limit, a same-instant burst exactly
// at the limit, and the watchdog firing on the very last pending event.
func TestRunGuardedEdgeCases(t *testing.T) {
	cases := []struct {
		name       string
		setup      func(e *Engine, o *fnOwner)
		stallLimit uint64
		wantErr    string // "" means nil error
		wantFired  uint64
	}{
		{
			name:       "zero pending events drains immediately",
			setup:      func(*Engine, *fnOwner) {},
			stallLimit: 10,
			wantErr:    "",
			wantFired:  0,
		},
		{
			name: "zero stall limit is an already-expired deadline",
			setup: func(e *Engine, o *fnOwner) {
				o.after(e, 1, "", nop)
			},
			stallLimit: 0,
			wantErr:    "stall limit must be positive",
			wantFired:  0,
		},
		{
			name: "burst below the limit is fine",
			setup: func(e *Engine, o *fnOwner) {
				for i := 0; i < 4; i++ {
					o.after(e, 0, "", nop)
				}
				o.after(e, 1, "", nop)
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
			setup: func(e *Engine, o *fnOwner) {
				for i := 0; i < 3; i++ {
					o.after(e, 0, "", nop)
				}
			},
			stallLimit: 3,
			wantErr:    "event loop stalled",
			wantFired:  3,
		},
		{
			name: "self-rescheduling handler trips the watchdog",
			setup: func(e *Engine, o *fnOwner) {
				var loop func(*Engine)
				loop = func(e *Engine) { o.after(e, 0, "", loop) }
				o.after(e, 0, "", loop)
			},
			stallLimit: 50,
			wantErr:    "event loop stalled",
			wantFired:  50,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := New()
			tc.setup(e, &fnOwner{})
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

// TestRestorePreservesOrdering checkpoints a running engine's pending set
// by hand and restores it, given out of sequence order, into a fresh
// engine: the restored engine reports the same pending events and fires
// them in the identical order, including same-instant FIFO ties with newly
// posted events. Each event's label names it, so the restore takes exactly
// what PendingEvents gave.
func TestRestorePreservesOrdering(t *testing.T) {
	var origLog, restoredLog []string
	record := func(log *[]string, name string) func(*Engine) {
		return func(*Engine) { *log = append(*log, name) }
	}
	orig, o := New(), &fnOwner{}
	for _, ev := range []struct {
		at   float64
		name string
	}{{1, "a"}, {2, "b1"}, {2, "b2"}, {3, "c"}} {
		o.at(orig, ev.at, ev.name, record(&origLog, ev.name))
	}
	if !orig.Step() { // fire "a"; b1,b2,c remain pending
		t.Fatal("no event fired")
	}

	// Snapshot and restore, each payload in the new owner's slab.
	pend := orig.PendingEvents()
	re, ro := New(), &fnOwner{}
	var evs []PendingEvent
	for _, pe := range pend {
		pe.Owner, pe.Slot = ro, ro.fns.Put(record(&restoredLog, pe.Label))
		evs = append([]PendingEvent{pe}, evs...) // reversed: out of seq order
	}
	if err := re.Restore(orig.Now(), orig.Seq(), orig.Fired(), evs); err != nil {
		t.Fatal(err)
	}
	if re.Now() != orig.Now() || re.Seq() != orig.Seq() || re.Fired() != orig.Fired() {
		t.Fatalf("restored counters now=%v seq=%d fired=%d, want %v/%d/%d",
			re.Now(), re.Seq(), re.Fired(), orig.Now(), orig.Seq(), orig.Fired())
	}
	labels := func(pes []PendingEvent) (out []string) {
		for _, pe := range pes {
			out = append(out, fmt.Sprint(pe.Time, pe.Label))
		}
		return out
	}
	if got, want := labels(re.PendingEvents()), labels(pend); !slices.Equal(got, want) {
		t.Fatalf("restored pending events %v, want %v", got, want)
	}

	// Post one more same-instant event on both engines: it must sort after
	// the restored t=2 pair in both.
	o.after(orig, 1, "late", record(&origLog, "late"))
	ro.after(re, 1, "late", record(&restoredLog, "late"))
	drain(orig)
	drain(re)

	if strings.Join(origLog[1:], ",") != strings.Join(restoredLog, ",") {
		t.Fatalf("orders diverge: original %v, restored %v", origLog[1:], restoredLog)
	}
	if orig.Fired() != re.Fired() {
		t.Fatalf("fired counts diverge: %d vs %d", orig.Fired(), re.Fired())
	}
}

// TestRestoreRejectsBadPositions: Restore loads only a fresh engine, at a
// valid time, with events no earlier than that time, distinct saved seqs,
// and a seq that covers the events it posts and every saved seq.
func TestRestoreRejectsBadPositions(t *testing.T) {
	o := &fnOwner{}
	ev := func(seq uint64, at float64) PendingEvent {
		return PendingEvent{Seq: seq, Time: at, Owner: o, Slot: o.fns.Put(nop)}
	}
	used := New()
	o.after(used, 1, "", nop)
	cases := []struct {
		name   string
		e      *Engine
		now    float64
		seq    uint64
		events []PendingEvent
		want   string
	}{
		{"used engine", used, 5, 3, []PendingEvent{ev(3, 6)}, "fresh engine"},
		{"seq below the posted count", New(), 5, 1, []PendingEvent{ev(1, 6), ev(2, 7)}, "seq 2 past seq 1"},
		{"NaN clock", New(), math.NaN(), 1, []PendingEvent{ev(1, 6)}, "time NaN invalid"},
		{"event before the clock", New(), 5, 1, []PendingEvent{ev(1, 4)}, "before now 5"},
		{"saved seq repeated", New(), 5, 5, []PendingEvent{ev(3, 6), ev(3, 7)}, "seq 3 not after seq 3"},
		{"saved seq past seq", New(), 5, 5, []PendingEvent{ev(1, 6), ev(7, 7)}, "seq 7 past seq 5"},
	}
	for _, tc := range cases {
		if err := tc.e.Restore(tc.now, tc.seq, 0, tc.events); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: want error containing %q, got %v", tc.name, tc.want, err)
		}
	}
	if err := New().Restore(5, 9, 7, []PendingEvent{ev(8, 6), ev(9, 5)}); err != nil {
		t.Fatalf("valid position rejected: %v", err)
	}
}

// TestCheckLedger: a saved position is restorable only when each owner's
// pending seqs ascend, all are distinct and none past seq, and seq ==
// fired + pending.
func TestCheckLedger(t *testing.T) {
	cases := []struct {
		name       string
		seq, fired uint64
		owners     [][]uint64
		want       string // "" means accepted
	}{
		{"consistent", 10, 7, [][]uint64{{4, 9}, {10}}, ""},
		{"nothing pending", 7, 7, nil, ""},
		{"fired inflated", 10, 107, [][]uint64{{4, 9}, {10}}, "seq 10 != fired 107 + 3 pending"},
		{"fired short", 10, 6, [][]uint64{{4, 9}, {10}}, "seq 10 != fired 6 + 3 pending"},
		{"seqs swapped", 10, 7, [][]uint64{{9, 4}, {10}}, "pending event seq 4 saved after seq 9"},
		{"seq duplicated in one owner", 10, 7, [][]uint64{{4, 4, 9}}, "pending event seq 4 saved after seq 4"},
		{"seq duplicated across owners", 10, 7, [][]uint64{{4, 9}, {9}}, "two pending events with seq 9"},
		{"seq past the counter", 10, 7, [][]uint64{{4, 9}, {11}}, "pending event seq 11 past seq 10"},
	}
	for _, tc := range cases {
		err := CheckLedger(tc.seq, tc.fired, tc.owners...)
		if (tc.want == "") != (err == nil) || err != nil && !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: want error containing %q, got %v", tc.name, tc.want, err)
		}
	}
}

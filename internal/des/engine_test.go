package des

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestZeroValueReady(t *testing.T) {
	var e Engine
	ran := false
	if err := e.Schedule(1, func(*Engine) { ran = true }); err != nil {
		t.Fatalf("Schedule on zero value: %v", err)
	}
	e.Run()
	if !ran {
		t.Fatal("event did not fire")
	}
	if e.Now() != 1 {
		t.Fatalf("Now = %v, want 1", e.Now())
	}
}

func TestEventsFireInTimeOrder(t *testing.T) {
	e := New()
	var got []float64
	for _, d := range []float64{5, 1, 3, 2, 4} {
		d := d
		e.MustSchedule(d, func(en *Engine) { got = append(got, en.Now()) })
	}
	e.Run()
	if !sort.Float64sAreSorted(got) {
		t.Fatalf("events fired out of order: %v", got)
	}
	if len(got) != 5 {
		t.Fatalf("fired %d events, want 5", len(got))
	}
}

func TestFIFOTieBreaking(t *testing.T) {
	e := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.MustSchedule(7, func(*Engine) { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events fired in order %v, want FIFO", order)
		}
	}
}

func TestZeroDelayFiresAfterCurrentInstant(t *testing.T) {
	e := New()
	var order []string
	e.MustSchedule(1, func(en *Engine) {
		order = append(order, "first")
		en.MustSchedule(0, func(*Engine) { order = append(order, "nested") })
	})
	e.MustSchedule(1, func(*Engine) { order = append(order, "second") })
	e.Run()
	want := []string{"first", "second", "nested"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestNegativeDelayRejected(t *testing.T) {
	e := New()
	if err := e.Schedule(-1, func(*Engine) {}); err == nil {
		t.Fatal("negative delay accepted")
	}
	if err := e.Schedule(math.NaN(), func(*Engine) {}); err == nil {
		t.Fatal("NaN delay accepted")
	}
	if err := e.At(-0.5, func(*Engine) {}); err == nil {
		t.Fatal("past absolute time accepted")
	}
}

func TestNilHandlerRejected(t *testing.T) {
	e := New()
	if err := e.At(1, nil); err == nil {
		t.Fatal("nil handler accepted")
	}
}

func TestMustSchedulePanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustSchedule did not panic on negative delay")
		}
	}()
	New().MustSchedule(-1, func(*Engine) {})
}

func TestRunUntilAdvancesClockToEnd(t *testing.T) {
	e := New()
	e.MustSchedule(1, func(*Engine) {})
	if err := e.RunUntil(10); err != ErrStalled {
		t.Fatalf("RunUntil = %v, want ErrStalled", err)
	}
	if e.Now() != 10 {
		t.Fatalf("Now = %v, want 10", e.Now())
	}
}

func TestRunUntilLeavesLaterEventsQueued(t *testing.T) {
	e := New()
	fired := 0
	e.MustSchedule(1, func(*Engine) { fired++ })
	e.MustSchedule(5, func(*Engine) { fired++ })
	if err := e.RunUntil(2); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if fired != 1 {
		t.Fatalf("fired = %d at t=2, want 1", fired)
	}
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", e.Pending())
	}
	e.Run()
	if fired != 2 {
		t.Fatalf("fired = %d after Run, want 2", fired)
	}
}

func TestRunUntilBoundaryInclusive(t *testing.T) {
	e := New()
	fired := false
	e.MustSchedule(3, func(*Engine) { fired = true })
	if err := e.RunUntil(3); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if !fired {
		t.Fatal("event at exactly end time did not fire")
	}
}

func TestRunUntilPastRejected(t *testing.T) {
	e := New()
	e.MustSchedule(5, func(*Engine) {})
	if err := e.RunUntil(5); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if err := e.RunUntil(1); err == nil {
		t.Fatal("RunUntil into the past accepted")
	}
}

func TestStop(t *testing.T) {
	e := New()
	fired := 0
	e.MustSchedule(1, func(en *Engine) { fired++; en.Stop() })
	e.MustSchedule(2, func(*Engine) { fired++ })
	e.Run()
	if fired != 1 {
		t.Fatalf("fired = %d after Stop, want 1", fired)
	}
	e.Run() // resumes
	if fired != 2 {
		t.Fatalf("fired = %d after resume, want 2", fired)
	}
}

func TestChainedScheduling(t *testing.T) {
	e := New()
	count := 0
	var tick Handler
	tick = func(en *Engine) {
		count++
		if count < 100 {
			en.MustSchedule(0.5, tick)
		}
	}
	e.MustSchedule(0.5, tick)
	e.Run()
	if count != 100 {
		t.Fatalf("count = %d, want 100", count)
	}
	if math.Abs(e.Now()-50) > 1e-9 {
		t.Fatalf("Now = %v, want 50", e.Now())
	}
	if e.Fired() != 100 {
		t.Fatalf("Fired = %d, want 100", e.Fired())
	}
}

func TestDeterminism(t *testing.T) {
	run := func(seed int64) []float64 {
		rng := rand.New(rand.NewSource(seed))
		e := New()
		var trace []float64
		for i := 0; i < 500; i++ {
			e.MustSchedule(rng.Float64()*100, func(en *Engine) {
				trace = append(trace, en.Now())
			})
		}
		e.Run()
		return trace
	}
	a, b := run(42), run(42)
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// Property: for any set of non-negative delays, the engine fires exactly one
// event per schedule and the observed fire times are the sorted delays.
func TestPropertyFireTimesAreSortedDelays(t *testing.T) {
	f := func(raw []float64) bool {
		e := New()
		var want []float64
		for _, d := range raw {
			d = math.Abs(d)
			if math.IsNaN(d) || math.IsInf(d, 0) {
				continue
			}
			want = append(want, d)
			e.MustSchedule(d, func(*Engine) {})
		}
		var got []float64
		for e.Step() {
			got = append(got, e.Now())
		}
		sort.Float64s(want)
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// recOwner is a minimal Slab-backed owner: it records the payload of each
// event it fires.
type recOwner struct {
	name  string
	recs  Slab[int]
	fired []int
}

func (o *recOwner) post(t *testing.T, e *Engine, at float64, v int) {
	t.Helper()
	if err := e.Post(at, o.name, o, o.recs.Put(v)); err != nil {
		t.Fatal(err)
	}
}

func (o *recOwner) Fire(_ *Engine, slot uint32) { o.fired = append(o.fired, o.recs.Take(slot)) }

// TestPendingEventsSharedEngineSeqOrder checks the checkpoint view of a
// shared engine: two owners' interleaved events come back in global
// scheduling order (not heap or time order), each tagged with its owner and
// the slot that resolves its payload, and firing them keeps the
// conservation ledger Seq == Fired + Pending.
func TestPendingEventsSharedEngineSeqOrder(t *testing.T) {
	e := New()
	a, b := &recOwner{name: "a"}, &recOwner{name: "b"}
	times := []float64{5, 1, 3, 1, 4, 2}
	for i, at := range times {
		o := a
		if i%2 == 1 {
			o = b
		}
		o.post(t, e, at, 100+i)
	}
	pend := e.PendingEvents()
	if len(pend) != len(times) {
		t.Fatalf("PendingEvents returned %d events, want %d", len(pend), len(times))
	}
	for i, pe := range pend {
		want := Owner(a)
		if i%2 == 1 {
			want = b
		}
		if pe.Seq != uint64(i+1) || pe.Time != times[i] || pe.Owner != want {
			t.Fatalf("pending[%d] = seq %d t=%v owner %v, want seq %d t=%v owner %v",
				i, pe.Seq, pe.Time, pe.Owner, i+1, times[i], want)
		}
		if got := pe.Owner.(*recOwner).recs.Get(pe.Slot); got != 100+i {
			t.Fatalf("pending[%d] slot resolves to %d, want %d", i, got, 100+i)
		}
	}
	for e.Step() {
		if e.Seq() != e.Fired()+uint64(e.Pending()) {
			t.Fatalf("ledger: seq %d != fired %d + pending %d", e.Seq(), e.Fired(), e.Pending())
		}
	}
	// Time order, FIFO among the two t=1 events.
	if got, want := fmt.Sprint(a.fired, b.fired), "[102 104 100] [101 103 105]"; got != want {
		t.Fatalf("fired payloads a, b = %s, want %s", got, want)
	}
}

// TestSlabReusesFreedSlots checks that a fired slot is recycled, so a
// steady event stream keeps the slab at its peak size.
func TestSlabReusesFreedSlots(t *testing.T) {
	var s Slab[string]
	x, y := s.Put("x"), s.Put("y")
	if got := s.Take(x); got != "x" {
		t.Fatalf("Take = %q, want x", got)
	}
	if z := s.Put("z"); z != x {
		t.Fatalf("Put after Take used slot %d, want freed slot %d", z, x)
	}
	if s.Get(y) != "y" || len(s.items) != 2 {
		t.Fatalf("slab grew to %d items or lost y", len(s.items))
	}
}

func BenchmarkScheduleAndFire(b *testing.B) {
	e := New()
	h := func(*Engine) {}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.MustSchedule(float64(i%97)*0.001, h)
		if i%64 == 63 {
			for e.Step() {
			}
		}
	}
	for e.Step() {
	}
}

func BenchmarkHotLoop(b *testing.B) {
	// Self-rescheduling event chain: the dominant pattern in the array
	// simulator (request completion scheduling the next service).
	e := New()
	n := 0
	var tick Handler
	tick = func(en *Engine) {
		n++
		if n < b.N {
			en.MustSchedule(0.001, tick)
		}
	}
	e.MustSchedule(0.001, tick)
	b.ResetTimer()
	e.Run()
}

func TestRunGuardedDetectsStall(t *testing.T) {
	e := New()
	// A handler that reschedules itself with zero delay forever: virtual
	// time never advances, so an unguarded Run would spin indefinitely.
	var spin Handler
	spin = func(en *Engine) { en.MustSchedule(0, spin) }
	e.MustSchedule(1, spin)
	err := e.RunGuarded(1000)
	if err == nil {
		t.Fatal("expected watchdog error for zero-delay self-rescheduling loop")
	}
	if e.Now() != 1 {
		t.Fatalf("clock should be pinned at the stall instant, got %v", e.Now())
	}
}

func TestRunGuardedPassesHealthyLoop(t *testing.T) {
	e := New()
	n := 0
	var tick Handler
	tick = func(en *Engine) {
		n++
		if n < 5000 {
			en.MustSchedule(0.001, tick)
		}
	}
	e.MustSchedule(0.001, tick)
	if err := e.RunGuarded(10); err != nil {
		t.Fatalf("healthy advancing loop tripped the watchdog: %v", err)
	}
	if n != 5000 {
		t.Fatalf("fired %d of 5000 events", n)
	}
}

func TestRunGuardedAllowsBoundedBursts(t *testing.T) {
	e := New()
	fired := 0
	for i := 0; i < 50; i++ {
		e.MustSchedule(1, func(*Engine) { fired++ }) // same-instant burst
	}
	if err := e.RunGuarded(100); err != nil {
		t.Fatalf("burst below the limit tripped the watchdog: %v", err)
	}
	if fired != 50 {
		t.Fatalf("fired %d of 50", fired)
	}
}

func TestRunGuardedZeroLimitRejected(t *testing.T) {
	if err := New().RunGuarded(0); err == nil {
		t.Fatal("expected error for zero stall limit")
	}
}

package des

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// fnOwner is the tests' one Owner: each event's payload is the function it
// runs, held in the owner's slab.
type fnOwner struct{ fns Slab[func(*Engine)] }

func (o *fnOwner) Fire(e *Engine, slot uint32) { o.fns.Take(slot)(e) }

// at posts fn at absolute time t under label; a rejected post is a bug in
// the test.
func (o *fnOwner) at(e *Engine, t float64, label string, fn func(*Engine)) {
	if err := e.Post(t, label, o, o.fns.Put(fn)); err != nil {
		panic(err)
	}
}

// after posts fn delay seconds from now.
func (o *fnOwner) after(e *Engine, delay float64, label string, fn func(*Engine)) {
	o.at(e, e.Now()+delay, label, fn)
}

// drain fires events until the queue is empty.
func drain(e *Engine) {
	for e.Step() {
	}
}

func nop(*Engine) {}

func TestZeroValueReady(t *testing.T) {
	var e Engine
	o := &fnOwner{}
	ran := false
	if err := e.Post(1, "", o, o.fns.Put(func(*Engine) { ran = true })); err != nil {
		t.Fatalf("Post on zero value: %v", err)
	}
	drain(&e)
	if !ran {
		t.Fatal("event did not fire")
	}
	if e.Now() != 1 {
		t.Fatalf("Now = %v, want 1", e.Now())
	}
}

func TestEventsFireInTimeOrder(t *testing.T) {
	e, o := New(), &fnOwner{}
	var got []float64
	for _, d := range []float64{5, 1, 3, 2, 4} {
		o.after(e, d, "", func(en *Engine) { got = append(got, en.Now()) })
	}
	drain(e)
	if !sort.Float64sAreSorted(got) {
		t.Fatalf("events fired out of order: %v", got)
	}
	if len(got) != 5 {
		t.Fatalf("fired %d events, want 5", len(got))
	}
}

func TestFIFOTieBreaking(t *testing.T) {
	e, o := New(), &fnOwner{}
	var order []int
	for i := 0; i < 10; i++ {
		o.after(e, 7, "", func(*Engine) { order = append(order, i) })
	}
	drain(e)
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events fired in order %v, want FIFO", order)
		}
	}
}

func TestZeroDelayFiresAfterCurrentInstant(t *testing.T) {
	e, o := New(), &fnOwner{}
	var order []string
	o.after(e, 1, "", func(en *Engine) {
		order = append(order, "first")
		o.after(en, 0, "", func(*Engine) { order = append(order, "nested") })
	})
	o.after(e, 1, "", func(*Engine) { order = append(order, "second") })
	drain(e)
	want := []string{"first", "second", "nested"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// TestNegativeDelayRejected: an event posted before now, or at NaN, would
// rewind causality; Post rejects it.
func TestNegativeDelayRejected(t *testing.T) {
	e, o := New(), &fnOwner{}
	o.at(e, 2, "", nop)
	drain(e)
	for _, at := range []float64{1.5, -0.5, math.NaN()} {
		if err := e.Post(at, "", o, 0); err == nil {
			t.Fatalf("Post at %v with the clock at 2 accepted", at)
		}
	}
	if e.Pending() != 0 || e.Seq() != 1 {
		t.Fatalf("rejected posts left %d pending, seq %d", e.Pending(), e.Seq())
	}
}

func TestNilHandlerRejected(t *testing.T) {
	if err := New().Post(1, "", nil, 0); err == nil {
		t.Fatal("nil owner accepted")
	}
}

func TestStop(t *testing.T) {
	e, o := New(), &fnOwner{}
	fired := 0
	o.after(e, 1, "", func(en *Engine) { fired++; en.Stop() })
	o.after(e, 2, "", func(*Engine) { fired++ })
	if err := e.RunGuarded(StallLimit); err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Fatalf("fired = %d after Stop, want 1", fired)
	}
	if err := e.RunGuarded(StallLimit); err != nil { // resumes
		t.Fatal(err)
	}
	if fired != 2 {
		t.Fatalf("fired = %d after resume, want 2", fired)
	}
}

func TestChainedScheduling(t *testing.T) {
	e, o := New(), &fnOwner{}
	count := 0
	var tick func(*Engine)
	tick = func(en *Engine) {
		count++
		if count < 100 {
			o.after(en, 0.5, "", tick)
		}
	}
	o.after(e, 0.5, "", tick)
	drain(e)
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
		e, o := New(), &fnOwner{}
		var trace []float64
		for i := 0; i < 500; i++ {
			o.after(e, rng.Float64()*100, "", func(en *Engine) {
				trace = append(trace, en.Now())
			})
		}
		drain(e)
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
		e, o := New(), &fnOwner{}
		var want []float64
		for _, d := range raw {
			d = math.Abs(d)
			if math.IsNaN(d) || math.IsInf(d, 0) {
				continue
			}
			want = append(want, d)
			o.after(e, d, "", nop)
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

// TestPendingEventsSharedEngineSeqOrder checks the checkpoint view of a
// shared engine: two owners' interleaved events come back in global
// scheduling order (not heap or time order), each tagged with its label,
// its owner and the slot it was posted with, and firing them keeps the
// conservation ledger Seq == Fired + Pending.
func TestPendingEventsSharedEngineSeqOrder(t *testing.T) {
	e := New()
	a, b := &fnOwner{}, &fnOwner{}
	fired := map[*fnOwner][]int{}
	times := []float64{5, 1, 3, 1, 4, 2}
	for i, at := range times {
		o, label := a, "a"
		if i%2 == 1 {
			o, label = b, "b"
		}
		o.at(e, at, label, func(*Engine) { fired[o] = append(fired[o], 100+i) })
	}
	pend := e.PendingEvents()
	if len(pend) != len(times) {
		t.Fatalf("PendingEvents returned %d events, want %d", len(pend), len(times))
	}
	for i, pe := range pend {
		want, label := Owner(a), "a"
		if i%2 == 1 {
			want, label = b, "b"
		}
		if pe.Seq != uint64(i+1) || pe.Time != times[i] || pe.Label != label || pe.Owner != want || pe.Slot != uint32(i/2) {
			t.Fatalf("pending[%d] = %+v, want seq %d t=%v label %s owner %v slot %d",
				i, pe, i+1, times[i], label, want, i/2)
		}
	}
	for e.Step() {
		if e.Seq() != e.Fired()+uint64(e.Pending()) {
			t.Fatalf("ledger: seq %d != fired %d + pending %d", e.Seq(), e.Fired(), e.Pending())
		}
	}
	// Time order, FIFO among the two t=1 events.
	if got, want := fmt.Sprint(fired[a], fired[b]), "[102 104 100] [101 103 105]"; got != want {
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
	e, o := New(), &fnOwner{}
	for i := 0; i < b.N; i++ {
		o.after(e, float64(i%97)*0.001, "", nop)
		if i%64 == 63 {
			drain(e)
		}
	}
	drain(e)
}

func BenchmarkHotLoop(b *testing.B) {
	// Self-rescheduling event chain: the dominant pattern in the array
	// simulator (request completion scheduling the next service).
	e, o := New(), &fnOwner{}
	n := 0
	var tick func(*Engine)
	tick = func(en *Engine) {
		n++
		if n < b.N {
			o.after(en, 0.001, "", tick)
		}
	}
	o.after(e, 0.001, "", tick)
	b.ResetTimer()
	drain(e)
}

func TestRunGuardedDetectsStall(t *testing.T) {
	e, o := New(), &fnOwner{}
	// A handler that reschedules itself with zero delay forever: virtual
	// time never advances, so an unguarded loop would spin indefinitely.
	var spin func(*Engine)
	spin = func(en *Engine) { o.after(en, 0, "", spin) }
	o.after(e, 1, "", spin)
	err := e.RunGuarded(1000)
	if err == nil {
		t.Fatal("expected watchdog error for zero-delay self-rescheduling loop")
	}
	if e.Now() != 1 {
		t.Fatalf("clock should be pinned at the stall instant, got %v", e.Now())
	}
}

func TestRunGuardedPassesHealthyLoop(t *testing.T) {
	e, o := New(), &fnOwner{}
	n := 0
	var tick func(*Engine)
	tick = func(en *Engine) {
		n++
		if n < 5000 {
			o.after(en, 0.001, "", tick)
		}
	}
	o.after(e, 0.001, "", tick)
	if err := e.RunGuarded(10); err != nil {
		t.Fatalf("healthy advancing loop tripped the watchdog: %v", err)
	}
	if n != 5000 {
		t.Fatalf("fired %d of 5000 events", n)
	}
}

func TestRunGuardedAllowsBoundedBursts(t *testing.T) {
	e, o := New(), &fnOwner{}
	fired := 0
	for i := 0; i < 50; i++ {
		o.after(e, 1, "", func(*Engine) { fired++ }) // same-instant burst
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

// BenchmarkDeepLane is the kernel under a deep, time-ordered stream: 500
// pending deadlines on one label, each re-posted a fixed delay after it
// fires, as a router's attempt deadlines are, beside a short arrival and
// service chain. One op is one fired event.
func BenchmarkDeepLane(b *testing.B) {
	e, o := New(), &fnOwner{}
	const depth, gap = 500, 0.01
	var deadline, arrival, service func(*Engine)
	deadline = func(en *Engine) { o.after(en, depth*gap, "deadline", deadline) }
	n := 0
	service = nop
	arrival = func(en *Engine) {
		n++
		o.after(en, float64(n%7)*0.003, "service", service)
		o.after(en, gap, "arrival", arrival)
	}
	for i := 0; i < depth; i++ {
		o.at(e, float64(i)*gap, "deadline", deadline)
	}
	o.at(e, 0, "arrival", arrival)
	for i := 0; i < 10*depth; i++ { // grow the queue, the lanes and the slab
		e.Step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

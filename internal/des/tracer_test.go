package des

import (
	"testing"
)

// recordingTracer captures every tracer callback for inspection.
type recordingTracer struct {
	scheduled []string
	fired     []string
	wallNanos []int64
}

func (t *recordingTracer) EventScheduled(id uint64, label string, at, now float64) {
	t.scheduled = append(t.scheduled, label)
}

func (t *recordingTracer) EventFired(id uint64, label string, at float64, wallNanos int64) {
	t.fired = append(t.fired, label)
	t.wallNanos = append(t.wallNanos, wallNanos)
}

func TestTracerObservesLifecycle(t *testing.T) {
	e, o := New(), &fnOwner{}
	tr := &recordingTracer{}
	e.SetTracer(tr)

	o.at(e, 1, "arrival", nop)
	o.at(e, 2, "idle-timer", nop)
	o.at(e, 3, "epoch", nop)
	o.at(e, 4, "", nop) // unlabeled
	drain(e)

	wantScheduled := []string{"arrival", "idle-timer", "epoch", ""}
	if len(tr.scheduled) != len(wantScheduled) {
		t.Fatalf("scheduled = %v, want %v", tr.scheduled, wantScheduled)
	}
	for i := range wantScheduled {
		if tr.scheduled[i] != wantScheduled[i] {
			t.Fatalf("scheduled = %v, want %v", tr.scheduled, wantScheduled)
		}
	}
	wantFired := wantScheduled
	if len(tr.fired) != len(wantFired) {
		t.Fatalf("fired = %v, want %v", tr.fired, wantFired)
	}
	for i := range wantFired {
		if tr.fired[i] != wantFired[i] {
			t.Fatalf("fired = %v, want %v", tr.fired, wantFired)
		}
	}
	for i, ns := range tr.wallNanos {
		if ns < 0 {
			t.Fatalf("wallNanos[%d] = %d, want >= 0", i, ns)
		}
	}
}

func TestTracerDoesNotChangeResults(t *testing.T) {
	run := func(tr Tracer) []float64 {
		e, o := New(), &fnOwner{}
		e.SetTracer(tr)
		var times []float64
		for _, d := range []float64{3, 1, 2, 1} {
			o.after(e, d, "tick", func(en *Engine) {
				times = append(times, en.Now())
			})
		}
		drain(e)
		return times
	}
	plain, traced := run(nil), run(&recordingTracer{})
	if len(plain) != len(traced) {
		t.Fatalf("fired %d vs %d events", len(plain), len(traced))
	}
	for i := range plain {
		if plain[i] != traced[i] {
			t.Fatalf("fire times diverge at %d: %v vs %v", i, plain, traced)
		}
	}
}

func TestSetTracerNilRemoves(t *testing.T) {
	e, o := New(), &fnOwner{}
	tr := &recordingTracer{}
	e.SetTracer(tr)
	o.at(e, 1, "a", nop)
	e.SetTracer(nil)
	o.at(e, 2, "b", nop)
	drain(e)
	if len(tr.scheduled) != 1 || len(tr.fired) != 0 {
		t.Fatalf("removed tracer still observed events: %+v", tr)
	}
}

// The dispatch hot path with no tracer installed must not allocate: firing a
// pre-scheduled event is a pop or a lane advance plus the handler call, and
// the nil-tracer branch adds neither a time.Now() call nor any allocation.
// The hot events are posted in time order on one label, so all but the
// first wait in a lane.
func TestStepWithoutTracerDoesNotAllocate(t *testing.T) {
	e, o := New(), &fnOwner{}
	// Warm up the heap's and the slab's capacity so growth doesn't count.
	for i := 0; i < 1024; i++ {
		o.at(e, float64(i), "warm", nop)
	}
	drain(e)
	const hot = 1024
	for i := 0; i < hot; i++ {
		o.at(e, float64(2000+i), "hot", nop)
	}
	if e.laned != hot-1 {
		t.Fatalf("%d of %d time-ordered events in a lane, want all but the head", e.laned, hot)
	}
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		if i < hot {
			e.Step()
			i++
		}
	})
	if allocs != 0 {
		t.Fatalf("Step allocated %v times per run with no tracer, want 0", allocs)
	}
}

// nullTracer is the cheapest possible live tracer; the delta between this
// and the no-tracer hot loop is the fixed cost of enabling tracing (two
// wall-clock reads per event).
type nullTracer struct{}

func (nullTracer) EventScheduled(uint64, string, float64, float64) {}
func (nullTracer) EventFired(uint64, string, float64, int64)       {}

func BenchmarkHotLoopTraced(b *testing.B) {
	e, o := New(), &fnOwner{}
	e.SetTracer(nullTracer{})
	n := 0
	var tick func(*Engine)
	tick = func(en *Engine) {
		n++
		if n < b.N {
			o.after(en, 0.001, "tick", tick)
		}
	}
	o.after(e, 0.001, "tick", tick)
	b.ResetTimer()
	drain(e)
}

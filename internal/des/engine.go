// Package des implements a deterministic discrete-event simulation kernel.
//
// The kernel maintains a virtual clock and a priority queue of scheduled
// events. Events fire in non-decreasing time order; events scheduled for the
// same instant fire in the order they were scheduled (FIFO tie-breaking via a
// monotone sequence number), which makes every simulation run fully
// deterministic for a fixed input.
//
// The kernel is single-threaded by design: disk-array simulations are
// causally ordered and the profitable parallelism lives one level up, across
// independent simulation runs (parameter sweeps), not inside one run.
package des

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"
)

// Owner is the model-side receiver of scheduled events. A scheduled event
// is a plain value — (time, seq, owner, slot, label) — rather than a
// callback: the owner posts it with a slot that indexes its own payload
// table (typically a Slab) and gets the slot back when the event fires.
// Events are never cancelled; an owner whose event outlives its purpose
// makes the handler a no-op against its current state.
type Owner interface {
	Fire(e *Engine, slot uint32)
}

// Handler is a closure event: an Owner that ignores its slot. It is the
// thin adapter Schedule, At and MustSchedule put onto Post. A func value is
// pointer-shaped, so boxing one as an Owner allocates nothing.
type Handler func(e *Engine)

// Fire runs the closure.
func (h Handler) Fire(e *Engine, _ uint32) { h(e) }

// Tracer observes engine activity for diagnostics. All times are virtual
// seconds except wallNanos, the handler's wall-clock execution time. The
// interface uses only builtin types so implementations (e.g. the telemetry
// package's Chrome trace writer) need no dependency on this package.
//
// A tracer must not mutate the engine. When no tracer is installed the
// engine pays one nil check per operation and never reads the wall clock,
// so disabled tracing adds zero allocations and no nondeterminism.
type Tracer interface {
	// EventScheduled fires when an event is enqueued to run at time at.
	EventScheduled(id uint64, label string, at, now float64)
	// EventFired fires after an event's handler returns.
	EventFired(id uint64, label string, at float64, wallNanos int64)
}

// SpanTracer is an optional Tracer extension for logical intervals that are
// not single events — e.g. a request's life from arrival to completion.
// Both times are virtual seconds. Like Tracer it uses only builtin types so
// implementations need no dependency on this package; tracers that do not
// implement it simply never see spans.
type SpanTracer interface {
	Span(label string, start, end float64)
}

// ErrStalled is returned by Run when the event queue drains before the
// requested end time was reached with RunUntil semantics. It is informational
// rather than fatal: a drained queue simply means the simulation reached
// quiescence early.
var ErrStalled = errors.New("des: event queue drained before end time")

var errNilOwner = errors.New("des: nil handler")

type event struct {
	time  float64
	seq   uint64 // FIFO tie-breaker and identity
	owner Owner
	slot  uint32
	label string // tracer annotation; "" for unlabeled events
}

// before orders events by (time, seq).
func (a *event) before(b *event) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	return a.seq < b.seq
}

// eventHeap is a binary min-heap of event values ordered by (time, seq).
// The sift loops move a hole instead of swapping, so each level costs one
// copy, and values rather than pointers keep the queue in one allocation
// with no per-event record to recycle.
type eventHeap []event

// push inserts x, maintaining heap order.
//
//simlint:hotpath
func (h *eventHeap) push(x event) {
	*h = append(*h, x)
	q := *h
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !x.before(&q[parent]) {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = x
}

// pop removes and returns the earliest event.
//
//simlint:hotpath
func (h *eventHeap) pop() event {
	q := *h
	n := len(q) - 1
	top, x := q[0], q[n]
	q[n] = event{} // drop the owner and label references
	q = q[:n]
	*h = q
	if n == 0 {
		return top
	}
	i := 0
	for {
		child := 2*i + 1
		if child >= n || child < 0 { // child < 0 after int overflow
			break
		}
		if right := child + 1; right < n && q[right].before(&q[child]) {
			child = right
		}
		if !q[child].before(&x) {
			break
		}
		q[i] = q[child]
		i = child
	}
	q[i] = x
	return top
}

// Slab holds an owner's per-event payloads, indexed by the slot the owner
// posts with each event. Fired slots go onto a free stack and are reused, so
// a steady-state event stream allocates nothing once the slab has grown to
// the peak number of the owner's pending events.
type Slab[T any] struct {
	items []T
	free  []uint32
}

// Put stores v and returns its slot.
//
//simlint:hotpath
func (s *Slab[T]) Put(v T) uint32 {
	if n := len(s.free); n > 0 {
		slot := s.free[n-1]
		s.free = s.free[:n-1]
		s.items[slot] = v
		return slot
	}
	s.items = append(s.items, v)
	return uint32(len(s.items) - 1)
}

// Take returns the payload in slot and frees the slot.
//
//simlint:hotpath
func (s *Slab[T]) Take(slot uint32) T {
	v := s.items[slot]
	var zero T
	s.items[slot] = zero
	s.free = append(s.free, slot)
	return v
}

// Get returns the payload in a live slot without freeing it.
func (s *Slab[T]) Get(slot uint32) T { return s.items[slot] }

// Engine is a discrete-event simulation engine. The zero value is ready to
// use and starts at virtual time zero.
type Engine struct {
	now       float64
	seq       uint64
	queue     eventHeap
	fired     uint64
	stopped   bool
	tracer    Tracer
	spans     SpanTracer // tracer's SpanTracer side, cached; nil when absent
	watch     *Watch     // live ops view; nil when no observer is attached
	lastLabel string     // label of the most recently fired event
}

// SetTracer installs (or, with nil, removes) the engine's activity tracer.
// The tracer's SpanTracer extension, if implemented, is cached here so
// EmitSpan costs one nil check — not a type assertion — per call.
func (e *Engine) SetTracer(t Tracer) {
	e.tracer = t
	e.spans, _ = t.(SpanTracer)
}

// EmitSpan forwards a logical interval to the tracer's SpanTracer side.
// It is a no-op (and allocation-free) when no span tracer is installed.
func (e *Engine) EmitSpan(label string, start, end float64) {
	if e.spans != nil {
		e.spans.Span(label, start, end)
	}
}

// SetWatch installs (or, with nil, removes) a lock-free live view updated by
// RunGuarded after every fired event. With no watch installed the run loop
// pays one nil check per event and allocates nothing.
func (e *Engine) SetWatch(w *Watch) { e.watch = w }

// New returns an engine with its clock at zero.
func New() *Engine { return &Engine{} }

// Now returns the current virtual time in seconds.
func (e *Engine) Now() float64 { return e.now }

// Fired returns the number of events executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending returns the number of scheduled, not-yet-fired events. Every
// scheduled event fires or stays pending, so Seq() == Fired() + Pending()
// between events; a restored engine keeps it once FinishRestore has run.
func (e *Engine) Pending() int { return len(e.queue) }

// Post schedules an event for owner o at absolute virtual time t, which
// must not be in the past. When it fires, the engine calls o.Fire with the
// same slot. Labels should be constant strings ("arrival", "service", ...):
// they name the event in traces and stall reports. Post is the kernel's
// scheduling hot path, one call per simulated event, and allocates nothing
// once the queue has grown to its peak depth.
//
//simlint:hotpath
func (e *Engine) Post(t float64, label string, o Owner, slot uint32) error {
	if t < e.now || math.IsNaN(t) {
		return fmt.Errorf("des: schedule time %v is before now %v", t, e.now) //simlint:allow hotalloc -- error branch: fires once on a caller bug, never in steady state
	}
	if o == nil {
		return errNilOwner
	}
	e.seq++
	e.queue.push(event{time: t, seq: e.seq, owner: o, slot: slot, label: label})
	if e.tracer != nil {
		e.tracer.EventScheduled(e.seq, label, t, e.now)
	}
	return nil
}

// Schedule arranges for h to run delay seconds after the current virtual
// time. A negative delay is an error because it would rewind causality;
// a zero delay fires at the current instant, after all events already
// scheduled for that instant.
func (e *Engine) Schedule(delay float64, h Handler) error {
	return e.scheduleLabeled(delay, "", h)
}

// MustSchedule is Schedule for delays the caller has already validated;
// it panics on a negative or NaN delay, which always indicates a programming
// error in the model rather than bad input.
func (e *Engine) MustSchedule(delay float64, h Handler) {
	e.MustScheduleLabeled(delay, "", h)
}

// MustScheduleLabeled is MustSchedule with a tracer label.
func (e *Engine) MustScheduleLabeled(delay float64, label string, h Handler) {
	if err := e.scheduleLabeled(delay, label, h); err != nil {
		panic(err)
	}
}

func (e *Engine) scheduleLabeled(delay float64, label string, h Handler) error {
	if delay < 0 || math.IsNaN(delay) {
		return fmt.Errorf("des: negative or NaN delay %v", delay)
	}
	return e.atLabeled(e.now+delay, label, h)
}

// At arranges for h to run at absolute virtual time t, which must not be in
// the past.
func (e *Engine) At(t float64, h Handler) error { return e.atLabeled(t, "", h) }

func (e *Engine) atLabeled(t float64, label string, h Handler) error {
	if h == nil {
		return errNilOwner
	}
	return e.Post(t, label, h, 0)
}

// Stop makes the current Run call return after the in-flight event handler
// finishes. Scheduled events remain queued and a later Run resumes them.
func (e *Engine) Stop() { e.stopped = true }

// Step fires the single earliest pending event, advancing the clock to its
// timestamp. It reports false when the queue is empty.
//
//simlint:hotpath
func (e *Engine) Step() bool {
	if len(e.queue) == 0 {
		return false
	}
	ev := e.queue.pop()
	e.now = ev.time
	e.fired++
	e.lastLabel = ev.label
	if tr := e.tracer; tr != nil {
		start := time.Now() //simlint:allow detrand -- wall-clock handler timing feeds the trace file only, never simulation state
		ev.owner.Fire(e, ev.slot)
		tr.EventFired(ev.seq, ev.label, ev.time, time.Since(start).Nanoseconds()) //simlint:allow detrand -- see above
	} else {
		ev.owner.Fire(e, ev.slot)
	}
	return true
}

// Run fires events until the queue drains or Stop is called.
func (e *Engine) Run() {
	e.stopped = false
	for !e.stopped && e.Step() {
	}
}

// RunGuarded is Run with a watchdog: if stallLimit consecutive events fire
// without the virtual clock advancing — the signature of a handler that
// keeps rescheduling itself at the current instant — it stops and returns a
// diagnostic error instead of spinning forever. Legitimate same-instant
// bursts (simultaneous arrivals, zero-delay kicks) are fine as long as they
// stay below the limit, so callers should pick a limit far above any
// plausible burst. It returns nil when the queue drains or Stop is called.
func (e *Engine) RunGuarded(stallLimit uint64) error {
	if stallLimit == 0 {
		return errors.New("des: watchdog stall limit must be positive")
	}
	e.watch.setLimit(stallLimit)
	e.stopped = false
	var streak uint64
	last := math.Inf(-1)
	for !e.stopped {
		if !e.Step() {
			e.watch.publish(e.now, e.fired, uint64(len(e.queue)), e.seq, streak, e.lastLabel)
			return nil
		}
		if e.now != last {
			last = e.now
			streak = 1
		} else {
			streak++
		}
		if w := e.watch; w != nil {
			w.publish(e.now, e.fired, uint64(len(e.queue)), e.seq, streak, e.lastLabel)
		}
		if streak >= stallLimit {
			serr := &StallError{
				Streak:    streak,
				SimTime:   e.now,
				Fired:     e.fired,
				Pending:   len(e.queue),
				LastLabel: e.lastLabel,
			}
			e.watch.setStall(serr)
			return serr
		}
	}
	return nil
}

// RunUntil fires events with timestamps <= end, then sets the clock to end.
// It returns ErrStalled if the queue drained strictly before end (the clock
// is still advanced to end so energy integration over wall time stays
// consistent).
func (e *Engine) RunUntil(end float64) error {
	if end < e.now {
		return fmt.Errorf("des: end time %v is before now %v", end, e.now)
	}
	e.stopped = false
	for !e.stopped {
		next, ok := e.peek()
		if !ok {
			stalled := e.now < end
			e.now = end
			if stalled {
				return ErrStalled
			}
			return nil
		}
		if next > end {
			e.now = end
			return nil
		}
		e.Step()
	}
	return nil
}

// Seq returns the engine's monotone event sequence counter: the number of
// events ever scheduled. Together with Fired it pins an engine's position in
// its deterministic trajectory, which is what checkpoint/restore preserves.
func (e *Engine) Seq() uint64 { return e.seq }

// PendingEvent is one scheduled, not-yet-fired event as PendingEvents
// reports it.
type PendingEvent struct {
	Seq   uint64
	Time  float64
	Owner Owner
	Slot  uint32
}

// PendingEvents returns every pending event in ascending sequence order —
// the order they were scheduled — by one walk over the queue. A checkpoint
// serializes its owner's events in this order (skipping those whose Owner
// is not itself) so a restore can re-schedule them with identical FIFO
// tie-breaking.
func (e *Engine) PendingEvents() []PendingEvent {
	out := make([]PendingEvent, len(e.queue))
	for i, ev := range e.queue {
		out[i] = PendingEvent{Seq: ev.seq, Time: ev.time, Owner: ev.owner, Slot: ev.slot}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// BeginRestore prepares a fresh engine to be reloaded from a checkpoint
// taken at virtual time now. It is only valid on an engine that has never
// scheduled or fired anything; the caller then re-schedules the snapshot's
// pending events (in their original sequence order, at their original
// absolute times, via Post) and calls FinishRestore.
func (e *Engine) BeginRestore(now float64) error {
	if e.seq != 0 || e.fired != 0 || len(e.queue) != 0 {
		return errors.New("des: BeginRestore requires a fresh engine")
	}
	if now < 0 || math.IsNaN(now) {
		return fmt.Errorf("des: BeginRestore time %v invalid", now)
	}
	e.now = now
	return nil
}

// FinishRestore pins the sequence and fired counters to the checkpoint's
// values after the pending events have been re-scheduled. seq must be at
// least as large as the restore-time counter so future events keep sorting
// after the restored ones exactly as they would have in the original run.
func (e *Engine) FinishRestore(seq, fired uint64) error {
	if seq < e.seq {
		return fmt.Errorf("des: FinishRestore seq %d below already-scheduled %d", seq, e.seq)
	}
	e.seq = seq
	e.fired = fired
	return nil
}

// peek returns the timestamp of the earliest pending event.
func (e *Engine) peek() (float64, bool) {
	if len(e.queue) == 0 {
		return 0, false
	}
	return e.queue[0].time, true
}

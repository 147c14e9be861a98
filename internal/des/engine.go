// Package des implements a deterministic discrete-event simulation kernel.
//
// The kernel maintains a virtual clock and a priority queue of scheduled
// events. Events fire in non-decreasing time order; events scheduled for the
// same instant fire in the order they were scheduled (FIFO tie-breaking via a
// monotone sequence number), which makes every simulation run fully
// deterministic for a fixed input.
//
// The queue is a heap plus one FIFO lane per (owner, label). An event posted
// no earlier than the last event of its lane waits in the lane, and only each
// lane's head sits in the heap, so a deep stream of time-ordered events (an
// epoch's spaced migrations, a router's fixed-delay deadlines) costs the heap
// one entry instead of one per event. Any other event goes to the heap alone.
// Every lane event sorts after its head, so the heap's top is still the
// earliest pending event and the fire order is (time, seq) exactly as with a
// heap alone.
//
// The kernel is single-threaded by design: disk-array simulations are
// causally ordered and the profitable parallelism lives one level up, across
// independent simulation runs (parameter sweeps), not inside one run.
package des

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"time"
)

// Owner is the model-side receiver of scheduled events, and Post the one
// way onto the queue. A scheduled event is a plain value — (time, seq,
// owner, slot, label) — rather than a callback: the owner posts it with a
// slot that indexes its own payload table (typically a Slab) and gets the
// slot back when the event fires.
// Events are never cancelled; an owner whose event outlives its purpose
// makes the handler a no-op against its current state.
type Owner interface {
	Fire(e *Engine, slot uint32)
}

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

var errNilOwner = errors.New("des: nil owner")

type event struct {
	time  float64
	seq   uint64 // FIFO tie-breaker and identity
	owner Owner
	slot  uint32
	lane  int32  // 1 + index of the lane this event heads or waits in; 0 for a heap-only event
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

// removeTop removes the earliest event.
//
//simlint:hotpath
func (h *eventHeap) removeTop() {
	q := *h
	n := len(q) - 1
	x := q[n]
	q[n] = event{} // drop the owner and label references
	*h = q[:n]
	if n > 0 {
		q[:n].replaceTop(x)
	}
}

// replaceTop puts x in place of the earliest event and sifts it down: one
// sift instead of a pop and a push.
//
//simlint:hotpath
func (h eventHeap) replaceTop(x event) {
	n := len(h)
	i := 0
	for {
		child := 2*i + 1
		if child >= n || child < 0 { // child < 0 after int overflow
			break
		}
		if right := child + 1; right < n && h[right].before(&h[child]) {
			child = right
		}
		if !h[child].before(&x) {
			break
		}
		h[i] = h[child]
		i = child
	}
	h[i] = x
}

// lane is one (owner, label)'s FIFO of events posted in time order. While
// the lane is live its head is in the heap and q[next:] wait behind it, in
// time and seq order.
type lane struct {
	owner Owner
	label string
	live  bool    // the lane's head is in the heap
	tail  float64 // time of the lane's last event
	q     []event
	next  int
}

// push appends ev behind the lane's tail. When the buffer is full and at
// least half of it has already left, the waiting events slide to the front
// instead of the buffer growing, so the buffer of a lane that never drains
// grows only while more than half of it waits: it stays within a small
// multiple of the lane's peak depth.
//
//simlint:hotpath
func (l *lane) push(ev event) {
	if len(l.q) == cap(l.q) && l.next > 0 && l.next >= len(l.q)/2 {
		n := copy(l.q, l.q[l.next:])
		l.q, l.next = l.q[:n], 0
	}
	l.q = append(l.q, ev) //simlint:allow hotalloc -- freelist growth: the buffer grows to the lane's peak depth, then is reused
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
	queue     eventHeap // earliest-first: heap-only events and each live lane's head
	lanes     []lane
	laned     int // events waiting in lanes behind their heads
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
// between events; a restored engine keeps it when its saved position
// passed CheckLedger, which the checkpoint validators require.
func (e *Engine) Pending() int { return len(e.queue) + e.laned }

// Post schedules an event for owner o at absolute virtual time t, which
// must not be in the past. When it fires, the engine calls o.Fire with the
// same slot. Labels should be constant strings ("arrival", "service", ...):
// they name the event in traces and stall reports, and each (owner, label)
// pair has its own lane. Post is the kernel's scheduling hot path, one call
// per simulated event, and allocates nothing once the queue and the lanes
// have grown to their peak depth.
//
//simlint:hotpath
func (e *Engine) Post(t float64, label string, o Owner, slot uint32) error {
	if t < e.now || math.IsNaN(t) {
		return e.lateErr(t)
	}
	if o == nil {
		return errNilOwner
	}
	e.seq++
	e.enqueue(t, e.seq, label, o, slot)
	if e.tracer != nil {
		e.tracer.EventScheduled(e.seq, label, t, e.now)
	}
	return nil
}

// lateErr is the error for an event posted at t, before now or at NaN.
func (e *Engine) lateErr(t float64) error {
	return fmt.Errorf("des: schedule time %v is before now %v", t, e.now)
}

// enqueue queues an event: as its lane's head when the lane is empty,
// behind the lane's tail when t is not before it, and in the heap alone
// otherwise. seq is above every queued event's.
//
//simlint:hotpath
func (e *Engine) enqueue(t float64, seq uint64, label string, o Owner, slot uint32) {
	i := e.laneOf(o, label)
	l := &e.lanes[i]
	switch {
	case !l.live:
		l.live, l.tail = true, t
		e.queue.push(event{time: t, seq: seq, owner: o, slot: slot, lane: int32(i + 1), label: label})
	case t >= l.tail:
		l.tail = t
		l.push(event{time: t, seq: seq, owner: o, slot: slot, lane: int32(i + 1), label: label})
		e.laned++
	default:
		e.queue.push(event{time: t, seq: seq, owner: o, slot: slot, label: label})
	}
}

// laneOf returns the index of (o, label)'s lane, opening it on the pair's
// first post. Lanes are keyed by the label's value, and a run's pairs are a
// small fixed set (labels are constants), so a scan beats a hash; the label
// is compared first because it is the cheaper comparison and tells most
// lanes apart.
//
//simlint:hotpath
func (e *Engine) laneOf(o Owner, label string) int {
	for i := range e.lanes {
		if l := &e.lanes[i]; l.label == label && l.owner == o {
			return i
		}
	}
	e.lanes = append(e.lanes, lane{owner: o, label: label}) //simlint:allow hotalloc -- once per (owner, label) pair: a run opens a small fixed set of lanes
	return len(e.lanes) - 1
}

// advance moves lane i's next event into the heap in place of its head,
// the heap's top, with one sift down. It reports false, and leaves the
// lane empty, when nothing waits behind the head.
//
//simlint:hotpath
func (e *Engine) advance(i int32) bool {
	l := &e.lanes[i-1]
	if l.next == len(l.q) {
		l.live = false
		l.q, l.next = l.q[:0], 0
		return false
	}
	next := l.q[l.next]
	l.q[l.next] = event{} // drop the owner and label references
	l.next++
	e.laned--
	e.queue.replaceTop(next)
	return true
}

// Stop makes the current RunGuarded call return after the in-flight event
// handler finishes. Scheduled events remain queued and a later RunGuarded
// resumes them.
func (e *Engine) Stop() { e.stopped = true }

// Step fires the single earliest pending event, advancing the clock to its
// timestamp. It reports false when the queue is empty.
//
//simlint:hotpath
func (e *Engine) Step() bool {
	if len(e.queue) == 0 {
		return false
	}
	ev := e.queue[0]
	if ev.lane == 0 || !e.advance(ev.lane) {
		e.queue.removeTop()
	}
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

// StallLimit is the watchdog limit the simulators run under: an array or a
// fleet fails with a diagnostic once this many consecutive events fire
// without the virtual clock advancing.
const StallLimit = 1_000_000

// RunGuarded fires events until the queue drains or Stop is called, under a
// watchdog: if stallLimit consecutive events fire without the virtual clock
// advancing — the signature of a handler that keeps rescheduling itself at
// the current instant — it stops and returns a diagnostic error instead of
// spinning forever. Legitimate same-instant bursts (simultaneous arrivals,
// zero-delay kicks) are fine as long as they stay below the limit, so
// callers should pick a limit far above any plausible burst. It returns nil
// when the queue drains or Stop is called.
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
			e.watch.publish(e.now, e.fired, uint64(e.Pending()), e.seq, streak, e.lastLabel)
			return nil
		}
		if e.now != last {
			last = e.now
			streak = 1
		} else {
			streak++
		}
		if w := e.watch; w != nil {
			w.publish(e.now, e.fired, uint64(e.Pending()), e.seq, streak, e.lastLabel)
		}
		if streak >= stallLimit {
			serr := &StallError{
				Streak:    streak,
				SimTime:   e.now,
				Fired:     e.fired,
				Pending:   e.Pending(),
				LastLabel: e.lastLabel,
			}
			e.watch.setStall(serr)
			return serr
		}
	}
	return nil
}

// Seq returns the engine's monotone event sequence counter: the number of
// events ever scheduled. Together with Fired it pins an engine's position in
// its deterministic trajectory, which is what checkpoint/restore preserves.
func (e *Engine) Seq() uint64 { return e.seq }

// PendingEvent is one scheduled, not-yet-fired event, as PendingEvents
// reports it and Restore re-posts it.
type PendingEvent struct {
	Seq   uint64
	Time  float64
	Label string
	Owner Owner
	Slot  uint32
}

// PendingEvents returns every pending event in ascending sequence order —
// the order they were scheduled — by one walk over the heap and the lanes.
// A checkpoint serializes its owner's events in this order (skipping those
// whose Owner is not itself), and Restore queues them again under the same
// seqs.
func (e *Engine) PendingEvents() []PendingEvent {
	out := make([]PendingEvent, 0, e.Pending())
	add := func(evs []event) {
		for _, ev := range evs {
			out = append(out, PendingEvent{Seq: ev.seq, Time: ev.time, Label: ev.label, Owner: ev.owner, Slot: ev.slot})
		}
	}
	add(e.queue)
	for i := range e.lanes {
		add(e.lanes[i].q[e.lanes[i].next:])
	}
	slices.SortFunc(out, bySeq)
	return out
}

func bySeq(a, b PendingEvent) int { return cmp.Compare(a.Seq, b.Seq) }

// CheckLedger reports why a saved engine position cannot be restored.
// owners holds each owner's pending events' sequence numbers in the order
// it saved them, which is PendingEvents' ascending order. They must ascend
// within an owner and be distinct across owners, none past seq, and every
// scheduled event must have fired or still be pending: seq == fired + the
// number pending. It is the engine's side of a checkpoint validator, run
// before anything is rebuilt.
func CheckLedger(seq, fired uint64, owners ...[]uint64) error {
	var all []uint64
	for _, seqs := range owners {
		for i := 1; i < len(seqs); i++ {
			if seqs[i] <= seqs[i-1] {
				return fmt.Errorf("engine ledger: pending event seq %d saved after seq %d", seqs[i], seqs[i-1])
			}
		}
		all = append(all, seqs...)
	}
	if n := uint64(len(all)); seq < fired || seq-fired != n {
		return fmt.Errorf("engine ledger: seq %d != fired %d + %d pending", seq, fired, n)
	}
	slices.Sort(all)
	for i, q := range all {
		switch {
		case q > seq:
			return fmt.Errorf("engine ledger: pending event seq %d past seq %d", q, seq)
		case i > 0 && q == all[i-1]:
			return fmt.Errorf("engine ledger: two pending events with seq %d", q)
		}
	}
	return nil
}

// Restore loads a fresh engine with a checkpoint's position: the clock at
// now, the events pending then, and the seq and fired counters. It queues
// the events in ascending Seq order, each under its saved seq, so they fire
// and tie-break as in the original run, and the next PendingEvents reports
// them as the original run's would; events is sorted in place and may
// belong to any number of owners, each payload already in its owner's
// slot. Only an engine that has never posted an event accepts it. The
// saved seqs must be distinct and none past seq, so events posted after
// Restore sort after the restored ones.
func (e *Engine) Restore(now float64, seq, fired uint64, events []PendingEvent) error {
	if e.seq != 0 || e.fired != 0 || e.Pending() != 0 {
		return errors.New("des: Restore requires a fresh engine")
	}
	if now < 0 || math.IsNaN(now) {
		return fmt.Errorf("des: Restore time %v invalid", now)
	}
	e.now = now
	slices.SortFunc(events, bySeq)
	var last uint64
	for _, pe := range events {
		switch {
		case pe.Seq <= last:
			return fmt.Errorf("des: Restore %s event seq %d not after seq %d", pe.Label, pe.Seq, last)
		case pe.Seq > seq:
			return fmt.Errorf("des: Restore %s event seq %d past seq %d", pe.Label, pe.Seq, seq)
		case pe.Time < now || math.IsNaN(pe.Time):
			return fmt.Errorf("des: Restore %s event seq %d: %w", pe.Label, pe.Seq, e.lateErr(pe.Time))
		case pe.Owner == nil:
			return fmt.Errorf("des: Restore %s event seq %d: %w", pe.Label, pe.Seq, errNilOwner)
		}
		last = pe.Seq
		e.enqueue(pe.Time, pe.Seq, pe.Label, pe.Owner, pe.Slot)
		if e.tracer != nil {
			e.tracer.EventScheduled(pe.Seq, pe.Label, pe.Time, e.now)
		}
	}
	e.seq = seq
	e.fired = fired
	return nil
}

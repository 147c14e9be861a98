package des

import (
	"cmp"
	"errors"
	"math/rand"
	"slices"
	"testing"
)

// refEvent and refHeap are the kernel's queue as it was before lanes: every
// pending event in one (time, seq) heap. The differential test fires the
// same posts through it and through Engine.
type refEvent struct {
	time  float64
	seq   uint64
	owner int
	label string
}

type refHeap []refEvent

func (h *refHeap) push(x refEvent) {
	*h = append(*h, x)
	q := *h
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !refBefore(&x, &q[parent]) {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = x
}

func (h *refHeap) pop() refEvent {
	q := *h
	n := len(q) - 1
	top, x := q[0], q[n]
	q = q[:n]
	*h = q
	if n == 0 {
		return top
	}
	i := 0
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if right := child + 1; right < n && refBefore(&q[right], &q[child]) {
			child = right
		}
		if !refBefore(&q[child], &x) {
			break
		}
		q[i] = q[child]
		i = child
	}
	q[i] = x
	return top
}

func refBefore(a, b *refEvent) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	return a.seq < b.seq
}

// slotOwner reports each fired slot to its differential run.
type slotOwner struct {
	d  *diffRun
	id int
}

func (o *slotOwner) Fire(_ *Engine, slot uint32) { o.d.fired, o.d.firedBy = slot, o.id }

// diffRun drives Engine and the reference heap in lockstep. Every post goes
// to both; posts[slot] is what was posted under slot.
type diffRun struct {
	t       *testing.T
	rng     *rand.Rand
	e       *Engine
	owners  []*slotOwner
	ref     refHeap
	refSeq  uint64
	posts   []refEvent
	fired   uint32
	firedBy int
	steps   int
}

func newDiffRun(t *testing.T, seed int64, owners int) *diffRun {
	d := &diffRun{t: t, rng: rand.New(rand.NewSource(seed)), e: New()}
	d.owners = d.newOwners(owners)
	return d
}

func (d *diffRun) newOwners(n int) []*slotOwner {
	os := make([]*slotOwner, n)
	for i := range os {
		os[i] = &slotOwner{d: d, id: i}
	}
	return os
}

func (d *diffRun) post(owner int, label string, delay float64) {
	t := d.e.Now() + delay
	slot := uint32(len(d.posts))
	if err := d.e.Post(t, label, d.owners[owner], slot); err != nil {
		d.t.Fatal(err)
	}
	d.refSeq++
	ev := refEvent{time: t, seq: d.refSeq, owner: owner, label: label}
	d.posts = append(d.posts, ev)
	d.ref.push(ev)
}

// step fires one event on both sides and requires the same event, and the
// engine's ledger to hold.
func (d *diffRun) step() bool {
	ok := d.e.Step()
	if ok != (len(d.ref) > 0) {
		d.t.Fatalf("step %d: engine fired %v with %d reference events pending", d.steps, ok, len(d.ref))
	}
	if !ok {
		return false
	}
	d.steps++
	want, got := d.ref.pop(), d.posts[d.fired]
	if got.owner != d.firedBy {
		d.t.Fatalf("step %d: slot %d fired on owner %d, posted on %d", d.steps, d.fired, d.firedBy, got.owner)
	}
	if got != want || d.e.Now() != want.time {
		d.t.Fatalf("step %d: engine fired %+v at %v, reference %+v", d.steps, got, d.e.Now(), want)
	}
	if d.e.Seq() != d.e.Fired()+uint64(d.e.Pending()) || d.e.Pending() != len(d.ref) {
		d.t.Fatalf("step %d: seq %d, fired %d, pending %d; reference pending %d",
			d.steps, d.e.Seq(), d.e.Fired(), d.e.Pending(), len(d.ref))
	}
	return true
}

// pending is the reference's pending set in seq order.
func (d *diffRun) pending() []refEvent {
	out := slices.Clone(d.ref)
	slices.SortFunc(out, func(a, b refEvent) int { return cmp.Compare(a.seq, b.seq) })
	return out
}

// checkPending requires PendingEvents to list the reference's pending set,
// in seq order, each under the slot it was posted with.
func (d *diffRun) checkPending(pend []PendingEvent) {
	want := d.pending()
	if len(pend) != len(want) {
		d.t.Fatalf("step %d: %d events pending, reference %d", d.steps, len(pend), len(want))
	}
	for i, pe := range pend {
		got := d.posts[pe.Slot]
		if got != want[i] || pe.Seq != got.seq || pe.Time != got.time || pe.Label != got.label || pe.Owner != Owner(d.owners[got.owner]) {
			d.t.Fatalf("step %d: pending[%d] = %+v (posted %+v), reference %+v", d.steps, i, pe, got, want[i])
		}
	}
}

// restore moves the run onto a fresh engine and fresh owners through
// PendingEvents and Restore, handing the events over shuffled.
func (d *diffRun) restore() {
	pend := d.e.PendingEvents()
	d.checkPending(pend)
	owners := d.newOwners(len(d.owners))
	for i := range pend {
		pend[i].Owner = owners[d.posts[pend[i].Slot].owner]
	}
	d.rng.Shuffle(len(pend), func(i, j int) { pend[i], pend[j] = pend[j], pend[i] })
	e := New()
	if err := e.Restore(d.e.Now(), d.e.Seq(), d.e.Fired(), pend); err != nil {
		d.t.Fatal(err)
	}
	d.e, d.owners = e, owners
	d.checkPending(e.PendingEvents())
}

// TestLanesMatchHeapOnly is the lanes' differential test: seeded random
// posts fire through Engine and through a heap-only reference, and the two
// fire the same (seq, time, label, owner) sequence. The posts mix
//   - a fixed-delay stream per owner ("deadline"), which lives in lanes;
//   - delays on a coarse grid, so events tie at one instant across lanes
//     and across owners, and come out of order on one (owner, label);
//   - zero delays, which tie with the event firing;
//   - a label built at run time, whose lane must be found by value;
//   - drain phases, in which lanes empty and then refill.
//
// Mid-run the pending set is checked against the reference's and restored
// into a fresh engine, which the run then continues on.
func TestLanesMatchHeapOnly(t *testing.T) {
	labels := []string{"deadline", "arrival", "service", ""}
	for seed := int64(1); seed <= 6; seed++ {
		d := newDiffRun(t, seed, 3)
		burst := func() {
			for i := 0; i < 40; i++ {
				d.post(d.rng.Intn(3), labels[d.rng.Intn(len(labels))], float64(d.rng.Intn(8))*0.25)
			}
		}
		burst()
		for d.steps < 30000 {
			if !d.step() {
				burst()
				continue
			}
			n := d.rng.Intn(3) // one post per fired event on average
			if (d.steps/500)%4 == 3 && d.rng.Intn(8) != 0 {
				n = 0 // drain phase
			}
			for i := 0; i < n; i++ {
				o := d.rng.Intn(3)
				switch r := d.rng.Intn(10); {
				case r < 4:
					d.post(o, "deadline", 5)
				case r < 7:
					d.post(o, labels[1+d.rng.Intn(2)], float64(d.rng.Intn(8))*0.25)
				case r < 8:
					d.post(o, "", 0)
				default:
					d.post(o, string([]byte{'r', 't'}), float64(d.rng.Intn(4))*0.5)
				}
			}
			if d.steps%9973 == 0 {
				d.restore()
			}
		}
		for d.step() {
		}
		if d.e.Pending() != 0 || d.e.laned != 0 {
			t.Fatalf("seed %d: drained engine holds %d pending, %d in lanes", seed, d.e.Pending(), d.e.laned)
		}
		// One lane per (owner, label), the run-time label included.
		if n := len(d.e.lanes); n > 3*5 {
			t.Fatalf("seed %d: %d lanes open for 3 owners and 5 labels", seed, n)
		}
	}
}

// TestLaneCountsReachObservers: while lanes hold events, the watch and a
// watchdog trip report Pending(), not the heap's length.
func TestLaneCountsReachObservers(t *testing.T) {
	e, o := New(), &fnOwner{}
	w := NewWatch()
	e.SetWatch(w)
	for i := 0; i < 100; i++ {
		o.at(e, 10+float64(i), "deadline", nop) // one lane: one heap entry
	}
	var spin func(*Engine)
	spin = func(en *Engine) { o.after(en, 0, "spin", spin) }
	o.at(e, 1, "spin", spin)
	err := e.RunGuarded(50)
	var serr *StallError
	if !errors.As(err, &serr) {
		t.Fatalf("RunGuarded returned %v, want a stall", err)
	}
	if e.laned == 0 || e.Pending() != 101 {
		t.Fatalf("pending %d with %d in lanes; want 101, most in lanes", e.Pending(), e.laned)
	}
	if serr.Pending != e.Pending() {
		t.Fatalf("stall reports %d pending, engine %d", serr.Pending, e.Pending())
	}
	if snap := w.Snapshot(); snap.Pending != uint64(e.Pending()) || snap.Scheduled != snap.Fired+snap.Pending {
		t.Fatalf("watch reports %d pending (scheduled %d, fired %d), engine %d", snap.Pending, snap.Scheduled, snap.Fired, e.Pending())
	}
}

// TestLanePostDoesNotAllocate: once a lane has grown to its depth, a post
// into it and the step that fires its head allocate nothing, and the
// buffer of a lane that never drains stays within a small multiple of its
// depth: it grows only while more than half of it waits.
func TestLanePostDoesNotAllocate(t *testing.T) {
	e, o := New(), &fnOwner{}
	const depth = 300
	for i := 0; i < depth; i++ {
		o.at(e, float64(i), "deadline", nop)
	}
	for i := 0; i < 4*depth; i++ { // grow the slab and the lane buffer
		o.after(e, depth, "deadline", nop)
		e.Step()
	}
	allocs := testing.AllocsPerRun(10*depth, func() {
		o.after(e, depth, "deadline", nop)
		e.Step()
	})
	if allocs != 0 {
		t.Fatalf("post and step on a deep lane allocated %v times, want 0", allocs)
	}
	if l := e.lanes[0]; len(e.queue) != 1 || cap(l.q) > 4*depth {
		t.Fatalf("heap holds %d events, lane buffer cap %d for depth %d", len(e.queue), cap(l.q), depth)
	}
}

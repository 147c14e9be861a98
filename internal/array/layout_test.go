package array

import (
	"testing"
	"unsafe"
)

// TestHotRecordSizes pins the sizes of the two values the request path
// copies most. Every scheduled event copies an eventRecord into the slab
// and out again, and every op is copied through its disk's queue into
// diskState.svc. At 64 bytes or more the compiler copies with
// runtime.duffcopy, which was the largest single cost of a plain AlwaysOn
// run when the record was 88 bytes and the op 96. Growing either past its
// bound brings that back: put a new kind's data in the union (eventRecord)
// or behind a pointer (op.tr) instead.
func TestHotRecordSizes(t *testing.T) {
	if n := unsafe.Sizeof(eventRecord{}); n > 40 {
		t.Errorf("eventRecord is %d bytes, want at most 40", n)
	}
	if n := unsafe.Sizeof(op{}); n > 64 {
		t.Errorf("op is %d bytes, want at most 64", n)
	}
}

// wireSamples holds one record of every event kind with each of its union
// fields set to a distinct nonzero value.
var wireSamples = map[evKind]eventRecord{
	evArrival:      {Kind: evArrival},
	evEpoch:        {Kind: evEpoch},
	evFaultTick:    {Kind: evFaultTick},
	evTransition:   diskEvent(evTransition, 1),
	evService:      serviceEvent(2, 1<<40+7),
	evIdleArm:      idleArmEvent(3, 12.5, 3.25),
	evIdleRearm:    idleRearmEvent(4, 6.75),
	evMigrateStart: migrateStartEvent(4079, 5, 1, 17.5),
	evRepair:       diskEvent(evRepair, 1),
	evRebuildNext:  rebuildNextEvent(2, 512.25),
	evScrub:        diskEvent(evScrub, 3),
	evCheckpoint:   {Kind: evCheckpoint},
}

// TestEventRecordWireRoundTrip takes a record of every kind through its
// wire form and back.
func TestEventRecordWireRoundTrip(t *testing.T) {
	for k := evKind(0); k < numEvKinds; k++ {
		rec, ok := wireSamples[k]
		if !ok {
			t.Fatalf("no wire sample for event kind %s", k)
		}
		se := rec.toSaved(42.5, 99)
		if se.Kind != k.String() || se.Time != 42.5 || se.Seq != 99 {
			t.Fatalf("%s: saved header %+v", k, se)
		}
		if back := recordFromSaved(&se); back != rec {
			t.Fatalf("%s: round trip gave %+v, want %+v", k, back, rec)
		}
	}
	// Spot-check the wire names DESIGN §10 documents.
	se := wireSamples[evMigrateStart].toSaved(0, 0)
	if se.FileID != 4079 || se.From != 5 || se.To != 1 || se.SizeMB != 17.5 || se.Disk != 0 {
		t.Fatalf("migrate-start wire fields %+v", se)
	}
	se = wireSamples[evIdleArm].toSaved(0, 0)
	if se.Disk != 3 || se.Deadline != 12.5 || se.Timeout != 3.25 {
		t.Fatalf("idle-arm wire fields %+v", se)
	}
}

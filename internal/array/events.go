package array

// Event reification: every event the simulator schedules is described by a
// typed eventRecord, and every op completion by a typed cont, instead of an
// anonymous closure. The records carry exactly the data the old closures
// captured, and the dispatch methods replicate the old closure bodies, so
// runtime behaviour is unchanged — but because records are plain data, a
// checkpoint can serialize the pending event queue and a resume can rebuild
// it, which is impossible with closures. Pending records live in the sim's
// slab; the engine's event carries only the slot and hands it back to
// sim.Fire. A policy's own background write (Context.EnqueueWrite) is a
// typed cont too: its completion calls the policy's WritePolicy hook.

import (
	"fmt"

	"repro/internal/des"
	"repro/internal/diskmodel"
)

// evKind is an event record's kind.
type evKind uint8

const (
	evArrival evKind = iota
	evEpoch
	evFaultTick
	evTransition
	evService
	evIdleArm
	evIdleRearm
	evMigrateStart
	evRepair
	evRebuildNext
	evScrub
	evCheckpoint
	numEvKinds
)

// evKinds gives each kind its checkpoint wire name (savedEvent.Kind) and its
// tracer label. The labels are the strings the pre-reification closures
// used, so event traces are unchanged.
var evKinds = [numEvKinds]struct{ name, label string }{
	evArrival:      {"arrival", "arrival"},
	evEpoch:        {"epoch", "epoch"},
	evFaultTick:    {"fault-tick", "fault-tick"},
	evTransition:   {"transition", "transition"},
	evService:      {"service", "service"},
	evIdleArm:      {"idle-arm", "idle-timer"},
	evIdleRearm:    {"idle-rearm", "idle-timer"},
	evMigrateStart: {"migrate-start", "migrate-start"},
	evRepair:       {"repair", "repair"},
	evRebuildNext:  {"rebuild-next", "rebuild"},
	evScrub:        {"scrub", "scrub"},
	evCheckpoint:   {"checkpoint", "checkpoint"},
}

func (k evKind) String() string { return evKinds[k].name }

// parseEvKind maps a checkpoint wire name back to its kind, or to
// numEvKinds when no kind has that name.
func parseEvKind(name string) evKind {
	for k, ek := range evKinds {
		if ek.name == name {
			return evKind(k)
		}
	}
	return numEvKinds
}

// eventRecord is the serializable description of one scheduled event: a
// kind plus a union of per-kind fields, 40 bytes in all, so that scheduling
// and firing an event copies no more than that. Each kind reads the union
// as below; a cell gives the savedEvent wire field that the union field
// travels as in a checkpoint.
//
//	kind           Disk   To   N        X             Y
//	transition     disk
//	service        disk        gen
//	idle-arm       disk                 deadline      timeout
//	idle-rearm     disk                               timeout
//	migrate-start  from   to   file_id  size_mb
//	repair, scrub  disk
//	rebuild-next   disk                 remaining_mb
//
// Arrival, epoch, fault-tick and checkpoint events carry nothing. A service
// event's op is not here: it lives in its disk's diskState.svc (see kick).
// The constructors below write the table down for scheduling, and toSaved
// and recordFromSaved (checkpoint.go) for the wire.
type eventRecord struct {
	Kind evKind
	Disk int32
	To   int32
	N    uint64
	X    float64
	Y    float64
}

// diskEvent is a transition, repair or scrub event for disk d.
func diskEvent(k evKind, d int) eventRecord { return eventRecord{Kind: k, Disk: int32(d)} }

// serviceEvent ends disk d's service started under generation gen.
func serviceEvent(d int, gen uint64) eventRecord {
	return eventRecord{Kind: evService, Disk: int32(d), N: gen}
}

// idleArmEvent is disk d's idle timer, armed for deadline with timeout.
func idleArmEvent(d int, deadline, timeout float64) eventRecord {
	return eventRecord{Kind: evIdleArm, Disk: int32(d), X: deadline, Y: timeout}
}

// idleRearmEvent is disk d's idle timer, re-armed with timeout.
func idleRearmEvent(d int, timeout float64) eventRecord {
	return eventRecord{Kind: evIdleRearm, Disk: int32(d), Y: timeout}
}

// migrateStartEvent starts moving fileID (sizeMB) from disk from to disk to.
func migrateStartEvent(fileID, from, to int, sizeMB float64) eventRecord {
	return eventRecord{Kind: evMigrateStart, Disk: int32(from), To: int32(to), N: uint64(fileID), X: sizeMB}
}

// rebuildNextEvent issues disk d's next rebuild chunk, remainingMB to go.
func rebuildNextEvent(d int, remainingMB float64) eventRecord {
	return eventRecord{Kind: evRebuildNext, Disk: int32(d), X: remainingMB}
}

// Continuation kinds (op.done).
const (
	contMigrateRead  = "migrate-read"
	contMigrateWrite = "migrate-write"
	contRebuild      = "rebuild-chunk"
	contScrub        = "scrub-pass"
	contPolicyWrite  = "policy-write"
	contFleet        = "fleet-done"
)

// cont is the serializable continuation run when an op completes, replacing
// the old op.onDone closure.
type cont struct {
	kind        string
	fileID      int
	to          int
	disk        int
	sizeMB      float64
	nextIssue   float64
	remainingMB float64
	reqID       uint64 // contFleet: cluster request the op belongs to
	attempt     int    // contFleet: the request's attempt ordinal
}

// at schedules rec at absolute virtual time t. The record goes into the
// sim's slab and the engine carries only its slot, so scheduling an event
// allocates nothing in steady state.
//
//simlint:hotpath
func (s *sim) at(t float64, rec eventRecord) error {
	slot := s.recs.Put(rec)
	if err := s.eng.Post(t, evKinds[rec.Kind].label, s, slot); err != nil {
		s.recs.Take(slot)
		return err
	}
	return nil
}

// schedule is `at` with a delay relative to now, panicking on a negative
// delay, which is always a programming error in the model.
func (s *sim) schedule(delay float64, rec eventRecord) {
	if err := s.at(s.eng.Now()+delay, rec); err != nil {
		panic(err)
	}
}

// Fire is the sim's side of des.Owner: it runs the record posted with slot.
//
//simlint:hotpath
func (s *sim) Fire(e *des.Engine, slot uint32) {
	s.dispatch(s.recs.Take(slot), e)
}

// dispatch runs the handler body for one fired event record.
//
//simlint:hotpath
func (s *sim) dispatch(rec eventRecord, e *des.Engine) {
	switch rec.Kind {
	case evArrival:
		s.onArrival(e)
	case evEpoch:
		s.onEpoch(e)
	case evFaultTick:
		s.onFaultTick(e)
	case evTransition:
		s.onTransitionEnd(int(rec.Disk))
	case evService:
		s.onServiceEnd(int(rec.Disk), rec.N)
	case evIdleArm:
		s.onIdleTimer(int(rec.Disk), rec.X, rec.Y, false)
	case evIdleRearm:
		s.onIdleTimer(int(rec.Disk), 0, rec.Y, true)
	case evMigrateStart:
		s.startMigration(int(rec.N), int(rec.Disk), int(rec.To), rec.X)
	case evRepair:
		s.repairDisk(int(rec.Disk))
	case evRebuildNext:
		s.issueRebuild(int(rec.Disk), rec.X)
	case evScrub:
		s.onScrubTick(int(rec.Disk))
	case evCheckpoint:
		s.onCheckpointTick(e)
	default:
		s.fail(fmt.Errorf("array: unknown event kind %d", rec.Kind)) //simlint:allow hotalloc -- unreachable: every evKind has a case; a new kind without one fails the run once
	}
}

// onTransitionEnd completes a speed transition on disk d.
func (s *sim) onTransitionEnd(d int) {
	ds := s.disks[d]
	ds.disk.EndTransition(s.eng.Now())
	ds.temp.SetSpeed(s.eng.Now(), ds.disk.Speed())
	if s.trc != nil {
		s.onTransitionDone(d, s.eng.Now())
	}
	s.kick(d)
}

// onServiceEnd completes the in-service op on disk d.
func (s *sim) onServiceEnd(d int, gen uint64) {
	ds := s.disks[d]
	end := s.eng.Now()
	ds.disk.EndService(end)
	o := ds.svc
	ds.svc = op{}
	if ds.failed || ds.gen != gen {
		// The disk died mid-service (and was possibly even replaced
		// already): the op's work is void and the op is re-routed or lost.
		s.routeAroundFailure(d, o)
		if !ds.failed {
			s.kick(d)
		}
		return
	}
	s.complete(d, o, end)
	s.kick(d)
}

// onIdleTimer handles both idle-timer variants. rearm distinguishes them:
// the two compare the idle start against different references and must stay
// separate to preserve the exact floating-point comparisons of the original
// closures.
func (s *sim) onIdleTimer(d int, deadline, timeout float64, rearm bool) {
	ds := s.disks[d]
	ds.idleArmed = false
	now := s.eng.Now()
	// Still idle and has been since before the timer was armed?
	if ds.failed || ds.disk.State() != diskmodel.Idle || ds.queueLen() > 0 {
		return
	}
	stillCounting := false
	if rearm {
		stillCounting = now-ds.disk.IdleSince() < timeout
	} else {
		stillCounting = ds.disk.IdleSince() > deadline-timeout
	}
	if stillCounting {
		// Activity happened since arming; rearm relative to the most
		// recent idle start.
		remaining := ds.disk.IdleSince() + timeout - now
		if remaining > 0 {
			s.rearmIdleTimer(d, remaining)
			return
		}
	}
	ctx := s.ctx
	s.setHook(hookIdleTimeout)
	s.cfg.Policy.OnIdleTimeout(ctx, d)
	s.endHook()
	s.kick(d)
}

// startMigration enqueues the read leg of a file migration; the write leg
// and the placement flip follow as continuations.
func (s *sim) startMigration(fileID, from, to int, sizeMB float64) {
	s.enqueue(from, op{
		kind:   opBackground,
		fileID: fileID,
		sizeMB: sizeMB,
		mig:    true,
		done:   s.newCont(cont{kind: contMigrateRead, fileID: fileID, to: to, sizeMB: sizeMB}),
	})
}

// newCont returns a continuation holding v, reusing a released one when the
// free list has any. Every field is overwritten, so nothing of an earlier
// use (a stale sizeMB, say) can reach a checkpoint.
//
//simlint:hotpath
func (s *sim) newCont(v cont) *cont {
	var c *cont
	if n := len(s.freeConts); n > 0 {
		c = s.freeConts[n-1]
		s.freeConts = s.freeConts[:n-1]
	} else {
		c = new(cont) //simlint:allow hotalloc -- freelist growth
	}
	*c = v
	return c
}

// releaseCont returns a continuation that has run (or was dropped) to the
// free list. Nothing may reference c afterwards: its op has resolved.
func (s *sim) releaseCont(c *cont) {
	s.freeConts = append(s.freeConts, c)
}

// runCont executes an op's completion continuation at virtual time now and
// releases it; a fleet continuation is released by hostDone.
func (s *sim) runCont(c *cont, now float64) {
	switch c.kind {
	case contMigrateRead:
		s.enqueue(c.to, op{
			kind:   opBackground,
			fileID: c.fileID,
			sizeMB: c.sizeMB,
			mig:    true,
			done:   s.newCont(cont{kind: contMigrateWrite, fileID: c.fileID, to: c.to}),
		})
	case contMigrateWrite:
		s.place[c.fileID] = c.to
		delete(s.migrating, c.fileID)
		if s.trc != nil {
			s.resolveMigration(c.fileID, now)
		}
	case contRebuild:
		f := s.flt
		f.rebuildMB += c.sizeMB
		sp := s.disks[c.disk].disk.Speed()
		f.rebuildEnergyJ += s.cfg.DiskParams.ActivePower(sp) * s.cfg.DiskParams.ServiceTime(c.sizeMB, sp)
		delay := c.nextIssue - now
		if delay < 0 {
			delay = 0
		}
		s.schedule(delay, rebuildNextEvent(c.disk, c.remainingMB-c.sizeMB))
	case contScrub:
		s.completeScrub(c)
	case contPolicyWrite:
		s.writer.OnWriteDone(s.ctx, c.fileID, c.disk)
	case contFleet:
		s.hostDone(c, now, false)
		return
	default:
		s.fail(fmt.Errorf("array: unknown continuation kind %q", c.kind))
		return
	}
	s.releaseCont(c)
}

// hostDone reports a cluster-submitted request's resolution to the host and
// releases its continuation. Every contFleet path ends here: completion
// (runCont), a lost request (loseOp) and a lost stripe.
func (s *sim) hostDone(c *cont, now float64, lost bool) {
	if s.host == nil {
		s.fail(fmt.Errorf("array: fleet continuation without a host"))
		return
	}
	s.host.RequestDone(c.reqID, c.attempt, now, lost)
	s.releaseCont(c)
}

// dropCont releases a continuation whose op was discarded without
// completing (a background transfer on a failed disk), with its bookkeeping.
// A dropped scrub pass must still reschedule the disk's scrub cycle — the
// pass found no readable media, but the replacement drive will need
// scrubbing again. A dropped policy write never reaches the policy: its
// OnDiskFailure hook has already seen the failure that voided it.
func (s *sim) dropCont(c *cont) {
	if c == nil {
		return
	}
	if c.kind == contScrub && s.scrubChainLives() {
		s.schedule(s.flt.inj.SampleScrubIntervalSeconds(), diskEvent(evScrub, c.disk))
	}
	s.releaseCont(c)
}

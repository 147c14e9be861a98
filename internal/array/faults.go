package array

// Fault-injection lifecycle: this file wires internal/faults into the event
// loop. A periodic tick integrates each disk's Weibull hazard (scaled by its
// live PRESS AFR, so the predicted failure rates become observed events); a
// crossing fails the disk, which drains its queues around the failure,
// consumes a hot spare (or records a data-loss event when the pool is empty),
// and schedules a repair. The repaired replacement then rebuilds its resident
// data as paced background traffic that competes with foreground requests.

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/des"
	"repro/internal/faults"
	"repro/internal/reliability"
)

// rebuildChunkMB is the granularity of rebuild background transfers. Chunks
// are issued one at a time at the configured rebuild rate, so rebuild
// bandwidth competes with — but cannot starve — foreground service.
const rebuildChunkMB = 64.0

// FailureEvent is one observed disk failure.
type FailureEvent struct {
	// Disk is the failed disk's index.
	Disk int
	// Time is the failure time in virtual seconds.
	Time float64
	// SpareUsed reports whether a hot spare absorbed the failure.
	SpareUsed bool
	// DataLoss reports whether the failure found the spare pool empty.
	DataLoss bool
}

// faultState is the simulator-side bookkeeping for fault injection. It exists
// only when Config.Faults is enabled; every fault-path branch in the
// simulator is gated on it so a disabled run is bit-identical to one that
// predates the subsystem.
type faultState struct {
	cfg faults.Config
	inj *faults.Injector

	spares     int // hot spares remaining
	sparesUsed int

	failures     int
	repairs      int
	dataLoss     int
	firstLoss    float64 // virtual seconds of first data-loss event; -1 = none
	lostRequests int
	degraded     int
	reassigned   int

	rebuildMB      float64
	rebuildEnergyJ float64

	// Latent-sector-error and scrub outcomes (zero when LSE modeling off).
	lseCleared int
	scrubs     int
	scrubMB    float64

	// raid is the redundancy-group overlay; nil when Config.RAID is off.
	raid *raidState

	// inFailover is true only while a policy's OnDiskFailure hook runs;
	// Context.ReassignFile is valid only then.
	inFailover bool

	log []FailureEvent
}

// installFaults sets up the injector and schedules the first hazard tick.
// It is a no-op when fault injection is disabled.
func (s *sim) installFaults() error {
	if s.cfg.Faults == nil || !s.cfg.Faults.Enabled {
		return nil
	}
	cfg := s.cfg.Faults.Normalized()
	inj, err := faults.NewInjector(cfg, len(s.disks))
	if err != nil {
		return err
	}
	s.flt = &faultState{cfg: cfg, inj: inj, spares: s.cfg.Spares, firstLoss: -1}
	if s.cfg.RAID.Enabled() {
		raid, err := newRAIDState(s.cfg.RAID, len(s.disks))
		if err != nil {
			return err
		}
		s.flt.raid = raid
	}
	s.schedule(cfg.CheckIntervalSeconds, eventRecord{Kind: evFaultTick})
	// Each disk runs its own scrub cycle; the first pass of every disk is
	// drawn at install time, in disk order, so the draw sequence is fixed.
	if cfg.ScrubActive() {
		for d := range s.disks {
			s.schedule(inj.SampleScrubIntervalSeconds(), diskEvent(evScrub, d))
		}
	}
	return nil
}

// onFaultTick integrates the hazard window that just elapsed and fires any
// failures it produced.
func (s *sim) onFaultTick(e *des.Engine) {
	if s.failure != nil {
		return
	}
	var scale func(int) float64
	if s.flt.cfg.PRESSScaling {
		scale = s.hazardScale
	}
	for _, f := range s.flt.inj.Advance(e.Now(), scale) {
		s.failDisk(f.Disk, f.Time)
		if s.failure != nil {
			return
		}
	}
	// Latent sector errors accumulate under the same operating-condition
	// scaling as whole-disk hazard. Failures for this window are applied
	// first, so a disk that died mid-window accumulates no further errors.
	for _, ev := range s.flt.inj.AdvanceLSE(e.Now(), scale) {
		s.raidOnLSE(ev.Disk, ev.Time)
	}
	// Keep ticking only while the simulation still has work; otherwise the
	// tick chain would hold the event loop open forever.
	if s.workRemains() {
		s.schedule(s.flt.cfg.CheckIntervalSeconds, eventRecord{Kind: evFaultTick})
	}
}

// scrubChainLives reports whether a scrub chain should stay scheduled. The
// chain must NOT gate on workRemains(): scrub passes themselves keep disks
// busy, so under accelerated timescales the chains of different disks would
// sustain each other's busyness and hold the event loop open forever. The
// chain instead dies with the trace — once the last arrival has been
// delivered no further passes start and the in-flight work drains normally.
func (s *sim) scrubChainLives() bool {
	return s.arrivalsRemain()
}

// onScrubTick starts disk d's next scrub pass: a background read of the
// configured volume, queued behind foreground traffic on the disk itself.
// The *next* pass is drawn only when this one's I/O completes, so a disk
// that an energy policy keeps spun down — or that is saturated — scrubs
// late, and its latent errors survive longer. A pass that lands on a failed
// disk is skipped and the cycle re-drawn: the replacement drive arrives with
// clean media.
func (s *sim) onScrubTick(d int) {
	if s.failure != nil {
		return
	}
	if !s.scrubChainLives() {
		return
	}
	f := s.flt
	if s.disks[d].failed {
		s.schedule(f.inj.SampleScrubIntervalSeconds(), diskEvent(evScrub, d))
		return
	}
	size := f.cfg.ScrubPassMB()
	s.enqueue(d, op{
		kind:   opBackground,
		sizeMB: size,
		done:   s.newCont(cont{kind: contScrub, disk: d, sizeMB: size}),
	})
}

// completeScrub finishes disk d's scrub pass: every pending latent error on
// the disk is detected and rewritten from redundancy, and the next pass is
// scheduled.
func (s *sim) completeScrub(c *cont) {
	f := s.flt
	f.lseCleared += f.inj.MarkScrubbed(c.disk)
	f.scrubs++
	f.scrubMB += c.sizeMB
	if s.scrubChainLives() {
		s.schedule(f.inj.SampleScrubIntervalSeconds(), diskEvent(evScrub, c.disk))
	}
}

// hazardScale returns disk d's current PRESS AFR relative to the reference
// AFR — the multiplier that couples predicted reliability to observed
// failures. A disk PRESS rates at twice the reference AFR accumulates hazard
// twice as fast.
func (s *sim) hazardScale(d int) float64 {
	ds := s.disks[d]
	now := s.eng.Now()
	afr, err := s.cfg.Press.DiskAFR(reliability.Factors{
		TempC:             ds.temp.MeanTemp(now),
		Utilization:       ds.disk.Utilization(now),
		TransitionsPerDay: ds.disk.TransitionRatePerDay(now),
	})
	if err != nil || afr <= 0 || math.IsNaN(afr) {
		return 1
	}
	return afr / s.flt.cfg.ReferenceAFRPercent
}

// failDisk takes disk d out of service at virtual time `at`: it consumes a
// spare (or records data loss), gives the policy a chance to re-route
// placements, drains the dead disk's queues around the failure, and schedules
// the repair.
func (s *sim) failDisk(d int, at float64) {
	ds := s.disks[d]
	if ds.failed {
		return
	}
	f := s.flt
	f.failures++
	ev := FailureEvent{Disk: d, Time: at}
	if f.spares > 0 {
		f.spares--
		f.sparesUsed++
		ev.SpareUsed = true
		ds.spareAssigned = true
	} else {
		f.dataLoss++
		ev.DataLoss = true
		if f.firstLoss < 0 {
			f.firstLoss = at
		}
	}
	f.log = append(f.log, ev)
	ds.failed = true
	ds.rebuilding = false
	ds.rebuildMBps = 0
	ds.gen++ // voids the in-flight service completion, if any

	// RAID loss rules run with the failure applied but before failover
	// re-routing: the combination check reads raw member availability.
	s.raidOnDiskFailure(d, at)

	// Policy failover hook first, so re-assigned placements are visible to
	// the queue drain below.
	if fp, ok := s.cfg.Policy.(FailureAwarePolicy); ok {
		f.inFailover = true
		s.setHook(hookDiskFailure)
		fp.OnDiskFailure(s.ctx, d)
		s.endHook()
		f.inFailover = false
	}
	// A rebuild that was streaming on this disk died with it.
	if s.trc != nil {
		s.resolveRebuild(d, at, false)
	}

	// Drain queues via snapshots: routeAroundFailure may push an op back
	// onto this very disk (the wait-for-spare path), so popping in place
	// would never terminate.
	var fg, bg []op
	for ds.fg.len() > 0 {
		fg = append(fg, ds.fg.pop())
	}
	for ds.bg.len() > 0 {
		bg = append(bg, ds.bg.pop())
	}
	for _, o := range fg {
		s.routeAroundFailure(d, o)
	}
	for _, o := range bg {
		s.dropBackground(o)
	}

	s.schedule(f.inj.SampleRepairSeconds(), diskEvent(evRepair, d))
}

// routeAroundFailure re-disposes an op whose disk d is (or just went) down:
// deliver it degraded via a live placement, park it for the spare
// replacement, or count it lost.
func (s *sim) routeAroundFailure(d int, o op) {
	if o.kind == opBackground {
		s.dropBackground(o)
		return
	}
	f := s.flt
	if p, ok := s.place[o.fileID]; ok && !s.disks[p].failed {
		// A live copy exists — the policy re-assigned the file, a replica
		// holds it, or the original disk is already back up. Deliver
		// degraded.
		f.degraded++
		o.rerouted = true
		s.enqueue(p, o)
		return
	}
	if s.disks[d].spareAssigned {
		// A hot spare covers this outage: the op waits out the repair on
		// the dead disk's queue and is served by the replacement.
		f.degraded++
		o.rerouted = true
		if s.trc != nil && o.tr == nil {
			// A new arrival lands here straight from enqueue, before
			// noteEnqueue stamped it; kick and attribution need stamps on
			// every queued op. Zero stamps are what an unstamped op
			// always carried.
			o.tr = s.newStamps()
		}
		s.disks[d].fg.push(o)
		s.checkQueue(d)
		return
	}
	s.releaseStamps(o.tr)
	s.loseOp(o)
}

// loseOp records a user request (or striped chunk) whose data is gone. A
// fleet continuation is reported lost immediately so the cluster router can
// fail the attempt over to another replica without waiting for a timeout.
func (s *sim) loseOp(o op) {
	switch o.kind {
	case opUser:
		s.flt.lostRequests++
		if o.done != nil && o.done.kind == contFleet {
			s.hostDone(o.done, s.eng.Now(), true)
		}
	case opChunk:
		o.stripe.lost = true
		o.stripe.remaining--
		if o.stripe.remaining == 0 {
			s.flt.lostRequests++
			if o.stripe.done != nil {
				s.hostDone(o.stripe.done, s.eng.Now(), true)
			}
		}
	}
}

// dropBackground discards a background transfer queued on a failed disk,
// releasing any migration bookkeeping so the file can move again later and
// any continuation accounting (an opaque policy callback that will never
// run must stop blocking checkpoints).
func (s *sim) dropBackground(o op) {
	s.releaseStamps(o.tr)
	if o.mig {
		delete(s.migrating, o.fileID)
		if s.trc != nil {
			s.dropMigration(o.fileID)
		}
	}
	s.dropCont(o.done)
}

// repairDisk brings a replacement for disk d into service: the injector
// restarts its hazard clock from age zero, the policy is notified, and the
// replacement rebuilds its resident data as paced background traffic.
func (s *sim) repairDisk(d int) {
	if s.failure != nil {
		return
	}
	ds := s.disks[d]
	if !ds.failed {
		return
	}
	now := s.eng.Now()
	f := s.flt
	ds.failed = false
	ds.spareAssigned = false
	f.repairs++
	f.inj.MarkRepaired(d, now)

	if fp, ok := s.cfg.Policy.(FailureAwarePolicy); ok {
		s.setHook(hookDiskRepair)
		fp.OnDiskRepair(s.ctx, d)
		s.endHook()
	}

	// Rebuild everything placed on the replacement. File IDs are walked in
	// sorted order so the float summation — and with it the whole run — is
	// deterministic (map iteration order is not).
	ids := make([]int, 0, 16)
	for id, p := range s.place {
		if p == d {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	var totalMB float64
	for _, id := range ids {
		totalMB += s.files[id].SizeMB
	}
	if totalMB > 0 {
		if f.cfg.RebuildTime != nil {
			// Weibull-distributed rebuild: draw the total duration and pace
			// this disk's chunks to finish in it. The draw happens only when
			// there is data to rebuild, keeping the RNG stream identical for
			// empty replacements.
			if dur := f.inj.SampleRebuildSeconds(); dur > 0 {
				ds.rebuildMBps = totalMB / dur
			}
		}
		if ds.rebuildMBps > 0 || s.cfg.RebuildMBps > 0 {
			ds.rebuilding = true
			if s.trc != nil {
				rate := ds.rebuildMBps
				if rate <= 0 {
					rate = s.cfg.RebuildMBps
				}
				s.recordRebuildPace(d, totalMB, rate, now)
			}
			s.issueRebuild(d, totalMB)
		}
	}
	s.kick(d)
}

// issueRebuild streams the next rebuild chunk onto disk d's background
// queue. Chunks are paced so the long-run rebuild rate approximates
// Config.RebuildMBps: the next chunk is issued at the later of this chunk's
// completion and its nominal pacing slot.
func (s *sim) issueRebuild(d int, remainingMB float64) {
	ds := s.disks[d]
	if ds.failed || remainingMB <= 0 {
		if s.trc != nil && !ds.failed {
			s.resolveRebuild(d, s.eng.Now(), true)
		}
		ds.rebuilding = false
		ds.rebuildMBps = 0
		return
	}
	rate := ds.rebuildMBps
	if rate <= 0 {
		rate = s.cfg.RebuildMBps
	}
	size := math.Min(rebuildChunkMB, remainingMB)
	nextIssue := s.eng.Now() + size/rate
	s.enqueue(d, op{
		kind:   opBackground,
		sizeMB: size,
		done: s.newCont(cont{
			kind:        contRebuild,
			disk:        d,
			sizeMB:      size,
			nextIssue:   nextIssue,
			remainingMB: remainingMB,
		}),
	})
}

// --- Context surface for failure-aware policies ---

// DiskFailed reports whether disk d is currently down.
func (c *Context) DiskFailed(d int) bool { return c.s.disks[d].failed }

// DiskRebuilding reports whether disk d's replacement is still rebuilding.
func (c *Context) DiskRebuilding(d int) bool { return c.s.disks[d].rebuilding }

// DiskCovered reports whether a hot spare is absorbing disk d's current
// outage: queued and arriving requests wait for the replacement instead of
// being lost. Meaningful only while d is failed.
func (c *Context) DiskCovered(d int) bool { return c.s.disks[d].spareAssigned }

// RAIDGroup returns the member disk indices of disk d's redundancy group
// (including d itself), or nil when no RAID organization is configured.
// Failover hooks use it to prefer keeping re-assigned placements inside the
// stripe/replica group that can actually reconstruct the data.
func (c *Context) RAIDGroup(d int) []int {
	if c.s.flt == nil || c.s.flt.raid == nil {
		return nil
	}
	r := c.s.flt.raid
	return append([]int(nil), r.groups[r.groupOf[d]]...)
}

// SparesLeft returns the number of hot spares remaining in the pool.
func (c *Context) SparesLeft() int {
	if c.s.flt == nil {
		return c.s.cfg.Spares
	}
	return c.s.flt.spares
}

// FilesOn returns the IDs of files currently placed on disk d, sorted.
func (c *Context) FilesOn(d int) []int {
	var ids []int
	for id, p := range c.s.place {
		if p == d {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	return ids
}

// ReassignFile moves fileID's placement to a live disk without modeling a
// transfer. It is valid only inside OnDiskFailure: the data's home just
// died, so there is nothing left to copy — the policy is declaring where the
// surviving copy (replica, parity reconstruction, cache) lives. Outside
// failover it is rejected, exactly like a late SetPlacement.
func (c *Context) ReassignFile(fileID, to int) error {
	s := c.s
	if s.flt == nil || !s.flt.inFailover {
		return errors.New("array: ReassignFile outside OnDiskFailure")
	}
	if to < 0 || to >= len(s.disks) {
		return fmt.Errorf("array: reassign target disk %d out of range", to)
	}
	if s.disks[to].failed {
		return fmt.Errorf("array: reassign target disk %d is failed", to)
	}
	if _, ok := s.files[fileID]; !ok {
		return fmt.Errorf("array: reassign of unknown file %d", fileID)
	}
	if s.trc != nil {
		from := -1
		if p, ok := s.place[fileID]; ok {
			from = p
		}
		if !s.recordReassign(fileID, from, to, c.Now()) {
			// Replay override: the re-home never happens; the file stays
			// where it was (typically on the failed disk, so its requests
			// wait for the spare or are lost).
			return nil
		}
	}
	s.place[fileID] = to
	s.flt.reassigned++
	return nil
}

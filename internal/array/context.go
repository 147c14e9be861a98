package array

import (
	"fmt"

	"repro/internal/diskmodel"
	"repro/internal/workload"
)

// Context is the policy's window into the running simulation. A Context is
// only valid for the duration of the hook call it was passed to.
type Context struct {
	s *sim
}

// Now returns the current virtual time in seconds.
func (c *Context) Now() float64 { return c.s.eng.Now() }

// NumDisks returns the array size.
func (c *Context) NumDisks() int { return len(c.s.disks) }

// Files returns the workload's file set (shared; do not mutate).
func (c *Context) Files() workload.FileSet { return c.s.cfg.Trace.Files }

// File returns the file with the given id.
func (c *Context) File(id int) (workload.File, bool) {
	f, ok := c.s.files[id]
	return f, ok
}

// Placement returns the disk currently holding fileID (-1 if unplaced).
func (c *Context) Placement(fileID int) int {
	if d, ok := c.s.place[fileID]; ok {
		return d
	}
	return -1
}

// SetPlacement assigns a file to a disk without modeling a transfer. It is
// intended for Init-time layout; using it later teleports data and is
// rejected to keep migrations honest.
func (c *Context) SetPlacement(fileID, disk int) error {
	if c.Now() != 0 {
		return fmt.Errorf("array: SetPlacement after start (t=%v); use Migrate", c.Now())
	}
	if disk < 0 || disk >= len(c.s.disks) {
		return fmt.Errorf("array: placement disk %d out of range", disk)
	}
	if _, ok := c.s.files[fileID]; !ok {
		return fmt.Errorf("array: placement of unknown file %d", fileID)
	}
	c.s.place[fileID] = disk
	return nil
}

// DiskParams returns the drive parameter set shared by all disks.
func (c *Context) DiskParams() diskmodel.Params { return c.s.cfg.DiskParams }

// DiskSpeed returns the disk's current spindle speed.
func (c *Context) DiskSpeed(d int) diskmodel.Speed { return c.s.disks[d].disk.Speed() }

// DiskState returns the disk's activity state.
func (c *Context) DiskState(d int) diskmodel.State { return c.s.disks[d].disk.State() }

// DiskQueueLen returns the number of queued (not yet started) user
// requests — the demand signal policies use for spin-up decisions.
// Background transfers are excluded; see DiskBacklog.
func (c *Context) DiskQueueLen(d int) int { return c.s.disks[d].fg.len() }

// DiskBacklog returns all queued operations, including background
// transfers.
func (c *Context) DiskBacklog(d int) int { return c.s.disks[d].queueLen() }

// DiskTransitions returns the number of speed transitions disk d has made.
func (c *Context) DiskTransitions(d int) int { return c.s.disks[d].disk.Transitions() }

// DiskUtilization returns the disk's lifetime utilization so far.
func (c *Context) DiskUtilization(d int) float64 {
	return c.s.disks[d].disk.Utilization(c.Now())
}

// PendingSpeed reports the outstanding transition request, if any.
func (c *Context) PendingSpeed(d int) (diskmodel.Speed, bool) {
	if p := c.s.disks[d].pending; p != nil {
		return *p, true
	}
	return 0, false
}

// RequestTransition asks the array to move disk d to the target speed as
// soon as the disk is free. Before the simulation starts (Init) this sets
// the initial speed for free. A later request overwrites an earlier pending
// one; requesting the current speed clears any pending request.
func (c *Context) RequestTransition(d int, to diskmodel.Speed) {
	ds := c.s.disks[d]
	t := to
	ds.pending = &t
	if trc := c.s.trc; trc != nil {
		// Capture the cause now: the transition may only begin much later
		// (when the disk next goes idle), long after the hook returned.
		trc.pendingCause[d] = trc.takeCause()
	}
	if c.Now() > 0 || c.s.eng.Fired() > 0 {
		c.s.kick(d)
	}
}

// SetDecisionCause declares the reason for the policy's next traced action
// (transition request, migration, re-home): "idle-threshold", "heat",
// "afr-signal", and the like. The cause is consumed by the next decision
// and cleared when the current hook returns; without one, decisions are
// attributed to the hook they were taken in. A no-op when decision tracing
// is off.
func (c *Context) SetDecisionCause(cause string) {
	if c.s.trc != nil {
		c.s.trc.cause = cause
	}
}

// SetIdleTimeout configures disk d's idleness threshold H in seconds; the
// policy's OnIdleTimeout fires after the disk has been continuously idle
// that long. Zero disables the timer.
func (c *Context) SetIdleTimeout(d int, seconds float64) {
	if seconds < 0 {
		seconds = 0
	}
	c.s.disks[d].idleTimeout = seconds
	if seconds > 0 {
		c.s.armIdleTimer(d)
	}
}

// IdleTimeout returns disk d's current idleness threshold.
func (c *Context) IdleTimeout(d int) float64 { return c.s.disks[d].idleTimeout }

// AccessCount returns the number of requests for fileID observed during the
// current epoch (the paper's File Popularity Table).
func (c *Context) AccessCount(fileID int) int { return c.s.counts[fileID] }

// AccessCounts returns a copy of the current epoch's popularity table.
func (c *Context) AccessCounts() map[int]int {
	out := make(map[int]int, len(c.s.counts))
	for k, v := range c.s.counts {
		out[k] = v
	}
	return out
}

// Migrate moves fileID to disk `to` as a background transfer: a read
// occupies the source disk, then a write occupies the target, and only then
// does placement flip (requests meanwhile keep hitting the source). Returns
// false if the file is already on `to`, unknown, or mid-migration.
//
// Migration starts issued within one epoch are staggered across the epoch
// rather than dumped at the boundary instant: a real redistribution daemon
// trickles transfers, and a synchronous burst would serialize hundreds of
// non-preemptible transfers in front of user requests.
func (c *Context) Migrate(fileID, to int) bool {
	s := c.s
	if to < 0 || to >= len(s.disks) {
		return false
	}
	f, ok := s.files[fileID]
	if !ok {
		return false
	}
	from, ok := s.place[fileID]
	if !ok || from == to || s.migrating[fileID] {
		return false
	}
	if s.disks[from].failed || s.disks[to].failed {
		return false
	}
	if s.trc != nil && !s.recordMigrate(fileID, from, to, f.SizeMB, c.Now()) {
		// Replay override: this migration never happens.
		return false
	}
	s.migrating[fileID] = true
	s.migrations++
	s.met.migrations.Inc()
	delay := 0.0
	if s.cfg.EpochSeconds > 0 {
		const slotsPerEpoch = 400
		delay = float64(s.migsThisEpoch) * s.cfg.EpochSeconds / slotsPerEpoch
		s.migsThisEpoch++
	}
	if delay <= 0 {
		s.startMigration(fileID, from, to, f.SizeMB)
		return true
	}
	s.schedule(delay, migrateStartEvent(fileID, from, to, f.SizeMB))
	return true
}

// Migrating reports whether fileID has a migration in flight.
func (c *Context) Migrating(fileID int) bool { return c.s.migrating[fileID] }

// EnqueueWrite schedules a background write of sizeMB on disk d (MAID's
// cache-disk copy). onDone, if non-nil, runs at completion.
func (c *Context) EnqueueWrite(d int, sizeMB float64, onDone func()) error {
	if d < 0 || d >= len(c.s.disks) {
		return fmt.Errorf("array: background write to invalid disk %d", d)
	}
	if c.s.disks[d].failed {
		return fmt.Errorf("array: background write to failed disk %d", d)
	}
	if sizeMB < 0 {
		return fmt.Errorf("array: negative write size %v", sizeMB)
	}
	var done *cont
	if onDone != nil {
		// A policy callback is opaque to the checkpoint subsystem: it
		// cannot be serialized, so snapshot writes are skipped while one is
		// in flight (tracked by opaqueLive, released on run or drop).
		done = c.s.newCont(cont{kind: contOpaque, fn: func(float64) { onDone() }})
		c.s.opaqueLive++
	}
	c.s.enqueue(d, op{kind: opBackground, sizeMB: sizeMB, done: done})
	return nil
}

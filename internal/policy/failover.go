package policy

// Failure-aware behaviour for the shipped policies (array.FailureAwarePolicy).
//
// The division of labour with the array core: the core consumes spares,
// drains the dead disk's queues, and rebuilds the replacement; the hooks
// here encode each policy's *placement* reaction. The rule every hook
// follows: when a hot spare covers the outage the data will be restored in
// place, so placements stay put and only policy-private bookkeeping (caches,
// replicas) is cleaned up; when no spare is left the disk's contents are
// re-homed onto survivors with Context.ReassignFile — modelling the
// administrator restoring from the surviving copy or backup — so the
// workload keeps flowing in degraded mode instead of every request being
// lost.

import (
	"container/list"

	"repro/internal/array"
	"repro/internal/diskmodel"
)

// survivors returns the non-failed disks in [lo, hi).
func survivors(ctx *array.Context, lo, hi int) []int {
	var out []int
	for d := lo; d < hi; d++ {
		if !ctx.DiskFailed(d) {
			out = append(out, d)
		}
	}
	return out
}

// reassignAcross re-homes every file on dead disk d round-robin across
// targets. FilesOn is sorted, so the redistribution is deterministic.
func reassignAcross(ctx *array.Context, d int, targets []int) {
	if len(targets) == 0 {
		return
	}
	for i, id := range ctx.FilesOn(d) {
		// The only failure mode left is a target dying inside this very
		// loop, which cannot happen: failures are delivered one at a time.
		ctx.SetDecisionCause("failover-rehome")
		_ = ctx.ReassignFile(id, targets[i%len(targets)])
	}
}

// raidTargets narrows a failover target set to dead disk d's stripe/replica
// group when a RAID organization is configured: the group's surviving
// members are the disks that can actually reconstruct d's data from parity
// or replicas, so re-homed placements should land there first. With no RAID
// layer, or a group with no overlap with the policy's candidates, the
// policy's own targets stand.
func raidTargets(ctx *array.Context, d int, fallback []int) []int {
	group := ctx.RAIDGroup(d)
	if group == nil {
		return fallback
	}
	allowed := make(map[int]bool, len(group))
	for _, m := range group {
		allowed[m] = true
	}
	var out []int
	for _, t := range fallback {
		if allowed[t] {
			out = append(out, t)
		}
	}
	if len(out) > 0 {
		return out
	}
	// The policy's candidates all live outside the group (or the group has
	// no survivors among them): fall back to any surviving group member
	// before giving up on group locality entirely.
	for _, m := range group {
		if m != d && !ctx.DiskFailed(m) {
			out = append(out, m)
		}
	}
	if len(out) > 0 {
		return out
	}
	return fallback
}

// --- READ ---

// OnDiskFailure re-zones around a dead disk: with no spare covering the
// outage, the disk's files are re-homed round-robin across the surviving
// disks of the same zone (hot files stay on high-speed disks, cold files on
// low-speed ones), falling back to any survivor if the zone is wiped out.
func (r *READ) OnDiskFailure(ctx *array.Context, d int) {
	if ctx.DiskCovered(d) {
		return // replacement + rebuild restores the data in place
	}
	lo, hi := 0, r.hotCount
	if d >= r.hotCount {
		lo, hi = r.hotCount, ctx.NumDisks()
	}
	targets := survivors(ctx, lo, hi)
	if len(targets) == 0 {
		targets = survivors(ctx, 0, ctx.NumDisks())
	}
	reassignAcross(ctx, d, raidTargets(ctx, d, targets))
}

// OnDiskRepair restores the replacement to its zone's speed.
func (r *READ) OnDiskRepair(ctx *array.Context, d int) {
	if d < r.hotCount {
		ctx.RequestTransition(d, diskmodel.High)
	} else {
		ctx.RequestTransition(d, diskmodel.Low)
	}
}

var _ array.FailureAwarePolicy = (*READ)(nil)

// --- MAID ---

// OnDiskFailure drops the cache bookkeeping for a dead cache disk (its
// contents are copies — the primaries on the storage disks are intact, and
// later misses repopulate the surviving cache disks), or re-homes a dead
// storage disk's files across the surviving storage disks when no spare
// covers the outage.
func (m *MAID) OnDiskFailure(ctx *array.Context, d int) {
	if d < m.cacheDisks {
		var next *list.Element
		for el := m.lru.Front(); el != nil; el = next {
			next = el.Next()
			if e := el.Value.(cacheEntry); e.cacheDisk == d {
				delete(m.entries, e.fileID)
				m.lru.Remove(el)
			}
		}
		m.usedMB[d] = 0
		for id, cd := range m.copying {
			// In-flight admissions to the dead disk were dropped with its
			// queue; their OnWriteDone will never come.
			if cd == d {
				delete(m.copying, id)
			}
		}
		return
	}
	if ctx.DiskCovered(d) {
		return
	}
	reassignAcross(ctx, d, raidTargets(ctx, d, survivors(ctx, m.cacheDisks, ctx.NumDisks())))
}

// OnDiskRepair repowers the replacement: cache workhorses run at high speed
// permanently; a storage replacement spins high for its rebuild and sinks
// back to low speed at the next idle timeout.
func (m *MAID) OnDiskRepair(ctx *array.Context, d int) {
	ctx.RequestTransition(d, diskmodel.High)
}

var _ array.FailureAwarePolicy = (*MAID)(nil)

// --- PDC ---

// OnDiskFailure re-homes an uncovered dead disk's files across all
// survivors; the next epoch's re-pack restores the popularity concentration.
func (p *PDC) OnDiskFailure(ctx *array.Context, d int) {
	if ctx.DiskCovered(d) {
		return
	}
	reassignAcross(ctx, d, raidTargets(ctx, d, survivors(ctx, 0, ctx.NumDisks())))
}

// OnDiskRepair repowers the replacement for its rebuild; the idle timeout
// sinks it back down once the rebuild traffic stops.
func (p *PDC) OnDiskRepair(ctx *array.Context, d int) {
	ctx.RequestTransition(d, diskmodel.High)
}

var _ array.FailureAwarePolicy = (*PDC)(nil)

// --- READReplica ---

// OnDiskFailure first spends its replicas: a replica of a file whose primary
// just died IS a surviving copy, so the primary is re-homed onto the replica
// disk for free before the base READ hook re-homes whatever has no replica.
// Replicas that lived on the dead disk are dropped (their primaries are
// intact).
func (r *READReplica) OnDiskFailure(ctx *array.Context, d int) {
	for _, id := range sortedKeys(r.replica) {
		if r.replica[id] != d {
			continue
		}
		if f, ok := ctx.File(id); ok {
			r.replMB[d] -= f.SizeMB
		}
		delete(r.replica, id)
		r.replicasDropped++
	}
	r.replMB[d] = 0
	for id, rd := range r.copying {
		if rd == d {
			delete(r.copying, id)
		}
	}
	if !ctx.DiskCovered(d) {
		// Sorted order: ReassignFile mutates placement state, so the visit
		// order must not depend on map iteration.
		for _, id := range sortedKeys(r.replica) {
			if rd := r.replica[id]; ctx.Placement(id) == d && !ctx.DiskFailed(rd) {
				ctx.SetDecisionCause("replica-promote")
				_ = ctx.ReassignFile(id, rd)
			}
		}
	}
	r.READ.OnDiskFailure(ctx, d)
}

var _ array.FailureAwarePolicy = (*READReplica)(nil)

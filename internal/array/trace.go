package array

// Decision tracing and request attribution. traceState exists only when the
// run's telemetry recorder carries a DecisionLog (Config.Telemetry.Decisions
// non-nil); every instrumentation site below is gated on s.trc != nil, so a
// run without it pays one nil check per site, allocates nothing, and — since
// tracing only reads simulation state and appends to its own log — produces
// bit-identical results either way. The one deliberate exception is
// Config.DecisionOverrides, counterfactual replay's lever: an override
// changes which decisions execute, and is only ever set by replay runs.

import (
	"repro/internal/diskmodel"
	"repro/internal/telemetry"
)

// labelRequestSpan names the request-lifetime spans the engine's span
// tracer renders (arrival to completion, virtual time).
const labelRequestSpan = "request"

// Hook names used as fallback decision causes when a policy does not
// declare one via Context.SetDecisionCause.
const (
	hookArrival         = "arrival"
	hookRequestComplete = "request-complete"
	hookEpoch           = "epoch"
	hookIdleTimeout     = "idle-threshold"
	hookDiskFailure     = "disk-failure"
	hookDiskRepair      = "disk-repair"
	hookDomainShock     = "domain-shock"
)

// Override actions accepted in Config.DecisionOverrides.
const (
	// OverrideSkip suppresses the decision: a spin-down never starts its
	// transition, a migration or failover re-home never happens. Spin-up
	// and rebuild-pace decisions cannot be skipped (a parked disk with
	// queued work must eventually serve it).
	OverrideSkip = "skip"
)

// traceState is the per-run decision-tracing state.
type traceState struct {
	log       *telemetry.DecisionLog
	overrides map[uint64]string // decision seq -> override action (replay only)

	// cause is the explicit reason set by Context.SetDecisionCause for the
	// policy's next action; hook is the fallback naming the policy hook
	// currently running. Both live only within one hook invocation —
	// checkpoints are never written mid-hook, so neither is serialized.
	cause string
	hook  string

	// pendingCause[d] is the cause captured when disk d's transition was
	// requested, consumed when the transition actually begins (which may be
	// a later event if the disk was busy).
	pendingCause []string

	// Open decisions awaiting their observed outcome.
	parkSeq    []uint64       // per disk: spin-down decision, 0 = none
	parkT      []float64      // per disk: when the down transition completed
	wakeSeq    []uint64       // per disk: spin-up decision, 0 = none
	rebuildSeq []uint64       // per disk: rebuild-pace decision, 0 = none
	migSeq     map[int]uint64 // fileID -> migrate decision

	// Request attribution accumulators.
	attr      telemetry.Attribution // running totals
	lastSnap  telemetry.Attribution // totals at the last epoch boundary
	epochRows []telemetry.EpochAttribution
}

// newTraceState wires decision tracing for one run.
func newTraceState(cfg *Config) *traceState {
	return &traceState{
		log:          cfg.Telemetry.Decisions,
		overrides:    cfg.DecisionOverrides,
		pendingCause: make([]string, cfg.Disks),
		parkSeq:      make([]uint64, cfg.Disks),
		parkT:        make([]float64, cfg.Disks),
		wakeSeq:      make([]uint64, cfg.Disks),
		rebuildSeq:   make([]uint64, cfg.Disks),
		migSeq:       make(map[int]uint64),
	}
}

// takeCause returns the explicit cause if one was declared (consuming it),
// else the name of the hook currently running.
func (t *traceState) takeCause() string {
	if t.cause != "" {
		c := t.cause
		t.cause = ""
		return c
	}
	return t.hook
}

// setHook marks the policy hook about to run as the fallback cause; endHook
// clears it and any unconsumed explicit cause so neither leaks into
// decisions taken outside a hook.
func (s *sim) setHook(name string) {
	if s.trc != nil {
		s.trc.hook = name
	}
}

func (s *sim) endHook() {
	if s.trc != nil {
		s.trc.hook = ""
		s.trc.cause = ""
	}
}

// overrideFor returns the replay override for decision seq, marking the
// record when one applies.
func (t *traceState) overrideFor(seq uint64) string {
	act, ok := t.overrides[seq]
	if !ok {
		return ""
	}
	t.log.Resolve(seq, func(d *telemetry.Decision) { d.Overridden = act })
	return act
}

// recordSpinDown logs a spin-down decision for disk d and reports whether
// the transition should proceed (false under a skip override).
func (s *sim) recordSpinDown(d int, now float64) bool {
	t := s.trc
	p := &s.cfg.DiskParams
	seq := t.log.Append(telemetry.Decision{
		T:     now,
		Epoch: s.epochs,
		Kind:  telemetry.DecisionSpinDown,
		Cause: t.consumePendingCause(d),
		Disk:  d,
		// The park must save the idle-power delta long enough to amortize
		// the down+up transition round trip; the next request pays the
		// spin-up time.
		PredictedSaveW: p.IdlePower(diskmodel.High) - p.IdlePower(diskmodel.Low),
		PredictedJ:     p.TransitionEnergy(diskmodel.Low) + p.TransitionEnergy(diskmodel.High),
		PredictedWaitS: p.TransitionTime(diskmodel.High),
	})
	if t.overrideFor(seq) == OverrideSkip {
		return false
	}
	t.parkSeq[d] = seq
	return true
}

// recordSpinUp logs a spin-up decision for disk d. Spin-ups cannot be
// skipped: queued work must eventually be served.
func (s *sim) recordSpinUp(d int, now float64) {
	t := s.trc
	seq := t.log.Append(telemetry.Decision{
		T:              now,
		Epoch:          s.epochs,
		Kind:           telemetry.DecisionSpinUp,
		Cause:          t.consumePendingCause(d),
		Disk:           d,
		PredictedJ:     s.cfg.DiskParams.TransitionEnergy(diskmodel.High),
		PredictedWaitS: s.cfg.DiskParams.TransitionTime(diskmodel.High),
	})
	t.wakeSeq[d] = seq
}

// consumePendingCause returns the cause captured when disk d's transition
// was requested, falling back to the current hook context.
func (t *traceState) consumePendingCause(d int) string {
	if c := t.pendingCause[d]; c != "" {
		t.pendingCause[d] = ""
		return c
	}
	return t.takeCause()
}

// onTransitionDone accrues the finished transition into disk d's spin-wait
// clock and resolves the open spin-up/spin-down decisions.
func (s *sim) onTransitionDone(d int, now float64) {
	t := s.trc
	ds := s.disks[d]
	to := ds.disk.Speed()
	dur := s.cfg.DiskParams.TransitionTime(to)
	ds.transBusy += dur
	ds.transStart = 0
	if to == diskmodel.Low {
		t.parkT[d] = now
		return
	}
	// Spun up: the spin-up decision resolves now, and with it the park it
	// ended. WakeRequests is the user work that sat out the transition.
	if seq := t.wakeSeq[d]; seq != 0 {
		t.wakeSeq[d] = 0
		waiting := ds.fg.len()
		t.log.Resolve(seq, func(rec *telemetry.Decision) {
			rec.Observed = true
			rec.ObservedWaitS = dur
			rec.WakeRequests = waiting
		})
	}
	if seq := t.parkSeq[d]; seq != 0 {
		t.parkSeq[d] = 0
		parked := (now - dur) - t.parkT[d]
		if parked < 0 {
			parked = 0
		}
		t.log.Resolve(seq, func(rec *telemetry.Decision) {
			rec.Observed = true
			rec.ObservedParkedS = parked
			rec.ObservedJ = parked*rec.PredictedSaveW - rec.PredictedJ
		})
	}
}

// recordMigrate logs a migration decision and reports whether it should
// proceed (false under a skip override). The predicted cost is the energy
// and disk occupancy of moving the file at high speed; the observed cost is
// how long the move actually took to land.
func (s *sim) recordMigrate(fileID, from, to int, sizeMB, now float64) bool {
	t := s.trc
	p := &s.cfg.DiskParams
	seq := t.log.Append(telemetry.Decision{
		T:              now,
		Epoch:          s.epochs,
		Kind:           telemetry.DecisionMigrate,
		Cause:          t.takeCause(),
		FileID:         fileID,
		From:           from,
		To:             to,
		SizeMB:         sizeMB,
		PredictedJ:     2 * sizeMB * p.ActiveEnergyPerMB(diskmodel.High),
		PredictedWaitS: 2 * p.ServiceTime(sizeMB, diskmodel.High),
	})
	if t.overrideFor(seq) == OverrideSkip {
		return false
	}
	t.migSeq[fileID] = seq
	return true
}

// resolveMigration closes a migration decision when its write leg lands.
func (s *sim) resolveMigration(fileID int, now float64) {
	t := s.trc
	seq, ok := t.migSeq[fileID]
	if !ok {
		return
	}
	delete(t.migSeq, fileID)
	t.log.Resolve(seq, func(rec *telemetry.Decision) {
		rec.Observed = true
		rec.ObservedWaitS = now - rec.T
	})
}

// dropMigration abandons a migration decision whose transfer was discarded
// (its disk failed mid-move); the record stays unobserved.
func (s *sim) dropMigration(fileID int) {
	delete(s.trc.migSeq, fileID)
}

// recordReassign logs a failover re-home and reports whether it should
// proceed (false under a skip override). The action is instantaneous, so
// the record is observed immediately.
func (s *sim) recordReassign(fileID, from, to int, now float64) bool {
	t := s.trc
	seq := t.log.Append(telemetry.Decision{
		T:        now,
		Epoch:    s.epochs,
		Kind:     telemetry.DecisionReassign,
		Cause:    t.takeCause(),
		FileID:   fileID,
		From:     from,
		To:       to,
		Observed: true,
	})
	return t.overrideFor(seq) != OverrideSkip
}

// recordRebuildPace logs a rebuild pacing decision for disk d's
// replacement: totalMB at rate MB/s. Not overridable — a replacement must
// rebuild its data.
func (s *sim) recordRebuildPace(d int, totalMB, rate, now float64) {
	t := s.trc
	t.rebuildSeq[d] = t.log.Append(telemetry.Decision{
		T:              now,
		Epoch:          s.epochs,
		Kind:           telemetry.DecisionRebuildPace,
		Cause:          t.takeCause(),
		Disk:           d,
		SizeMB:         totalMB,
		PredictedJ:     totalMB * s.cfg.DiskParams.ActiveEnergyPerMB(diskmodel.High),
		PredictedWaitS: totalMB / rate,
	})
}

// resolveRebuild closes disk d's rebuild-pace decision when the rebuild
// drains (or abandons it unobserved when aborted by a new failure).
func (s *sim) resolveRebuild(d int, now float64, finished bool) {
	t := s.trc
	seq := t.rebuildSeq[d]
	if seq == 0 {
		return
	}
	t.rebuildSeq[d] = 0
	if !finished {
		return
	}
	t.log.Resolve(seq, func(rec *telemetry.Decision) {
		rec.Observed = true
		rec.ObservedWaitS = now - rec.T
	})
}

// newStamps returns zeroed stamps for an op entering a queue, reusing a
// released set when one is free.
func (s *sim) newStamps() *opStamps {
	if n := len(s.freeStamps); n > 0 {
		tr := s.freeStamps[n-1]
		s.freeStamps = s.freeStamps[:n-1]
		*tr = opStamps{}
		return tr
	}
	return new(opStamps)
}

// releaseStamps returns a resolved op's stamps to the free list. Nothing may
// reference tr afterwards: the op has completed, been dropped or been lost,
// and an op is only ever moved, never duplicated, so it was the sole holder.
func (s *sim) releaseStamps(tr *opStamps) {
	if tr != nil {
		s.freeStamps = append(s.freeStamps, tr)
	}
}

// noteEnqueue stamps op o with the state needed to split its eventual
// response time, relative to disk d right now.
func (s *sim) noteEnqueue(d int, o *op, now float64) {
	ds := s.disks[d]
	if o.tr == nil {
		o.tr = s.newStamps()
	}
	o.tr.enqT = now
	o.tr.spinBase = ds.transBusy
	if ds.disk.State() == diskmodel.Transitioning {
		// Mid-transition: the part that elapsed before this op arrived is
		// not its wait.
		o.tr.spinBase += now - ds.transStart
	}
}

// attributeCompletion decomposes one completed operation's response time
// and energy into the running attribution totals. For striped requests the
// chunk-level components accumulate as chunks complete; the request itself
// (and its degraded flag) is counted by attributeStripe when the last chunk
// lands.
func (s *sim) attributeCompletion(d int, o *op, now float64) {
	ds := s.disks[d]
	p := &s.cfg.DiskParams
	sp := ds.disk.Speed()
	a := &s.trc.attr
	tr := o.tr
	transfer := o.sizeMB / p.TransferRate(sp)
	seek := tr.svcDur - transfer
	if seek < 0 {
		seek = 0
	}
	queueWait := (now - tr.svcDur) - tr.enqT - tr.waitSpin
	if queueWait < 0 {
		queueWait = 0
	}
	a.QueueWaitS += queueWait
	a.SpinupWaitS += tr.waitSpin
	if tr.waitSpin > 0 {
		a.SpinupWaits++
	}
	a.SeekS += seek
	a.TransferS += transfer
	a.ServiceEnergyJ += p.ActivePower(sp) * tr.svcDur
	switch o.kind {
	case opUser:
		a.Requests++
		if o.rerouted {
			a.DegradedRequests++
			a.DegradedPenaltyS += now - o.arrival
		}
	}
}

// attributeStripe counts one completed striped request.
func (s *sim) attributeStripe(o *op, now float64) {
	a := &s.trc.attr
	a.Requests++
	if o.rerouted {
		a.DegradedRequests++
		a.DegradedPenaltyS += now - o.stripe.arrival
	}
}

// snapEpochAttribution closes the attribution row for the epoch ending now.
func (s *sim) snapEpochAttribution(epoch int) {
	t := s.trc
	row := t.attr.Delta(t.lastSnap)
	if row == (telemetry.Attribution{}) {
		return
	}
	t.epochRows = append(t.epochRows, telemetry.EpochAttribution{Epoch: epoch, Attribution: row})
	t.lastSnap = t.attr
}

// attributionReport assembles the run-level rollup for Result.
func (s *sim) attributionReport() *telemetry.AttributionReport {
	t := s.trc
	s.snapEpochAttribution(s.epochs + 1) // tail past the last epoch boundary
	rep := &telemetry.AttributionReport{Totals: t.attr, Epochs: t.epochRows}
	for _, rec := range t.log.Records() {
		rep.Decisions++
		switch rec.Kind {
		case telemetry.DecisionSpinDown:
			rep.SpinDowns++
			if rec.Observed {
				rep.ParkedSeconds += rec.ObservedParkedS
				rep.ParkNetSavedJ += rec.ObservedJ
			}
		case telemetry.DecisionSpinUp:
			rep.SpinUps++
			rep.WakeRequests += rec.WakeRequests
		case telemetry.DecisionMigrate:
			rep.Migrations++
		case telemetry.DecisionReassign:
			rep.Reassigns++
		case telemetry.DecisionRebuildPace:
			rep.RebuildPaces++
		}
	}
	return rep
}

// traceCkptState is the serializable form of a traceState. cause and hook
// live only within one policy hook invocation and overrides are replay
// configuration re-supplied by the caller, so none of the three travels.
//
//simlint:checkpoint-for traceState ignore=cause,hook,overrides alias=log:Decisions
type traceCkptState struct {
	Decisions    telemetry.DecisionLogState   `json:"decisions"`
	PendingCause []string                     `json:"pending_cause,omitempty"`
	ParkSeq      []uint64                     `json:"park_seq,omitempty"`
	ParkT        []float64                    `json:"park_t,omitempty"`
	WakeSeq      []uint64                     `json:"wake_seq,omitempty"`
	RebuildSeq   []uint64                     `json:"rebuild_seq,omitempty"`
	MigSeq       map[int]uint64               `json:"mig_seq,omitempty"`
	Attr         telemetry.Attribution        `json:"attr"`
	LastSnap     telemetry.Attribution        `json:"last_snap"`
	EpochRows    []telemetry.EpochAttribution `json:"epoch_rows,omitempty"`
}

// ckpt serializes the tracing state.
func (t *traceState) ckpt() *traceCkptState {
	return &traceCkptState{
		Decisions:    t.log.State(),
		PendingCause: t.pendingCause,
		ParkSeq:      t.parkSeq,
		ParkT:        t.parkT,
		WakeSeq:      t.wakeSeq,
		RebuildSeq:   t.rebuildSeq,
		MigSeq:       t.migSeq,
		Attr:         t.attr,
		LastSnap:     t.lastSnap,
		EpochRows:    t.epochRows,
	}
}

// restore loads a checkpointed tracing state into t. Per-disk slices are
// length-checked defensively; a mismatched checkpoint is rejected earlier by
// the disk-count guard in Resume.
func (t *traceState) restore(st *traceCkptState) {
	t.log.SetState(st.Decisions)
	copy(t.pendingCause, st.PendingCause)
	copy(t.parkSeq, st.ParkSeq)
	copy(t.parkT, st.ParkT)
	copy(t.wakeSeq, st.WakeSeq)
	copy(t.rebuildSeq, st.RebuildSeq)
	for id, seq := range st.MigSeq {
		t.migSeq[id] = seq
	}
	t.attr = st.Attr
	t.lastSnap = st.LastSnap
	t.epochRows = st.EpochRows
}

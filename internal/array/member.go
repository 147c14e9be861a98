package array

// Fleet membership: a Member is one array simulation mounted on a SHARED
// des.Engine and driven by a cluster router instead of its own trace. The
// member keeps every internal mechanism of a standalone run — policies,
// epochs, idle timers, fault injection, scrubbing, RAID — but three seams
// change:
//
//   - Arrivals come from Member.Submit (called by the router's own arrival
//     events) instead of evArrival trace replay; each submitted request
//     carries a contFleet continuation that reports its resolution back
//     through the Host interface.
//   - Liveness questions ("does work remain?") defer to the Host, which sees
//     the whole fleet: a locally idle member must keep its fault-tick chain
//     alive while another array's retry may still land here.
//   - The engine is run by the cluster, exactly once, after every member is
//     constructed; NewMember therefore performs Run's entire setup but stops
//     short of RunGuarded.
//
// Determinism note: construction order is the scheduling order. The cluster
// constructs members in index order, so member i's initial events (idle
// timers, epoch, sampler, fault tick) occupy lower engine sequence numbers
// than member i+1's, and a fleet of one reproduces the standalone
// simulator's event sequence exactly (the firstArrival callback slots the
// router's arrival chain where Run schedules its first trace arrival).

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/des"
	"repro/internal/diskmodel"
	"repro/internal/reliability"
	"repro/internal/thermal"
)

// Host is the cluster-side surface a fleet member reports into. The router
// implements it; members never call each other.
type Host interface {
	// ArrivalsRemain reports whether the fleet's arrival stream can still
	// produce requests (epochs and scrub chains die when it goes false).
	ArrivalsRemain() bool
	// FleetWorkRemains reports whether any fleet activity is still possible:
	// undelivered arrivals, in-flight requests anywhere, or pending retries.
	FleetWorkRemains() bool
	// RequestDone reports the resolution of one submitted attempt. lost
	// means the data was unrecoverable on this array (failure with no spare
	// and no reassignment) — the router may fail over to a replica.
	RequestDone(reqID uint64, attempt int, now float64, lost bool)
}

// Member is one array of a fleet, sharing its engine with the cluster.
type Member struct {
	s *sim
}

// NewMember builds a fleet member on the shared engine eng. cfg.Trace must
// carry the member's file set with an empty request list (arrivals come from
// Submit), and cfg.Checkpoint must be nil (the cluster owns the checkpoint
// cadence and calls AppendCheckpointState from its own tick). firstArrival, when
// non-nil, runs at the exact point Run would schedule its first trace
// arrival — after idle timers are armed, before the epoch event — so the
// router can slot its arrival chain into the same sequence position.
func NewMember(cfg Config, eng *des.Engine, host Host, firstArrival func() error) (*Member, error) {
	if eng == nil || host == nil {
		return nil, errors.New("array: member needs a shared engine and a host")
	}
	cfg.setDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(cfg.Trace.Requests) != 0 {
		return nil, errors.New("array: member trace must have no requests; arrivals come from Submit")
	}
	if cfg.Checkpoint != nil {
		return nil, errors.New("array: member checkpointing is driven by the cluster, not Config.Checkpoint")
	}
	s, err := newSimOn(cfg, eng, host)
	if err != nil {
		return nil, err
	}
	for i := range s.disks {
		s.disks[i].disk = diskmodel.New(i, cfg.DiskParams, diskmodel.High)
		s.disks[i].temp = thermal.NewTracker(cfg.Thermal, diskmodel.High)
	}

	ctx := s.ctx
	if err := cfg.Policy.Init(ctx); err != nil {
		return nil, fmt.Errorf("array: policy init: %w", err)
	}
	ids := make([]int, 0, len(s.files))
	for id := range s.files {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		if _, ok := s.place[id]; !ok {
			return nil, fmt.Errorf("array: policy %q left file %d unplaced", cfg.Policy.Name(), id)
		}
	}
	// Init-time transitions are free, exactly as in Run.
	for i, ds := range s.disks {
		if ds.pending != nil && *ds.pending != ds.disk.Speed() {
			target := *ds.pending
			ds.disk = diskmodel.New(i, cfg.DiskParams, target)
			ds.temp = thermal.NewTracker(cfg.Thermal, target)
		}
		ds.pending = nil
	}
	for i := range s.disks {
		s.armIdleTimer(i)
	}
	if firstArrival != nil {
		if err := firstArrival(); err != nil {
			return nil, err
		}
	}
	if cfg.EpochSeconds > 0 {
		s.schedule(cfg.EpochSeconds, eventRecord{Kind: evEpoch})
	}
	s.installSampler()
	if err := s.installFaults(); err != nil {
		return nil, err
	}
	return &Member{s: s}, nil
}

// Submit injects one request attempt, mirroring the body of onArrival.
// arrival is the latency reference point for the member's own response
// statistics: the fleet arrival time for first attempts, the retry/hedge
// issue time for later ones.
//
//simlint:hotpath
func (m *Member) Submit(reqID uint64, attempt, fileID int, arrival float64) {
	s := m.s
	if s.failure != nil {
		return
	}
	f, ok := s.files[fileID]
	if !ok {
		s.fail(fmt.Errorf("array: request for unknown file %d", fileID)) //simlint:allow hotalloc -- error branch: fails the run once
		return
	}
	s.counts[fileID]++
	s.met.arrivals.Inc()
	ctx := s.ctx
	s.setHook(hookArrival)
	defer s.endHook()

	done := s.newCont(cont{kind: contFleet, reqID: reqID, attempt: attempt}) //simlint:allow hotalloc -- freelist growth inside the inlined newCont
	if sp, ok := s.cfg.Policy.(StripePolicy); ok {
		targets := sp.StripeTargets(ctx, fileID)
		if len(targets) >= 2 {
			s.dispatchStripedDone(fileID, f.SizeMB, arrival, targets, done)
			return
		}
	}
	target := s.cfg.Policy.TargetDisk(ctx, fileID)
	if target < 0 || target >= len(s.disks) {
		s.fail(fmt.Errorf("array: policy %q targeted invalid disk %d", s.cfg.Policy.Name(), target)) //simlint:allow hotalloc -- error branch: fails the run once
		return
	}
	s.enqueue(target, op{kind: opUser, fileID: fileID, sizeMB: f.SizeMB, arrival: arrival, done: done})
}

// Err returns the member's sticky failure, if any (queue overload, policy
// contract violation). The cluster aborts the whole fleet run on it.
func (m *Member) Err() error { return m.s.failure }

// Collect computes the member's Result after the shared engine has drained.
func (m *Member) Collect() (*Result, error) {
	if m.s.failure != nil {
		return nil, m.s.failure
	}
	return m.s.collect()
}

// Busy reports whether any disk is non-idle or has queued work.
func (m *Member) Busy() bool { return m.s.busyDisks() > 0 }

// Backlog is the total foreground queue depth across disks — the router's
// saturation signal.
func (m *Member) Backlog() int {
	n := 0
	for _, ds := range m.s.disks {
		n += ds.fg.len()
	}
	return n
}

// Rebuilding reports whether any disk is streaming rebuild traffic.
func (m *Member) Rebuilding() bool {
	for _, ds := range m.s.disks {
		if ds.rebuilding {
			return true
		}
	}
	return false
}

// FailedDisks counts disks currently down.
func (m *Member) FailedDisks() int {
	n := 0
	for _, ds := range m.s.disks {
		if ds.failed {
			n++
		}
	}
	return n
}

// DataLoss reports whether the member has declared unrecoverable data loss
// (spare-pool exhaustion or a defeated RAID group) — the router's ejection
// signal.
func (m *Member) DataLoss() bool {
	f := m.s.flt
	if f == nil {
		return false
	}
	if f.dataLoss > 0 {
		return true
	}
	return f.raid != nil && f.raid.losses > 0
}

// PeekWorstAFR returns the highest current per-disk PRESS AFR (percent)
// without mutating any accumulator, for AFR-aware routing. It returns 0 on a
// model error (routing then treats the member as nominal).
func (m *Member) PeekWorstAFR() float64 {
	s := m.s
	now := s.eng.Now()
	worst := 0.0
	for _, ds := range s.disks {
		snap := ds.disk.Snapshot(now)
		afr := s.cfg.Press.SnapshotAFR(reliability.Factors{
			TempC:             ds.temp.PeekMeanTemp(now),
			Utilization:       snap.Utilization,
			TransitionsPerDay: snap.TransitionRatePerDay,
		})
		if afr > worst {
			worst = afr
		}
	}
	return worst
}

// ForceSpeedAll requests a transition of every live disk to target with the
// given decision cause — the cluster's domain-shock lever: Low on outage
// ("emergency spin-down"), High on restore ("re-heat"). Requests follow the
// normal transition discipline (they apply when a disk goes idle, and a
// spin-down cancels if work is queued), so a busy disk rides the shock out
// and transitions afterwards.
func (m *Member) ForceSpeedAll(target diskmodel.Speed, cause string) {
	s := m.s
	if s.failure != nil {
		return
	}
	ctx := s.ctx
	s.setHook(hookDomainShock)
	defer s.endHook()
	for d := range s.disks {
		if s.disks[d].failed {
			continue
		}
		ctx.SetDecisionCause(cause)
		ctx.RequestTransition(d, target)
	}
}

// AppendCheckpointState appends the member's complete state to dst: the
// same payload a standalone checkpoint carries, with foreign shared-engine
// events skipped and per-event sequence numbers recorded for the cluster's
// merge.
func (m *Member) AppendCheckpointState(dst []byte) ([]byte, error) {
	if _, ok := m.s.cfg.Policy.(CheckpointablePolicy); !ok {
		return nil, fmt.Errorf("array: policy %q does not support checkpointing", m.s.cfg.Policy.Name())
	}
	st, err := m.s.buildState()
	if err != nil {
		return nil, err
	}
	return st.appendJSON(dst)
}

// MemberSnapshot is a fleet member's checkpoint payload, parsed and
// validated against the member's configuration but not yet restored.
type MemberSnapshot struct {
	cfg Config
	st  *simState
}

// DecodeMember parses an AppendCheckpointState payload and checks it against
// the member configuration cfg, as Resume does; nothing is rebuilt.
func DecodeMember(cfg Config, stateJSON []byte) (*MemberSnapshot, error) {
	cfg.setDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(cfg.Trace.Requests) != 0 {
		return nil, errors.New("array: member trace must have no requests; arrivals come from Submit")
	}
	if cfg.Checkpoint != nil {
		return nil, errors.New("array: member checkpointing is driven by the cluster, not Config.Checkpoint")
	}
	st, err := decodeState(&cfg, stateJSON)
	if err != nil {
		return nil, err
	}
	return &MemberSnapshot{cfg: cfg, st: st}, nil
}

// FleetAttempt names one attempt of a fleet request.
type FleetAttempt struct {
	Req     uint64
	Attempt int
}

// FleetAttempts lists the fleet attempts in flight on the member: the
// request and attempt of every fleet continuation in the snapshot, queued,
// in service or on a striped request.
func (ms *MemberSnapshot) FleetAttempts() []FleetAttempt {
	var out []FleetAttempt
	add := func(cs *contState) {
		if cs != nil && cs.Kind == contFleet {
			out = append(out, FleetAttempt{Req: cs.ReqID, Attempt: cs.Attempt})
		}
	}
	for _, dc := range ms.st.Disks {
		for _, q := range [2][]opState{dc.FG, dc.BG} {
			for _, os := range q {
				add(os.Done)
			}
		}
	}
	for _, se := range ms.st.Events {
		if se.Op != nil {
			add(se.Op.Done)
		}
	}
	for _, ss := range ms.st.Stripes {
		add(ss.Done)
	}
	return out
}

// Restore rebuilds the member on the shared engine eng. The decoded pending
// events are returned WITHOUT being scheduled: the cluster merges them with
// the router's own saved events by Seq and schedules the union in global
// order between the shared engine's BeginRestore and FinishRestore.
func (ms *MemberSnapshot) Restore(eng *des.Engine, host Host) (*Member, []RestoredEvent, error) {
	if eng == nil || host == nil {
		return nil, nil, errors.New("array: member needs a shared engine and a host")
	}
	s, evs, err := restoreSim(ms.cfg, ms.st, eng, host)
	if err != nil {
		return nil, nil, err
	}
	return &Member{s: s}, evs, nil
}

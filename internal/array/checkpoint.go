package array

// Checkpoint/restore for the array simulator. A snapshot captures the
// complete simulation state at one quiescent instant between events: the DES
// clock and pending event queue (as the serializable records of events.go),
// every disk's raw energy/thermal accumulators and scheduler queues, the
// policy's saved state, the fault injector's hazard state and RNG position,
// the response statistics, and the telemetry counters. Raw accumulator
// fields are serialized verbatim — never through the mutating accessors —
// so the floating-point summation order after a resume is identical to the
// uninterrupted run's, making the two bit-identical, not merely close.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"

	"repro/internal/checkpoint"
	"repro/internal/des"
	"repro/internal/diskmodel"
	"repro/internal/faults"
	"repro/internal/stats"
	"repro/internal/thermal"
)

// CheckpointSpec configures periodic snapshotting for one run.
type CheckpointSpec = checkpoint.Spec

// validateCheckpointSpec rejects an unusable checkpoint configuration up
// front, for a standalone run and a fleet member alike: the spec's own rule,
// and a policy that cannot be serialized.
func validateCheckpointSpec(cfg *Config) error {
	spec := cfg.Checkpoint
	if spec == nil {
		return nil
	}
	if err := spec.Validate(); err != nil {
		return fmt.Errorf("array: %w", err)
	}
	if _, ok := cfg.Policy.(CheckpointablePolicy); !ok {
		return fmt.Errorf("array: policy %q does not support checkpointing", cfg.Policy.Name())
	}
	return nil
}

// installCheckpoints arms the periodic checkpoint tick.
func (s *sim) installCheckpoints() {
	if spec := s.cfg.Checkpoint; spec != nil {
		s.schedule(spec.EverySimSeconds, eventRecord{Kind: evCheckpoint})
	}
}

// onCheckpointTick snapshots the simulation. The next tick is scheduled
// BEFORE the snapshot is taken so the saved pending set includes it and the
// resumed run keeps checkpointing on the same cadence as the original.
func (s *sim) onCheckpointTick(e *des.Engine) {
	if s.failure != nil || s.cfg.Checkpoint == nil {
		return
	}
	if s.workRemains() {
		s.schedule(s.cfg.Checkpoint.EverySimSeconds, eventRecord{Kind: evCheckpoint})
	}
	if err := s.writeCheckpoint(); err != nil {
		s.fail(fmt.Errorf("array: checkpoint: %w", err))
	}
}

// --- wire schema ---

// contState is the serializable form of a cont.
//
//simlint:checkpoint-for cont
type contState struct {
	Kind        string  `json:"kind"`
	FileID      int     `json:"file_id,omitempty"`
	To          int     `json:"to,omitempty"`
	Disk        int     `json:"disk,omitempty"`
	SizeMB      float64 `json:"size_mb,omitempty"`
	NextIssue   float64 `json:"next_issue,omitempty"`
	RemainingMB float64 `json:"remaining_mb,omitempty"`
	ReqID       uint64  `json:"req_id,omitempty"`
	Attempt     int     `json:"attempt,omitempty"`
}

// encodeCont serializes a continuation.
func encodeCont(c *cont) *contState {
	if c == nil {
		return nil
	}
	return &contState{
		Kind:        c.kind,
		FileID:      c.fileID,
		To:          c.to,
		Disk:        c.disk,
		SizeMB:      c.sizeMB,
		NextIssue:   c.nextIssue,
		RemainingMB: c.remainingMB,
		ReqID:       c.reqID,
		Attempt:     c.attempt,
	}
}

// opState is the serializable form of an op. Stripe is an index into
// simState.Stripes (-1 when the op is not a chunk), so chunks of one striped
// request share their parent across the restore exactly as they shared the
// pointer before it. The embedded stampState puts the tracing stamps (op.tr)
// at the end of the op's JSON object; they are zero, and so omitted, when
// the op has none.
//
//simlint:checkpoint-for op alias=tr:stampState
type opState struct {
	Kind     int        `json:"kind"`
	FileID   int        `json:"file_id,omitempty"`
	SizeMB   float64    `json:"size_mb,omitempty"`
	Arrival  float64    `json:"arrival,omitempty"`
	Stripe   int        `json:"stripe"`
	Mig      bool       `json:"mig,omitempty"`
	Rerouted bool       `json:"rerouted,omitempty"`
	Done     *contState `json:"done,omitempty"`
	stampState
}

// stampState is the serializable form of an op's opStamps.
//
//simlint:checkpoint-for opStamps
type stampState struct {
	EnqT     float64 `json:"enq_t,omitempty"`
	SpinBase float64 `json:"spin_base,omitempty"`
	WaitSpin float64 `json:"wait_spin,omitempty"`
	SvcDur   float64 `json:"svc_dur,omitempty"`
}

// stripeState is the serializable form of a stripeJob.
//
//simlint:checkpoint-for stripeJob
type stripeState struct {
	FileID    int        `json:"file_id"`
	Arrival   float64    `json:"arrival"`
	Remaining int        `json:"remaining"`
	Lost      bool       `json:"lost,omitempty"`
	Done      *contState `json:"done,omitempty"`
}

// savedEvent is one pending DES event: its absolute fire time plus the
// eventRecord payload. Events are saved in ascending original-sequence
// order; restoring re-schedules them in that order so same-instant FIFO
// ties break identically. Seq carries the engine's original sequence number
// so a cluster restore can merge-sort the pending sets of several owners
// (router + members) of one shared engine back into the global order. Op is
// set on service events only: it is the disk's in-service op (diskState.svc),
// which completes when that event fires. The record's union fields travel
// under the named wire fields of its kind (see eventRecord); the aliases
// name one of each union field's wire fields.
//
//simlint:checkpoint-for eventRecord alias=N:Gen,X:Deadline,Y:Timeout
type savedEvent struct {
	Time        float64  `json:"time"`
	Seq         uint64   `json:"seq,omitempty"`
	Kind        string   `json:"kind"`
	Disk        int      `json:"disk,omitempty"`
	Gen         uint64   `json:"gen,omitempty"`
	Deadline    float64  `json:"deadline,omitempty"`
	Timeout     float64  `json:"timeout,omitempty"`
	RemainingMB float64  `json:"remaining_mb,omitempty"`
	FileID      int      `json:"file_id,omitempty"`
	From        int      `json:"from,omitempty"`
	To          int      `json:"to,omitempty"`
	SizeMB      float64  `json:"size_mb,omitempty"`
	Op          *opState `json:"op,omitempty"`
}

// toSaved writes rec, pending at time t with sequence number seq, in wire
// form: each union field under the wire name its kind gives it.
func (rec eventRecord) toSaved(t float64, seq uint64) savedEvent {
	se := savedEvent{Time: t, Seq: seq, Kind: rec.Kind.String()}
	d := int(rec.Disk)
	switch rec.Kind {
	case evTransition, evRepair, evScrub:
		se.Disk = d
	case evService:
		se.Disk, se.Gen = d, rec.N
	case evIdleArm:
		se.Disk, se.Deadline, se.Timeout = d, rec.X, rec.Y
	case evIdleRearm:
		se.Disk, se.Timeout = d, rec.Y
	case evMigrateStart:
		se.From, se.To, se.FileID, se.SizeMB = d, int(rec.To), int(rec.N), rec.X
	case evRebuildNext:
		se.Disk, se.RemainingMB = d, rec.X
	}
	return se
}

// recordFromSaved is toSaved's inverse for an event that passed validate,
// which rejects an unknown kind, a disk index outside the array and a wire
// field foreign to the kind.
func recordFromSaved(se *savedEvent) eventRecord {
	switch kind := parseEvKind(se.Kind); kind {
	case evTransition, evRepair, evScrub:
		return diskEvent(kind, se.Disk)
	case evService:
		return serviceEvent(se.Disk, se.Gen)
	case evIdleArm:
		return idleArmEvent(se.Disk, se.Deadline, se.Timeout)
	case evIdleRearm:
		return idleRearmEvent(se.Disk, se.Timeout)
	case evMigrateStart:
		return migrateStartEvent(se.FileID, se.From, se.To, se.SizeMB)
	case evRebuildNext:
		return rebuildNextEvent(se.Disk, se.RemainingMB)
	default:
		return eventRecord{Kind: kind}
	}
}

// diskCkptState is the serializable form of a diskState. svc, the op in
// service, travels inside Events as its service event's Op.
//
//simlint:checkpoint-for diskState ignore=svc
type diskCkptState struct {
	Disk          diskmodel.Checkpoint `json:"disk"`
	Temp          thermal.Checkpoint   `json:"temp"`
	Pending       *diskmodel.Speed     `json:"pending,omitempty"`
	IdleTimeout   float64              `json:"idle_timeout,omitempty"`
	IdleArmed     bool                 `json:"idle_armed,omitempty"`
	Failed        bool                 `json:"failed,omitempty"`
	SpareAssigned bool                 `json:"spare_assigned,omitempty"`
	Rebuilding    bool                 `json:"rebuilding,omitempty"`
	RebuildMBps   float64              `json:"rebuild_mbps,omitempty"`
	Gen           uint64               `json:"gen,omitempty"`
	TransBusy     float64              `json:"trans_busy,omitempty"`
	TransStart    float64              `json:"trans_start,omitempty"`
	FG            []opState            `json:"fg,omitempty"`
	BG            []opState            `json:"bg,omitempty"`
}

// faultCkptState is the serializable form of a faultState. cfg is
// configuration re-supplied on restore; inFailover is true only inside a
// policy failure hook, and checkpoints are never written mid-hook.
//
//simlint:checkpoint-for faultState ignore=cfg,inFailover alias=inj:Injector
type faultCkptState struct {
	Injector       faults.Checkpoint `json:"injector"`
	Spares         int               `json:"spares"`
	SparesUsed     int               `json:"spares_used"`
	Failures       int               `json:"failures"`
	Repairs        int               `json:"repairs"`
	DataLoss       int               `json:"data_loss"`
	FirstLoss      float64           `json:"first_loss"`
	LostRequests   int               `json:"lost_requests"`
	Degraded       int               `json:"degraded"`
	Reassigned     int               `json:"reassigned"`
	RebuildMB      float64           `json:"rebuild_mb"`
	RebuildEnergyJ float64           `json:"rebuild_energy_j"`
	LSECleared     int               `json:"lse_cleared,omitempty"`
	Scrubs         int               `json:"scrubs,omitempty"`
	ScrubMB        float64           `json:"scrub_mb,omitempty"`
	RAID           *raidCkptState    `json:"raid,omitempty"`
	Log            []FailureEvent    `json:"log,omitempty"`
}

// raidCkptState is the serializable form of a raidState. The group layout
// (cfg, groups, groupOf, tol) is derived from the configuration on restore;
// only the observed counters travel.
//
//simlint:checkpoint-for raidState ignore=cfg,groups,groupOf,tol
type raidCkptState struct {
	Losses        int             `json:"losses"`
	LSELosses     int             `json:"lse_losses,omitempty"`
	OverlapLosses int             `json:"overlap_losses,omitempty"`
	FirstLoss     float64         `json:"first_loss"`
	Log           []RAIDLossEvent `json:"log,omitempty"`
}

// simState is the checkpoint payload: the complete mutable state of a run.
// The ignored fields are re-supplied or rebuilt on restore: cfg and files
// come back from the caller's CheckpointSpec, eng is reconstructed and its
// state carried as Clock/Seq/Fired, writer is the configured policy until
// its next Context.EnqueueWrite, live is observation-only (re-cached from
// cfg.Telemetry on restore), failure aborts the run before a checkpoint
// could be taken, ctx is a stateless singleton rebuilt by newSim (it
// carries only the sim pointer), recs — the pending events' records —
// travels inside Events and is refilled as restore re-posts them,
// freeConts and freeStamps hold only released continuations and stamps that
// nothing references, wireOrder is derived from files, and ckptSize, the
// last snapshot's length, only sizes the next snapshot's buffer. RespStream
// repeats RespHist.Stream: the wire format keeps both copies, and restore
// rejects a state in which they differ.
//
//simlint:checkpoint-for sim ignore=cfg,eng,files,writer,failure,live,host,ctx,recs,freeConts,freeStamps,wireOrder,ckptSize alias=flt:Faults,trc:Trace
type simState struct {
	Clock         float64                     `json:"clock"`
	Seq           uint64                      `json:"seq"`
	Fired         uint64                      `json:"fired"`
	PolicyName    string                      `json:"policy_name"`
	NextReq       int                         `json:"next_req"`
	Migrations    int                         `json:"migrations"`
	BackgroundOps int                         `json:"background_ops"`
	Epochs        int                         `json:"epochs"`
	MigsThisEpoch int                         `json:"migs_this_epoch"`
	Place         fileMap                     `json:"place"`
	Counts        *fileMap                    `json:"counts,omitempty"`
	Migrating     []int                       `json:"migrating,omitempty"`
	RespStream    stats.StreamState           `json:"resp_stream"`
	RespHist      stats.LatencyHistogramState `json:"resp_hist"`
	Disks         []diskCkptState             `json:"disks"`
	Stripes       []stripeState               `json:"stripes,omitempty"`
	Policy        json.RawMessage             `json:"policy"`
	Faults        *faultCkptState             `json:"faults,omitempty"`
	Events        []savedEvent                `json:"events"`
	Trace         *traceCkptState             `json:"trace,omitempty"`
}

// fileMap is the wire form of a file-keyed map: placement, or this epoch's
// access counts. It encodes byte for byte as encoding/json encodes a
// map[int]int, keys in the order of their decimal strings, but walks order,
// the run's file IDs presorted that way (sim.fileOrder), instead of
// formatting and sorting every key on every snapshot (see writeJSON).
type fileMap struct {
	m     map[int]int
	order []int
}

func (f *fileMap) UnmarshalJSON(data []byte) error {
	return json.Unmarshal(data, &f.m)
}

// compareDecimal orders two integers by their decimal strings.
func compareDecimal(a, b int) int {
	var x, y [20]byte
	return bytes.Compare(strconv.AppendInt(x[:0], int64(a), 10), strconv.AppendInt(y[:0], int64(b), 10))
}

// fileOrder returns the run's file IDs in wire order (see fileMap). It is
// built at the first snapshot, so a run without checkpoints never pays for
// it, and it lives on the sim because fleet members hold different files.
func (s *sim) fileOrder() []int {
	if s.wireOrder == nil {
		ids := make([]int, 0, len(s.files))
		for id := range s.files {
			ids = append(ids, id)
		}
		slices.SortFunc(ids, compareDecimal)
		s.wireOrder = ids
	}
	return s.wireOrder
}

// stripeTable assigns dense IDs to stripeJob pointers in the deterministic
// order they are first encountered during serialization.
type stripeTable struct {
	ids  map[*stripeJob]int
	list []stripeState
}

func (t *stripeTable) id(j *stripeJob) int {
	if j == nil {
		return -1
	}
	if id, ok := t.ids[j]; ok {
		return id
	}
	id := len(t.list)
	t.ids[j] = id
	t.list = append(t.list, stripeState{
		FileID: j.fileID, Arrival: j.arrival, Remaining: j.remaining, Lost: j.lost, Done: encodeCont(j.done),
	})
	return id
}

func (t *stripeTable) encodeOp(o op) opState {
	st := opState{
		Kind:     int(o.kind),
		FileID:   o.fileID,
		SizeMB:   o.sizeMB,
		Arrival:  o.arrival,
		Stripe:   t.id(o.stripe),
		Mig:      o.mig,
		Rerouted: o.rerouted,
		Done:     encodeCont(o.done),
	}
	if tr := o.tr; tr != nil {
		st.stampState = stampState{EnqT: tr.enqT, SpinBase: tr.spinBase, WaitSpin: tr.waitSpin, SvcDur: tr.svcDur}
	}
	return st
}

// items returns the queue's live entries in FIFO order (read-only view).
func (q *fifo) items() []op { return q.buf[q.head:] }

// buildState serializes the complete simulation state.
func (s *sim) buildState() (*simState, error) {
	order := s.fileOrder()
	hist := s.respHist.State()
	st := &simState{
		Clock:         s.eng.Now(),
		Seq:           s.eng.Seq(),
		Fired:         s.eng.Fired(),
		PolicyName:    s.cfg.Policy.Name(),
		NextReq:       s.nextReq,
		Migrations:    s.migrations,
		BackgroundOps: s.backgroundOps,
		Epochs:        s.epochs,
		MigsThisEpoch: s.migsThisEpoch,
		Place:         fileMap{s.place, order},
		RespStream:    hist.Stream,
		RespHist:      hist,
	}
	if len(s.counts) > 0 {
		st.Counts = &fileMap{s.counts, order}
	}
	for id := range s.migrating {
		st.Migrating = append(st.Migrating, id)
	}
	sort.Ints(st.Migrating)

	table := &stripeTable{ids: make(map[*stripeJob]int)}
	st.Disks = make([]diskCkptState, len(s.disks))
	for i, ds := range s.disks {
		dc := diskCkptState{
			Disk:          ds.disk.Checkpoint(),
			Temp:          ds.temp.Checkpoint(),
			IdleTimeout:   ds.idleTimeout,
			IdleArmed:     ds.idleArmed,
			Failed:        ds.failed,
			SpareAssigned: ds.spareAssigned,
			Rebuilding:    ds.rebuilding,
			RebuildMBps:   ds.rebuildMBps,
			Gen:           ds.gen,
			TransBusy:     ds.transBusy,
			TransStart:    ds.transStart,
		}
		if ds.pending != nil {
			p := *ds.pending
			dc.Pending = &p
		}
		for _, o := range ds.fg.items() {
			dc.FG = append(dc.FG, table.encodeOp(o))
		}
		for _, o := range ds.bg.items() {
			dc.BG = append(dc.BG, table.encodeOp(o))
		}
		st.Disks[i] = dc
	}

	for _, pe := range s.eng.PendingEvents() {
		if pe.Owner != s {
			if s.host != nil {
				// Shared engine: this pending event belongs to another owner
				// (the router or a sibling member), which saves it itself.
				continue
			}
			return nil, fmt.Errorf("array: pending event %d is not the simulator's; cannot checkpoint", pe.Seq)
		}
		rec := s.recs.Get(pe.Slot)
		se := rec.toSaved(pe.Time, pe.Seq)
		if rec.Kind == evService {
			// The disk's in-service op travels with its service event.
			os := table.encodeOp(s.disks[rec.Disk].svc)
			se.Op = &os
		}
		st.Events = append(st.Events, se)
	}
	st.Stripes = table.list

	pol := s.cfg.Policy.(CheckpointablePolicy) // verified by validateCheckpointSpec
	data, err := pol.SaveState()
	if err != nil {
		return nil, fmt.Errorf("array: policy %q save: %w", pol.Name(), err)
	}
	st.Policy = data

	if f := s.flt; f != nil {
		st.Faults = &faultCkptState{
			Injector:       f.inj.Checkpoint(),
			Spares:         f.spares,
			SparesUsed:     f.sparesUsed,
			Failures:       f.failures,
			Repairs:        f.repairs,
			DataLoss:       f.dataLoss,
			FirstLoss:      f.firstLoss,
			LostRequests:   f.lostRequests,
			Degraded:       f.degraded,
			Reassigned:     f.reassigned,
			RebuildMB:      f.rebuildMB,
			RebuildEnergyJ: f.rebuildEnergyJ,
			LSECleared:     f.lseCleared,
			Scrubs:         f.scrubs,
			ScrubMB:        f.scrubMB,
			Log:            f.log,
		}
		if r := f.raid; r != nil {
			st.Faults.RAID = &raidCkptState{
				Losses:        r.losses,
				LSELosses:     r.lseLosses,
				OverlapLosses: r.overlapLosses,
				FirstLoss:     r.firstLoss,
				Log:           r.log,
			}
		}
	}
	if s.trc != nil {
		st.Trace = s.trc.ckpt()
	}
	return st, nil
}

// writeCheckpoint snapshots the run and commits it through its spec.
func (s *sim) writeCheckpoint() error {
	st, err := s.buildState()
	if err != nil {
		return err
	}
	s.ckptSize, err = s.cfg.Checkpoint.Commit(s.eng.Now(), s.eng.Fired(), s.ckptSize, st.appendJSON)
	return err
}

// decodeCont is encodeCont's inverse.
func decodeCont(cs *contState) *cont {
	if cs == nil {
		return nil
	}
	return &cont{
		kind:        cs.Kind,
		fileID:      cs.FileID,
		to:          cs.To,
		disk:        cs.Disk,
		sizeMB:      cs.SizeMB,
		nextIssue:   cs.NextIssue,
		remainingMB: cs.RemainingMB,
		reqID:       cs.ReqID,
		attempt:     cs.Attempt,
	}
}

// sortedIDs returns m's keys in ascending order.
func sortedIDs(m map[int]int) []int {
	ids := make([]int, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// restoreBounds is what validate checks a snapshot's indexes against: the
// array's size and file set, and what its configuration can complete.
type restoreBounds struct {
	disks  int
	files  map[int]bool
	policy string
	writes bool // the policy takes write completions (WritePolicy)
	faults bool // fault injection is on
}

// cont rejects a continuation of unknown kind, and every index its
// completion will follow: a disk or target outside the array, a file
// outside the file set, a policy write with no hook to report to, and fault
// work in a run without faults.
func (b *restoreBounds) cont(cs *contState) error {
	if cs == nil {
		return nil
	}
	var disk, file bool // which of Disk (or To) and FileID the kind uses
	field, d := "disk", cs.Disk
	switch cs.Kind {
	case contMigrateRead, contMigrateWrite:
		field, d, disk, file = "to", cs.To, true, true
	case contRebuild, contScrub:
		disk = true
		if !b.faults {
			return fmt.Errorf("%s continuation but faults are disabled", cs.Kind)
		}
	case contPolicyWrite:
		disk, file = true, true
	case contFleet:
	default:
		return fmt.Errorf("unknown continuation kind %q", cs.Kind)
	}
	switch {
	case disk && (d < 0 || d >= b.disks):
		return fmt.Errorf("%s continuation: %s %d outside [0, %d)", cs.Kind, field, d, b.disks)
	case file && !b.files[cs.FileID]:
		return fmt.Errorf("%s continuation: unknown file %d", cs.Kind, cs.FileID)
	case cs.Kind == contPolicyWrite && !b.writes:
		return fmt.Errorf("policy %q has a write in flight but no write-completion hook", b.policy)
	}
	return nil
}

// op rejects an op of unknown kind, a user op of a file outside the file
// set, a stripe index out of range or on an op that is not a chunk, and a
// bad continuation. It counts the ops holding each stripe in holders.
func (b *restoreBounds) op(os *opState, holders []int) error {
	switch {
	case os.Kind < int(opUser) || os.Kind > int(opChunk):
		return fmt.Errorf("unknown op kind %d", os.Kind)
	case os.Kind == int(opUser) && !b.files[os.FileID]:
		return fmt.Errorf("user op of unknown file %d", os.FileID)
	case os.Stripe < -1 || os.Stripe >= len(holders):
		return fmt.Errorf("stripe %d out of range", os.Stripe)
	case (os.Stripe >= 0) != (os.Kind == int(opChunk)):
		return fmt.Errorf("op of kind %d on stripe %d: only chunks belong to a stripe", os.Kind, os.Stripe)
	}
	if os.Stripe >= 0 {
		holders[os.Stripe]++
	}
	return b.cont(os.Done)
}

// validate reports why st cannot be restored under cfg, whose defaults are
// set and which passed Validate. It is the one owner of that rule, and runs
// on the decoded payload before anything is rebuilt: it checks every index,
// set membership and cross-reference that restoreSim and the resumed run
// will follow, so the rebuild only assigns. The model packages check their
// own checkpoint types (diskmodel.Checkpoint, faults.Checkpoint,
// stats.LatencyHistogramState), the engine its position (des.CheckLedger,
// which a fleet member leaves to its fleet, since it holds only part of the
// shared engine's events), and the policy its state in LoadState.
func (st *simState) validate(cfg *Config, member bool) error {
	if _, ok := cfg.Policy.(CheckpointablePolicy); !ok {
		return fmt.Errorf("policy %q does not support checkpointing", cfg.Policy.Name())
	}
	if st.PolicyName != cfg.Policy.Name() {
		return fmt.Errorf("checkpoint was taken under policy %q, config has %q", st.PolicyName, cfg.Policy.Name())
	}
	if len(st.Disks) != cfg.Disks {
		return fmt.Errorf("checkpoint has %d disks, config has %d", len(st.Disks), cfg.Disks)
	}
	b := restoreBounds{
		disks:  cfg.Disks,
		files:  make(map[int]bool, len(cfg.Trace.Files)),
		policy: cfg.Policy.Name(),
		faults: cfg.Faults != nil && cfg.Faults.Enabled,
	}
	for _, f := range cfg.Trace.Files {
		b.files[f.ID] = true
	}
	_, b.writes = cfg.Policy.(WritePolicy)

	holders := make([]int, len(st.Stripes))
	for i := range st.Disks {
		dc := &st.Disks[i]
		if err := dc.Disk.Validate(st.Clock); err != nil {
			return fmt.Errorf("disk %d: %w", i, err)
		}
		if err := dc.Temp.Validate(st.Clock); err != nil {
			return fmt.Errorf("disk %d: %w", i, err)
		}
		if p := dc.Pending; p != nil && *p != diskmodel.Low && *p != diskmodel.High {
			return fmt.Errorf("disk %d: pending speed %d is neither low nor high", i, int(*p))
		}
		if !b.faults && (dc.Failed || dc.SpareAssigned || dc.Rebuilding) {
			return fmt.Errorf("disk %d: failure state but faults are disabled", i)
		}
		// A live idle disk starts its next op at once (kick), so one with
		// work queued would wait for nothing.
		if !dc.Failed && dc.Disk.State == diskmodel.Idle && len(dc.FG)+len(dc.BG) > 0 {
			return fmt.Errorf("disk %d is idle with %d ops queued", i, len(dc.FG)+len(dc.BG))
		}
		for _, q := range [2][]opState{dc.FG, dc.BG} {
			for j := range q {
				if err := b.op(&q[j], holders); err != nil {
					return err
				}
			}
		}
	}

	reqs := cfg.Trace.Requests
	if st.NextReq < 0 || st.NextReq > len(reqs) {
		return fmt.Errorf("next_req %d outside [0, %d]", st.NextReq, len(reqs))
	}
	// The simulator indexes disks by placement.
	for _, id := range sortedIDs(st.Place.m) {
		if !b.files[id] {
			return fmt.Errorf("placement of unknown file %d", id)
		}
		if d := st.Place.m[id]; d < 0 || d >= cfg.Disks {
			return fmt.Errorf("file %d placed on disk %d outside [0, %d)", id, d, cfg.Disks)
		}
	}
	if st.Counts != nil {
		for _, id := range sortedIDs(st.Counts.m) {
			if !b.files[id] {
				return fmt.Errorf("access count of unknown file %d", id)
			}
		}
	}
	for _, id := range st.Migrating {
		if !b.files[id] {
			return fmt.Errorf("migration of unknown file %d", id)
		}
	}
	if st.RespStream != st.RespHist.Stream {
		return fmt.Errorf("resp_stream differs from resp_hist.stream")
	}
	if err := st.RespHist.Validate(respLoExp, respHiExp, respPerDecade); err != nil {
		return err
	}

	switch f := st.Faults; {
	case f != nil && !b.faults:
		return fmt.Errorf("checkpoint has fault state but faults are disabled")
	case f == nil && b.faults:
		return fmt.Errorf("faults enabled but checkpoint has no fault state")
	case f != nil:
		if n := len(f.Injector.Disks); n != cfg.Disks {
			return fmt.Errorf("fault injector has %d disks, config has %d", n, cfg.Disks)
		}
		if f.Spares < 0 || f.SparesUsed < 0 {
			return fmt.Errorf("negative spare count (spares %d, spares_used %d)", f.Spares, f.SparesUsed)
		}
		if err := f.Injector.Validate(cfg.Disks); err != nil {
			return err
		}
		if f.RAID != nil && !cfg.RAID.Enabled() {
			return fmt.Errorf("checkpoint has RAID state but no RAID organization is configured")
		}
		if f.RAID == nil && cfg.RAID.Enabled() {
			return fmt.Errorf("RAID organization configured but checkpoint has no RAID state")
		}
	}
	tracing := cfg.Telemetry != nil && cfg.Telemetry.Decisions != nil
	if st.Trace != nil && !tracing {
		return fmt.Errorf("checkpoint has decision-trace state but the recorder has no DecisionLog")
	}
	if st.Trace == nil && tracing {
		return fmt.Errorf("decision tracing enabled but checkpoint has no trace state")
	}

	// An event keeps the run going until it fires when it holds a disk
	// busy (service, transition, the repair a parked queue waits for) or
	// arrivals pending, so each such event must fire no later than the
	// model can have scheduled it.
	var maxRepair float64
	if b.faults {
		maxRepair = cfg.Faults.Normalized().MaxRepairSeconds()
	}
	arrivals := 0
	services := make([]int, cfg.Disks)
	transitions := make([]int, cfg.Disks)
	repairs := make([]int, cfg.Disks)
	for i := range st.Events {
		se := &st.Events[i]
		kind := parseEvKind(se.Kind)
		switch {
		case kind == numEvKinds:
			return fmt.Errorf("unknown event kind %q", se.Kind)
		case se.Time < st.Clock:
			return fmt.Errorf("%s event at %v before the clock %v", se.Kind, se.Time, st.Clock)
		case kind == evCheckpoint && cfg.Checkpoint == nil:
			// A snapshot with pending checkpoint ticks must keep the
			// original cadence, or EventsFired (and the whole event
			// sequence) diverges from the uninterrupted run the resume
			// claims to equal.
			return fmt.Errorf("snapshot has pending checkpoint ticks; set Config.Checkpoint to the original interval")
		case !b.faults && (kind == evFaultTick || kind == evRepair || kind == evRebuildNext || kind == evScrub):
			return fmt.Errorf("%s event but faults are disabled", se.Kind)
		}
		// An absent field reads 0, which is always a valid disk. The index
		// is checked before the record narrows it to int32.
		for _, f := range [...]struct {
			name string
			d    int
		}{{"disk", se.Disk}, {"from", se.From}, {"to", se.To}} {
			if f.d < 0 || f.d >= cfg.Disks {
				return fmt.Errorf("%s event at %v: %s %d outside [0, %d)", se.Kind, se.Time, f.name, f.d, cfg.Disks)
			}
		}
		// The decoded record must write back exactly the wire fields it
		// was read from.
		back := recordFromSaved(se).toSaved(se.Time, se.Seq)
		back.Op = se.Op
		if back != *se {
			return fmt.Errorf("%s event at %v carries a wire field foreign to its kind", se.Kind, se.Time)
		}
		if (kind == evService) != (se.Op != nil) {
			return fmt.Errorf("%s event at %v: an op travels with service events only", se.Kind, se.Time)
		}
		latest := math.Inf(1) // the latest time the model can have scheduled it for
		switch dm := &st.Disks[se.Disk].Disk; kind {
		case evArrival:
			arrivals++
			if st.NextReq < len(reqs) {
				latest = max(reqs[st.NextReq].Arrival, st.Clock)
			}
		case evMigrateStart:
			if !b.files[se.FileID] {
				return fmt.Errorf("migrate-start event at %v: unknown file %d", se.Time, se.FileID)
			}
		case evTransition:
			transitions[se.Disk]++
			latest = dm.LastAccrual + cfg.DiskParams.TransitionTime(dm.TransitionTarget)
		case evService:
			// The disk's in-service op completes when the event fires.
			if services[se.Disk]++; services[se.Disk] > 1 {
				return fmt.Errorf("disk %d has more than one service event pending", se.Disk)
			}
			if err := b.op(se.Op, holders); err != nil {
				return err
			}
			latest = dm.LastAccrual + cfg.DiskParams.ServiceTimeAt(se.Op.SizeMB, dm.Speed, cfg.DiskParams.Seek.Cylinders)
		case evRepair:
			repairs[se.Disk]++
			latest = st.Clock + maxRepair
		}
		if se.Time > latest {
			return fmt.Errorf("%s event at %v: due by %v at the latest", se.Kind, se.Time, latest)
		}
	}
	// A disk in service ends with its service event, and a transition with
	// its transition event; an idle disk waits for neither.
	for i := range st.Disks {
		var svc, trans int
		switch st.Disks[i].Disk.State {
		case diskmodel.Active:
			svc = 1
		case diskmodel.Transitioning:
			trans = 1
		}
		if services[i] != svc || transitions[i] != trans {
			return fmt.Errorf("disk %d is %s with %d service and %d transition events pending",
				i, st.Disks[i].Disk.State, services[i], transitions[i])
		}
		// A failed disk waits for its one repair.
		if (repairs[i] == 1) != st.Disks[i].Failed || repairs[i] > 1 {
			return fmt.Errorf("disk %d: failed %v with %d repair events pending", i, st.Disks[i].Failed, repairs[i])
		}
	}
	// The arrival chain delivers the rest of the trace, one event at a time.
	if want := min(len(reqs)-st.NextReq, 1); arrivals != want {
		return fmt.Errorf("%d arrival events pending with %d requests to deliver, want %d",
			arrivals, len(reqs)-st.NextReq, want)
	}
	// A stripe completes when its last outstanding chunk does.
	for i := range st.Stripes {
		ss := &st.Stripes[i]
		if ss.Remaining != holders[i] {
			return fmt.Errorf("stripe %d has %d chunks outstanding but %d ops", i, ss.Remaining, holders[i])
		}
		if ss.Lost && !b.faults {
			return fmt.Errorf("stripe %d lost but faults are disabled", i)
		}
		if err := b.cont(ss.Done); err != nil {
			return err
		}
	}
	if !member {
		return des.CheckLedger(st.Seq, st.Fired, st.eventSeqs())
	}
	return nil
}

// eventSeqs returns the pending events' sequence numbers in saved order.
func (st *simState) eventSeqs() []uint64 {
	seqs := make([]uint64, len(st.Events))
	for i := range st.Events {
		seqs[i] = st.Events[i].Seq
	}
	return seqs
}

// Resume reconstructs a simulation from a checkpoint payload produced under
// the same configuration and runs it to completion. The policy is NOT
// re-initialized (Init-time placement is only legal at t=0); it must be a
// freshly constructed instance with the same configuration, and its saved
// state is loaded into it.
func Resume(cfg Config, stateJSON []byte) (*Result, error) {
	s, err := resume(cfg, stateJSON)
	if err != nil {
		return nil, err
	}
	return s.finish()
}

// decodeState parses a checkpoint payload and validates it under cfg,
// whose defaults are set, as a fleet member's when member is set; nothing
// is rebuilt.
func decodeState(cfg *Config, stateJSON []byte, member bool) (*simState, error) {
	st := new(simState)
	if err := json.Unmarshal(stateJSON, st); err != nil {
		return nil, fmt.Errorf("array: resume: parse state: %w", err)
	}
	if err := st.validate(cfg, member); err != nil {
		return nil, fmt.Errorf("array: resume: %w", err)
	}
	return st, nil
}

// resume is Resume up to running the restored simulation: it rebuilds the
// sim and restores its engine.
func resume(cfg Config, stateJSON []byte) (*sim, error) {
	if err := cfg.prepare(false); err != nil {
		return nil, err
	}
	st, err := decodeState(&cfg, stateJSON, false)
	if err != nil {
		return nil, err
	}
	s, evs, err := restoreSim(cfg, st, nil, nil)
	if err != nil {
		return nil, err
	}
	if err := s.eng.Restore(st.Clock, st.Seq, st.Fired, evs); err != nil {
		return nil, fmt.Errorf("array: resume: %w", err)
	}
	return s, nil
}

// restoreSim rebuilds a sim from a checkpoint payload that passed validate:
// disks, queues, counters, policy, faults, and telemetry are restored, and
// the saved pending events come back as the engine's, their records already
// in the sim's slab, for the caller's des.Engine.Restore. The engine is NOT
// touched, which lets a cluster restore the events of several sims sharing
// one engine together. The errors left are the callees' own: a
// configuration the constructors reject, and the policy's LoadState.
func restoreSim(cfg Config, st *simState, eng *des.Engine, host Host) (*sim, []des.PendingEvent, error) {
	s, err := newSim(cfg, eng, host)
	if err != nil {
		return nil, nil, err
	}
	stripes := make([]*stripeJob, len(st.Stripes))
	for i, ss := range st.Stripes {
		stripes[i] = &stripeJob{
			fileID: ss.FileID, arrival: ss.Arrival, remaining: ss.Remaining, lost: ss.Lost, done: decodeCont(ss.Done),
		}
	}
	decodeOp := func(os *opState) op {
		o := op{
			kind:     opKind(os.Kind),
			fileID:   os.FileID,
			sizeMB:   os.SizeMB,
			arrival:  os.Arrival,
			mig:      os.Mig,
			rerouted: os.Rerouted,
			done:     decodeCont(os.Done),
		}
		if ts := os.stampState; s.trc != nil || ts != (stampState{}) {
			o.tr = &opStamps{enqT: ts.EnqT, spinBase: ts.SpinBase, waitSpin: ts.WaitSpin, svcDur: ts.SvcDur}
		}
		if os.Stripe >= 0 {
			o.stripe = stripes[os.Stripe]
		}
		return o
	}

	for i := range st.Disks {
		dc := &st.Disks[i]
		ds := s.disks[i]
		ds.disk = diskmodel.Restore(i, cfg.DiskParams, dc.Disk)
		ds.temp = thermal.RestoreTracker(cfg.Thermal, dc.Temp)
		if dc.Pending != nil {
			p := *dc.Pending
			ds.pending = &p
		}
		ds.idleTimeout = dc.IdleTimeout
		ds.idleArmed = dc.IdleArmed
		ds.failed = dc.Failed
		ds.spareAssigned = dc.SpareAssigned
		ds.rebuilding = dc.Rebuilding
		ds.rebuildMBps = dc.RebuildMBps
		ds.gen = dc.Gen
		ds.transBusy = dc.TransBusy
		ds.transStart = dc.TransStart
		for j := range dc.FG {
			ds.fg.push(decodeOp(&dc.FG[j]))
		}
		for j := range dc.BG {
			ds.bg.push(decodeOp(&dc.BG[j]))
		}
	}

	s.nextReq = st.NextReq
	s.migrations = st.Migrations
	s.backgroundOps = st.BackgroundOps
	s.epochs = st.Epochs
	s.migsThisEpoch = st.MigsThisEpoch
	if st.Place.m != nil {
		s.place = st.Place.m
	}
	if st.Counts != nil && st.Counts.m != nil {
		s.counts = st.Counts.m
	}
	for _, id := range st.Migrating {
		s.migrating[id] = true
	}
	s.respHist.SetState(st.RespHist)

	pol := cfg.Policy.(CheckpointablePolicy)
	if err := pol.LoadState(st.Policy); err != nil {
		return nil, nil, fmt.Errorf("array: resume: policy %q load: %w", pol.Name(), err)
	}

	if f := st.Faults; f != nil {
		fcfg := cfg.Faults.Normalized()
		inj, err := faults.RestoreInjector(fcfg, f.Injector)
		if err != nil {
			return nil, nil, fmt.Errorf("array: resume: %w", err)
		}
		s.flt = &faultState{
			cfg:            fcfg,
			inj:            inj,
			spares:         f.Spares,
			sparesUsed:     f.SparesUsed,
			failures:       f.Failures,
			repairs:        f.Repairs,
			dataLoss:       f.DataLoss,
			firstLoss:      f.FirstLoss,
			lostRequests:   f.LostRequests,
			degraded:       f.Degraded,
			reassigned:     f.Reassigned,
			rebuildMB:      f.RebuildMB,
			rebuildEnergyJ: f.RebuildEnergyJ,
			lseCleared:     f.LSECleared,
			scrubs:         f.Scrubs,
			scrubMB:        f.ScrubMB,
			log:            f.Log,
		}
		if r := f.RAID; r != nil {
			raid, err := newRAIDState(cfg.RAID, cfg.Disks)
			if err != nil {
				return nil, nil, fmt.Errorf("array: resume: %w", err)
			}
			raid.losses = r.Losses
			raid.lseLosses = r.LSELosses
			raid.overlapLosses = r.OverlapLosses
			raid.firstLoss = r.FirstLoss
			raid.log = r.Log
			s.flt.raid = raid
		}
	}

	if st.Trace != nil {
		s.trc.restore(st.Trace)
	}

	evs := make([]des.PendingEvent, len(st.Events))
	for i := range st.Events {
		se := &st.Events[i]
		rec := recordFromSaved(se)
		if se.Op != nil {
			s.disks[rec.Disk].svc = decodeOp(se.Op)
		}
		evs[i] = des.PendingEvent{Seq: se.Seq, Time: se.Time, Label: evKinds[rec.Kind].label, Owner: s, Slot: s.recs.Put(rec)}
	}
	return s, evs, nil
}

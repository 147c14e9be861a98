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
	"repro/internal/telemetry"
	"repro/internal/thermal"
)

// CheckpointSpec configures periodic snapshotting for one run.
type CheckpointSpec struct {
	// EverySimSeconds is the snapshot period in virtual seconds. The
	// checkpoint tick is a DES event, so runs being compared bit-for-bit
	// must share the same period (or both disable it).
	EverySimSeconds float64
	// Path is the snapshot file, rewritten atomically on every tick.
	Path string
	// Tool and ConfigDigest identify the producing run in the envelope;
	// Resume refuses a snapshot whose digest does not match its config.
	Tool         string
	ConfigDigest string
	// Sink, when non-nil, receives the encoded envelope instead of Path —
	// the in-process hook the kill/resume equivalence test uses.
	Sink func(data []byte) error
}

// validateCheckpointSpec rejects unusable checkpoint configurations up
// front, including a policy that cannot be serialized.
func validateCheckpointSpec(cfg *Config) error {
	spec := cfg.Checkpoint
	if spec == nil {
		return nil
	}
	if spec.EverySimSeconds <= 0 || math.IsNaN(spec.EverySimSeconds) {
		return fmt.Errorf("array: checkpoint interval %v must be positive", spec.EverySimSeconds)
	}
	if spec.Path == "" && spec.Sink == nil {
		return fmt.Errorf("array: checkpoint needs a path or a sink")
	}
	if _, ok := cfg.Policy.(CheckpointablePolicy); !ok {
		return fmt.Errorf("array: policy %q does not support checkpointing", cfg.Policy.Name())
	}
	return nil
}

// installCheckpoints arms the periodic checkpoint tick.
func (s *sim) installCheckpoints() {
	spec := s.cfg.Checkpoint
	if spec == nil || spec.EverySimSeconds <= 0 {
		return
	}
	s.schedule(spec.EverySimSeconds, eventRecord{Kind: evCheckpoint})
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
	LastEnergy  float64  `json:"last_energy,omitempty"`
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
	case evSample:
		se.LastEnergy = rec.X
	case evMigrateStart:
		se.From, se.To, se.FileID, se.SizeMB = d, int(rec.To), int(rec.N), rec.X
	case evRebuildNext:
		se.Disk, se.RemainingMB = d, rec.X
	}
	return se
}

// recordFromSaved is toSaved's inverse for an array of disks disks. It
// rejects a disk index outside [0, disks) before narrowing it to the
// record's int32, and a wire field foreign to the event's kind: the decoded
// record must write back exactly the wire fields it was read from.
func recordFromSaved(se *savedEvent, disks int) (eventRecord, error) {
	kind, err := parseEvKind(se.Kind)
	if err != nil {
		return eventRecord{}, err
	}
	// An absent field reads 0, which is always a valid disk.
	for _, f := range [...]struct {
		name string
		d    int
	}{{"disk", se.Disk}, {"from", se.From}, {"to", se.To}} {
		if f.d < 0 || f.d >= disks {
			return eventRecord{}, fmt.Errorf("array: %s event at %v: %s %d outside [0, %d)", se.Kind, se.Time, f.name, f.d, disks)
		}
	}
	rec := eventRecord{Kind: kind}
	switch kind {
	case evTransition, evRepair, evScrub:
		rec = diskEvent(kind, se.Disk)
	case evService:
		rec = serviceEvent(se.Disk, se.Gen)
	case evIdleArm:
		rec = idleArmEvent(se.Disk, se.Deadline, se.Timeout)
	case evIdleRearm:
		rec = idleRearmEvent(se.Disk, se.Timeout)
	case evSample:
		rec = sampleEvent(se.LastEnergy)
	case evMigrateStart:
		rec = migrateStartEvent(se.FileID, se.From, se.To, se.SizeMB)
	case evRebuildNext:
		rec = rebuildNextEvent(se.Disk, se.RemainingMB)
	}
	back := rec.toSaved(se.Time, se.Seq)
	back.Op = se.Op
	if back != *se {
		return eventRecord{}, fmt.Errorf("array: %s event at %v carries a wire field foreign to its kind", se.Kind, se.Time)
	}
	return rec, nil
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
// could be taken, ctx is a stateless singleton rebuilt by newSimOn (it
// carries only the sim pointer), recs — the pending events' records —
// travels inside Events and is refilled as restore re-schedules them,
// freeConts and freeStamps hold only released continuations and stamps that
// nothing references, and wireOrder is derived from files. RespStream repeats RespHist.Stream: the wire format keeps both
// copies, and restore rejects a state in which they differ.
//
//simlint:checkpoint-for sim ignore=cfg,eng,files,writer,failure,live,host,ctx,recs,freeConts,freeStamps,wireOrder alias=met:Metrics,flt:Faults,trc:Trace
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
	Timeline      []Sample                    `json:"timeline,omitempty"`
	Policy        json.RawMessage             `json:"policy"`
	Faults        *faultCkptState             `json:"faults,omitempty"`
	Events        []savedEvent                `json:"events"`
	Metrics       *telemetry.RegistryState    `json:"metrics,omitempty"`
	Trace         *traceCkptState             `json:"trace,omitempty"`
}

// fileMap is the wire form of a file-keyed map: placement, or this epoch's
// access counts. It encodes byte for byte as encoding/json encodes a
// map[int]int, keys in the order of their decimal strings, but walks order,
// the run's file IDs presorted that way (sim.fileOrder), instead of
// formatting and sorting every key on every snapshot. A key outside order,
// which only a state decoded from elsewhere can hold, sends the whole map
// through sortedKeys instead.
type fileMap struct {
	m     map[int]int
	order []int
}

func (f fileMap) MarshalJSON() ([]byte, error) {
	if f.m == nil {
		return []byte("null"), nil
	}
	// A key and its value take at most 20 bytes each plus 4 of punctuation;
	// file IDs and counts are short, so this is a generous first guess.
	buf := make([]byte, 0, 2+16*len(f.m))
	buf = append(buf, '{')
	n := 0
	for _, id := range f.order {
		if v, ok := f.m[id]; ok {
			buf = appendEntry(buf, n, id, v)
			n++
		}
	}
	if n != len(f.m) {
		buf = buf[:1]
		for i, id := range sortedKeys(f.m) {
			buf = appendEntry(buf, i, id, f.m[id])
		}
	}
	return append(buf, '}'), nil
}

func (f *fileMap) UnmarshalJSON(data []byte) error {
	return json.Unmarshal(data, &f.m)
}

// appendEntry appends the i-th `"id":v` entry of a JSON object.
func appendEntry(buf []byte, i, id, v int) []byte {
	if i > 0 {
		buf = append(buf, ',')
	}
	buf = append(buf, '"')
	buf = strconv.AppendInt(buf, int64(id), 10)
	buf = append(buf, '"', ':')
	return strconv.AppendInt(buf, int64(v), 10)
}

// sortedKeys returns m's keys in the order encoding/json writes them.
func sortedKeys(m map[int]int) []int {
	ids := make([]int, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	slices.SortFunc(ids, compareDecimal)
	return ids
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
		Timeline:      s.timeline,
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
	if s.cfg.Telemetry != nil {
		st.Metrics = s.cfg.Telemetry.Metrics.State()
	}
	if s.trc != nil {
		st.Trace = s.trc.ckpt()
	}
	return st, nil
}

// writeCheckpoint snapshots the run into its envelope and commits it to the
// configured sink or path (atomically).
func (s *sim) writeCheckpoint() error {
	st, err := s.buildState()
	if err != nil {
		return err
	}
	data, err := json.Marshal(st)
	if err != nil {
		return err
	}
	spec := s.cfg.Checkpoint
	env := &checkpoint.Envelope{
		Version:      checkpoint.Version,
		Tool:         spec.Tool,
		ConfigDigest: spec.ConfigDigest,
		SimTime:      s.eng.Now(),
		EventsFired:  s.eng.Fired(),
		State:        data,
	}
	if spec.Sink != nil {
		enc, err := checkpoint.Encode(env)
		if err != nil {
			return err
		}
		return spec.Sink(enc)
	}
	return checkpoint.Write(spec.Path, env)
}

// decodeCont is encodeCont's inverse. It rejects an unknown kind, and every
// index the kind's completion will use: a disk or target outside the array,
// a file outside the file set, and a policy write with no hook to report to.
func (s *sim) decodeCont(cs *contState) (*cont, error) {
	if cs == nil {
		return nil, nil
	}
	var disk, file bool // which of Disk (or To) and FileID the kind uses
	field, d := "disk", cs.Disk
	switch cs.Kind {
	case contMigrateRead, contMigrateWrite:
		field, d, disk, file = "to", cs.To, true, true
	case contRebuild, contScrub:
		disk = true
	case contPolicyWrite:
		disk, file = true, true
	case contFleet:
	default:
		return nil, fmt.Errorf("array: unknown continuation kind %q", cs.Kind)
	}
	if disk && (d < 0 || d >= len(s.disks)) {
		return nil, fmt.Errorf("array: resume: %s continuation: %s %d outside [0, %d)", cs.Kind, field, d, len(s.disks))
	}
	if _, ok := s.files[cs.FileID]; file && !ok {
		return nil, fmt.Errorf("array: resume: %s continuation: unknown file %d", cs.Kind, cs.FileID)
	}
	if cs.Kind == contPolicyWrite && s.writer == nil {
		return nil, fmt.Errorf("array: resume: policy %q has a write in flight but no write-completion hook", s.cfg.Policy.Name())
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
	}, nil
}

// RestoredEvent is one pending DES event decoded from a checkpoint but not
// yet re-scheduled. Resume schedules its own events directly; a cluster
// restore first merge-sorts the RestoredEvents of every owner of the shared
// engine (router + members) by Seq, then schedules them in that global order
// so same-instant FIFO ties break exactly as in the original run.
type RestoredEvent struct {
	// Seq is the event's sequence number in the original engine.
	Seq uint64
	// Time is the event's absolute virtual fire time.
	Time float64

	s   *sim
	rec eventRecord
}

// Schedule re-schedules the event onto its sim's engine. Calls must happen
// between the engine's BeginRestore and FinishRestore, in ascending Seq
// order across all owners.
func (re RestoredEvent) Schedule() error { return re.s.at(re.Time, re.rec) }

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

// resume is Resume up to running the restored simulation: it rebuilds the
// sim and re-schedules its pending events.
func resume(cfg Config, stateJSON []byte) (*sim, error) {
	cfg.setDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := validateCheckpointSpec(&cfg); err != nil {
		return nil, err
	}
	var st simState
	if err := json.Unmarshal(stateJSON, &st); err != nil {
		return nil, fmt.Errorf("array: resume: parse state: %w", err)
	}
	if cfg.Checkpoint == nil {
		// A snapshot with pending checkpoint ticks must keep the original
		// cadence, or EventsFired (and the whole event sequence) diverges
		// from the uninterrupted run the resume claims to equal.
		for _, se := range st.Events {
			if se.Kind == evCheckpoint.String() {
				return nil, fmt.Errorf("array: resume: snapshot has pending checkpoint ticks; set Config.Checkpoint to the original interval")
			}
		}
	}
	s, evs, err := restoreSim(cfg, &st, nil, nil)
	if err != nil {
		return nil, err
	}
	if err := s.eng.BeginRestore(st.Clock); err != nil {
		return nil, fmt.Errorf("array: resume: %w", err)
	}
	for _, re := range evs {
		if err := re.Schedule(); err != nil {
			return nil, fmt.Errorf("array: resume: re-schedule %s@%v: %w", re.rec.Kind, re.Time, err)
		}
	}
	if err := s.eng.FinishRestore(st.Seq, st.Fired); err != nil {
		return nil, fmt.Errorf("array: resume: %w", err)
	}
	return s, nil
}

// restoreSim rebuilds a sim from a decoded checkpoint payload: disks,
// queues, counters, policy, faults, and telemetry are restored, and the
// saved pending events are decoded into RestoredEvents (in saved order,
// which is ascending original Seq) for the caller to schedule. The engine is
// NOT touched — the caller brackets Schedule calls with BeginRestore and
// FinishRestore, which lets a cluster restore interleave the events of
// several sims sharing one engine.
func restoreSim(cfg Config, st *simState, eng *des.Engine, host Host) (*sim, []RestoredEvent, error) {
	pol, ok := cfg.Policy.(CheckpointablePolicy)
	if !ok {
		return nil, nil, fmt.Errorf("array: resume: policy %q does not support checkpointing", cfg.Policy.Name())
	}
	if st.PolicyName != cfg.Policy.Name() {
		return nil, nil, fmt.Errorf("array: resume: checkpoint was taken under policy %q, config has %q",
			st.PolicyName, cfg.Policy.Name())
	}
	if len(st.Disks) != cfg.Disks {
		return nil, nil, fmt.Errorf("array: resume: checkpoint has %d disks, config has %d",
			len(st.Disks), cfg.Disks)
	}
	s, err := newSimOn(cfg, eng, host)
	if err != nil {
		return nil, nil, err
	}

	stripes := make([]*stripeJob, len(st.Stripes))
	for i, ss := range st.Stripes {
		done, err := s.decodeCont(ss.Done)
		if err != nil {
			return nil, nil, err
		}
		stripes[i] = &stripeJob{
			fileID: ss.FileID, arrival: ss.Arrival, remaining: ss.Remaining, lost: ss.Lost, done: done,
		}
	}
	decodeOp := func(os opState) (op, error) {
		o := op{
			kind:     opKind(os.Kind),
			fileID:   os.FileID,
			sizeMB:   os.SizeMB,
			arrival:  os.Arrival,
			mig:      os.Mig,
			rerouted: os.Rerouted,
		}
		if ts := os.stampState; s.trc != nil || ts != (stampState{}) {
			o.tr = &opStamps{enqT: ts.EnqT, spinBase: ts.SpinBase, waitSpin: ts.WaitSpin, svcDur: ts.SvcDur}
		}
		if os.Stripe >= 0 {
			if os.Stripe >= len(stripes) {
				return op{}, fmt.Errorf("array: resume: stripe %d out of range", os.Stripe)
			}
			o.stripe = stripes[os.Stripe]
		}
		c, err := s.decodeCont(os.Done)
		if err != nil {
			return op{}, err
		}
		o.done = c
		return o, nil
	}

	for i, dc := range st.Disks {
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
		for _, os := range dc.FG {
			o, err := decodeOp(os)
			if err != nil {
				return nil, nil, err
			}
			ds.fg.push(o)
		}
		for _, os := range dc.BG {
			o, err := decodeOp(os)
			if err != nil {
				return nil, nil, err
			}
			ds.bg.push(o)
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
	if st.RespStream != st.RespHist.Stream {
		return nil, nil, fmt.Errorf("array: resume: resp_stream differs from resp_hist.stream")
	}
	if err := s.respHist.SetState(st.RespHist); err != nil {
		return nil, nil, fmt.Errorf("array: resume: %w", err)
	}
	s.timeline = st.Timeline

	if err := pol.LoadState(st.Policy); err != nil {
		return nil, nil, fmt.Errorf("array: resume: policy %q load: %w", pol.Name(), err)
	}

	faultsOn := cfg.Faults != nil && cfg.Faults.Enabled
	switch {
	case st.Faults != nil && !faultsOn:
		return nil, nil, fmt.Errorf("array: resume: checkpoint has fault state but faults are disabled")
	case st.Faults == nil && faultsOn:
		return nil, nil, fmt.Errorf("array: resume: faults enabled but checkpoint has no fault state")
	case st.Faults != nil:
		fcfg := cfg.Faults.Normalized()
		inj, err := faults.RestoreInjector(fcfg, st.Faults.Injector)
		if err != nil {
			return nil, nil, fmt.Errorf("array: resume: %w", err)
		}
		s.flt = &faultState{
			cfg:            fcfg,
			inj:            inj,
			spares:         st.Faults.Spares,
			sparesUsed:     st.Faults.SparesUsed,
			failures:       st.Faults.Failures,
			repairs:        st.Faults.Repairs,
			dataLoss:       st.Faults.DataLoss,
			firstLoss:      st.Faults.FirstLoss,
			lostRequests:   st.Faults.LostRequests,
			degraded:       st.Faults.Degraded,
			reassigned:     st.Faults.Reassigned,
			rebuildMB:      st.Faults.RebuildMB,
			rebuildEnergyJ: st.Faults.RebuildEnergyJ,
			lseCleared:     st.Faults.LSECleared,
			scrubs:         st.Faults.Scrubs,
			scrubMB:        st.Faults.ScrubMB,
			log:            st.Faults.Log,
		}
		switch {
		case st.Faults.RAID != nil && !cfg.RAID.Enabled():
			return nil, nil, fmt.Errorf("array: resume: checkpoint has RAID state but no RAID organization is configured")
		case st.Faults.RAID == nil && cfg.RAID.Enabled():
			return nil, nil, fmt.Errorf("array: resume: RAID organization configured but checkpoint has no RAID state")
		case st.Faults.RAID != nil:
			raid, err := newRAIDState(cfg.RAID, cfg.Disks)
			if err != nil {
				return nil, nil, fmt.Errorf("array: resume: %w", err)
			}
			raid.losses = st.Faults.RAID.Losses
			raid.lseLosses = st.Faults.RAID.LSELosses
			raid.overlapLosses = st.Faults.RAID.OverlapLosses
			raid.firstLoss = st.Faults.RAID.FirstLoss
			raid.log = st.Faults.RAID.Log
			s.flt.raid = raid
		}
	}

	if cfg.Telemetry != nil {
		cfg.Telemetry.Metrics.SetState(st.Metrics)
	}
	switch {
	case st.Trace != nil && s.trc == nil:
		return nil, nil, fmt.Errorf("array: resume: checkpoint has decision-trace state but the recorder has no DecisionLog")
	case st.Trace == nil && s.trc != nil:
		return nil, nil, fmt.Errorf("array: resume: decision tracing enabled but checkpoint has no trace state")
	case st.Trace != nil:
		s.trc.restore(st.Trace)
	}

	evs := make([]RestoredEvent, 0, len(st.Events))
	for _, se := range st.Events {
		rec, err := recordFromSaved(&se, len(s.disks))
		if err != nil {
			return nil, nil, fmt.Errorf("array: resume: %w", err)
		}
		if (rec.Kind == evService) != (se.Op != nil) {
			return nil, nil, fmt.Errorf("array: resume: %s event at %v: an op travels with service events only", se.Kind, se.Time)
		}
		if se.Op != nil {
			o, err := decodeOp(*se.Op)
			if err != nil {
				return nil, nil, err
			}
			s.disks[rec.Disk].svc = o
		}
		evs = append(evs, RestoredEvent{Seq: se.Seq, Time: se.Time, s: s, rec: rec})
	}
	return s, evs, nil
}

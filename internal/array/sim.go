package array

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/des"
	"repro/internal/diskmodel"
	"repro/internal/faults"
	"repro/internal/reliability"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/thermal"
	"repro/internal/workload"
)

// Config describes one simulation run.
type Config struct {
	// Disks is the array size (paper sweep: 6..16).
	Disks int
	// DiskParams describes the two-speed drives; zero value means
	// diskmodel.DefaultParams().
	DiskParams diskmodel.Params
	// Thermal describes the temperature model; zero value means
	// thermal.Default().
	Thermal thermal.Model
	// Trace is the workload to replay.
	Trace *workload.Trace
	// Policy is the energy-saving strategy under test.
	Policy Policy
	// EpochSeconds is the period of Policy.OnEpoch; zero disables epochs.
	EpochSeconds float64
	// Press is the reliability model used for the final AFR; nil means
	// reliability.NewModel().
	Press *reliability.Model
	// MaxQueue guards against runaway simulations: a per-disk queue
	// exceeding it aborts the run with an error. Zero means 1,000,000.
	MaxQueue int
	// SampleInterval, when positive, records a timeline Sample of array
	// power, speeds, and queues every that many seconds of virtual time.
	SampleInterval float64
	// Faults configures failure injection. Nil (or a config with Enabled
	// false) disables the subsystem entirely, leaving results identical
	// to a run without it.
	Faults *faults.Config
	// Spares is the hot-spare pool: each failure consumes one spare (the
	// replacement absorbs queued work across the outage); a failure that
	// finds the pool empty is a data-loss event and its requests are lost.
	Spares int
	// RebuildMBps paces the post-repair rebuild traffic. Zero means 50.
	// When Faults.RebuildTime is set, each rebuild instead draws its total
	// duration from that distribution and paces itself to finish in it.
	RebuildMBps float64
	// RAID overlays a redundancy organization on the array: data loss is
	// then declared only when a failure combination defeats a group's
	// redundancy (see raid.go). The zero value disables the layer; enabling
	// it requires fault injection.
	RAID RAIDConfig
	// StallLimit is the event-loop watchdog: the run fails with a
	// diagnostic if this many consecutive events fire without the virtual
	// clock advancing. Zero means 1,000,000.
	StallLimit uint64
	// Telemetry, when non-nil, receives the run's instrumentation: registry
	// metrics, per-disk time-series samples on epoch boundaries, a DES
	// event trace (when the recorder has one), and progress lines. Nil
	// disables all instrumentation; the hot path then pays only nil checks
	// and zero allocations, and results are identical either way — the
	// sampler reads exclusively through non-mutating snapshot accessors and
	// schedules no events of its own.
	Telemetry *telemetry.Recorder
	// Watch, when non-nil, receives the engine's live position (virtual
	// time, events fired, pending queue depth, watchdog streak) through a
	// lock-free snapshot an ops server can read concurrently. Like
	// Telemetry it is observation-only: results are bit-identical with or
	// without it, and a nil watch costs the hot path one nil check.
	Watch *des.Watch
	// Checkpoint, when non-nil with a positive interval, snapshots the
	// complete simulation state periodically so an interrupted run can be
	// resumed bit-identically (see checkpoint.go). Nil disables the
	// subsystem; a run without it schedules no checkpoint events and is
	// identical to one that predates it. NOTE: the checkpoint tick is a real
	// DES event, so an uninterrupted run and its resumed twin only compare
	// bit-identically (EventsFired included) when both use the same
	// interval.
	Checkpoint *CheckpointSpec
	// DecisionOverrides forces the outcome of individual decisions during
	// counterfactual replay, keyed by decision sequence number (see
	// telemetry.Decision.Seq) with an override action (OverrideSkip). It
	// requires Telemetry with a DecisionLog — sequence numbers only exist
	// when decisions are being recorded — and deliberately changes results:
	// it is the one tracing feature that is not read-only.
	DecisionOverrides map[uint64]string
}

func (c *Config) setDefaults() {
	if c.DiskParams == (diskmodel.Params{}) {
		c.DiskParams = diskmodel.DefaultParams()
	}
	if c.Thermal == (thermal.Model{}) {
		c.Thermal = thermal.Default()
	}
	if c.Press == nil {
		c.Press = reliability.NewModel()
	}
	if c.MaxQueue == 0 {
		c.MaxQueue = 1_000_000
	}
	if c.RebuildMBps == 0 {
		c.RebuildMBps = 50
	}
	if c.StallLimit == 0 {
		c.StallLimit = 1_000_000
	}
}

// Validate reports the first configuration error.
func (c *Config) Validate() error {
	switch {
	case c.Disks < 2:
		return errors.New("array: need at least 2 disks")
	case c.Trace == nil:
		return errors.New("array: nil trace")
	case c.Policy == nil:
		return errors.New("array: nil policy")
	case c.EpochSeconds < 0:
		return errors.New("array: negative epoch")
	case c.MaxQueue < 0:
		return errors.New("array: negative max queue")
	case c.SampleInterval < 0:
		return errors.New("array: negative sample interval")
	case c.Spares < 0:
		return errors.New("array: negative spare count")
	case c.RebuildMBps < 0:
		return errors.New("array: negative rebuild rate")
	case len(c.DecisionOverrides) > 0 && (c.Telemetry == nil || c.Telemetry.Decisions == nil):
		return errors.New("array: DecisionOverrides requires a telemetry recorder with a DecisionLog")
	}
	if c.Faults != nil {
		if err := c.Faults.Validate(); err != nil {
			return err
		}
	}
	if c.RAID.Enabled() {
		if c.Faults == nil || !c.Faults.Enabled {
			return errors.New("array: RAID organization requires fault injection")
		}
		if err := c.RAID.Validate(c.Disks); err != nil {
			return err
		}
	}
	if err := c.DiskParams.Validate(); err != nil {
		return err
	}
	if err := c.Thermal.Validate(); err != nil {
		return err
	}
	return c.Trace.Validate()
}

// DiskResult is the per-disk outcome of a run.
type DiskResult struct {
	ID                int
	EnergyJ           float64
	Utilization       float64
	Transitions       int
	TransitionsPerDay float64
	MeanTempC         float64
	BusyTime          float64
	RequestsServed    int
	BytesServedMB     float64
	AFR               float64
	FinalSpeed        diskmodel.Speed
}

// Result is the outcome of one simulation run.
type Result struct {
	PolicyName string
	Disks      int

	// Duration is the virtual time at which the run finished (last
	// completion, including drain).
	Duration float64

	// Response-time statistics over user requests (seconds).
	MeanResponse float64
	P50Response  float64
	P95Response  float64
	P99Response  float64
	P999Response float64
	MaxResponse  float64
	Requests     int

	// EnergyJ is total array energy over Duration.
	EnergyJ float64

	// ArrayAFR is the PRESS integrator output: the AFR of the least
	// reliable disk, in percent.
	ArrayAFR float64

	// WorstDisk is the index of the disk that set ArrayAFR.
	WorstDisk int

	PerDisk []DiskResult

	// Bookkeeping counters.
	Migrations    int
	BackgroundOps int
	Epochs        int

	// EventsFired is the total number of DES events the run executed.
	EventsFired uint64

	// Timeline holds periodic samples when Config.SampleInterval > 0.
	Timeline []Sample

	// Attribution is the decision-tracing rollup: per-request latency and
	// energy decomposition plus per-kind decision counts and realized park
	// economics. Nil unless the run's telemetry recorder carried a
	// DecisionLog.
	Attribution *telemetry.AttributionReport

	// Fault-injection outcomes. All zero when Config.Faults is nil or
	// disabled.

	// DiskFailures counts injected disk failures.
	DiskFailures int
	// DiskRepairs counts replacements that came back up within the run.
	DiskRepairs int
	// SparesUsed counts failures absorbed by the hot-spare pool.
	SparesUsed int
	// DataLossEvents counts failures that found the spare pool empty.
	DataLossEvents int
	// MTTDLHours is the virtual time of the first data-loss event in
	// hours — the run's observed mean-time-to-data-loss sample. Zero
	// when no data loss occurred.
	MTTDLHours float64
	// LostRequests counts user requests dropped because their data was
	// on a failed disk with no spare and no re-assigned placement.
	LostRequests int
	// DegradedRequests counts user requests that were re-routed around a
	// failure, waited out an outage for a replacement drive, or arrived
	// at a disk that was rebuilding.
	DegradedRequests int
	// ReassignedFiles counts placements moved by policy failover
	// (Context.ReassignFile).
	ReassignedFiles int
	// RebuildMB is the data volume rewritten by rebuilds.
	RebuildMB float64
	// RebuildEnergyJ estimates the energy spent serving rebuild traffic.
	RebuildEnergyJ float64
	// FailureLog lists every observed failure in time order.
	FailureLog []FailureEvent

	// ExposureHours is the run's duration on the reliability timescale:
	// virtual hours multiplied by the fault acceleration factor. It is the
	// denominator of every rate estimated from injected events. Zero when
	// faults are off.
	ExposureHours float64

	// Latent-sector-error outcomes. All zero unless Faults.LSERatePerHour
	// is positive; LSEModeled distinguishes "modeled, none occurred" from
	// "not modeled".
	LSEModeled bool
	// LSEErrors counts latent sector errors that accumulated.
	LSEErrors int
	// LSECleared counts latent errors detected and repaired by scrubbing.
	LSECleared int
	// LSEPending is the count still latent at the end of the run.
	LSEPending int
	// Scrubs counts completed scrub passes; ScrubMB is their I/O volume.
	Scrubs  int
	ScrubMB float64

	// RAID-organization outcomes. All zero unless Config.RAID is enabled.

	// RAIDLevel echoes the configured organization ("" when disabled).
	RAIDLevel string
	// RAIDGroups is the number of redundancy groups.
	RAIDGroups int
	// RAIDDataLossEvents counts failure combinations that defeated a
	// group's redundancy; the next two split it by kind.
	RAIDDataLossEvents int
	RAIDLSELosses      int
	RAIDOverlapLosses  int
	// RAIDFirstLossHours is the virtual time of the first RAID data-loss
	// event in hours; zero when none occurred.
	RAIDFirstLossHours float64
	// MTTDLEstHours is ExposureHours divided by RAIDDataLossEvents — the
	// Monte-Carlo MTTDL estimate on the reliability timescale. Zero when no
	// loss was observed (the exposure is then a censored lower bound).
	MTTDLEstHours float64
	// RAIDLossLog lists every declared loss in time order.
	RAIDLossLog []RAIDLossEvent
}

type opKind uint8

const (
	opUser opKind = iota
	opBackground
	opChunk
)

// op is one queued or in-service disk operation. It is copied by value
// through the queues, so it is kept to 56 bytes: the kind and the two flags
// share one word, and the decision-tracing stamps live out of line.
type op struct {
	fileID  int
	sizeMB  float64
	arrival float64    // user request arrival time
	done    *cont      // completion continuation (see events.go); nil = none
	stripe  *stripeJob // for opChunk: the parent request
	// tr holds the latency-decomposition stamps. It is set only when
	// decision tracing is on (sim.trc != nil) and read only by trace.go.
	tr       *opStamps
	kind     opKind
	mig      bool // background leg of a Context.Migrate transfer
	rerouted bool // already re-routed around a failure once
}

// opStamps are the stamps that split an op's response time for decision
// tracing.
type opStamps struct {
	enqT     float64 // when the op entered its disk's queue
	spinBase float64 // disk's transition-busy clock at enqueue
	waitSpin float64 // transition time that elapsed while queued
	svcDur   float64 // service duration at dispatch
}

// stripeJob tracks one striped user request across its chunks.
type stripeJob struct {
	fileID    int
	arrival   float64
	remaining int
	lost      bool  // a chunk was lost to a failure: the request is lost
	done      *cont // fleet continuation run when the request resolves; nil = none
}

// fifo is a slice-backed queue with amortized compaction.
type fifo struct {
	buf  []op
	head int
}

func (q *fifo) len() int { return len(q.buf) - q.head }

func (q *fifo) push(o op) { q.buf = append(q.buf, o) }

func (q *fifo) pop() op {
	o := q.buf[q.head]
	q.buf[q.head] = op{} // release references
	q.head++
	if q.head > 64 && q.head*2 >= len(q.buf) {
		n := copy(q.buf, q.buf[q.head:])
		q.buf = q.buf[:n]
		q.head = 0
	}
	return o
}

// diskState is the scheduler state the array keeps per disk on top of the
// physical diskmodel.Disk. User requests and background transfers live in
// separate queues: foreground work always dispatches first, so migrations
// and cache copies soak up idle capacity instead of inflating user response
// times.
type diskState struct {
	disk        *diskmodel.Disk
	temp        *thermal.Tracker
	fg          fifo
	bg          fifo
	pending     *diskmodel.Speed // requested transition target
	idleTimeout float64          // 0 = disabled
	idleArmed   bool

	// svc is the op in service, held by value: its completion is the
	// disk's one pending service event. A disk holds at most one, because
	// the disk model stays Active from BeginService until that event's
	// EndService, and kick starts nothing on a non-Idle disk. Failure and
	// repair keep the model Active too — they bump gen instead — so the
	// slot is never overwritten while its event is pending.
	svc op

	// Fault lifecycle (only ever set when fault injection is enabled).
	failed        bool    // disk is down; rejects all I/O
	spareAssigned bool    // a spare absorbs this outage: queued work waits
	rebuilding    bool    // replacement is up and streaming rebuild traffic
	rebuildMBps   float64 // per-rebuild pacing from a Weibull duration draw; 0 = Config.RebuildMBps
	gen           uint64  // bumped on each failure; voids in-flight service

	// Spin-wait clock, maintained only when decision tracing is on
	// (sim.trc != nil): cumulative completed transition seconds, plus the
	// start time of the transition currently in progress (0 = none).
	transBusy  float64
	transStart float64
}

func (ds *diskState) queueLen() int { return ds.fg.len() + ds.bg.len() }

func (ds *diskState) push(o op) {
	if o.kind == opBackground {
		ds.bg.push(o)
		return
	}
	ds.fg.push(o)
}

func (ds *diskState) pop() op {
	if ds.fg.len() > 0 {
		return ds.fg.pop()
	}
	return ds.bg.pop()
}

// sim is the running simulation.
type sim struct {
	cfg     Config
	eng     *des.Engine
	disks   []*diskState
	files   map[int]workload.File
	place   map[int]int // fileID -> disk
	counts  map[int]int // per-epoch access counts
	nextReq int

	// respHist is the user response-time distribution; its own stream
	// gives the exact count, mean and maximum.
	respHist *stats.LatencyHistogram

	migrations    int
	backgroundOps int
	epochs        int
	migrating     map[int]bool // fileID -> migration in flight
	migsThisEpoch int          // for staggering migration starts
	timeline      []Sample

	met simMetrics // nil handles (no-ops) unless cfg.Telemetry is set

	// live is the ops-plane snapshot publisher, cached from
	// cfg.Telemetry.Live (nil when off: every publish is then a single
	// nil-receiver check and zero allocations).
	live *telemetry.Live

	flt *faultState // nil unless fault injection is enabled

	// trc is the decision-tracing state; nil unless the telemetry recorder
	// carries a DecisionLog (see trace.go).
	trc *traceState

	// recs holds the records of this sim's pending events (events.go),
	// indexed by the slot each was posted with.
	recs des.Slab[eventRecord]
	// ctx is the one Context handed to policy callbacks. Context carries
	// only the sim pointer, so a single cached instance replaces a heap
	// allocation at every callback site.
	ctx *Context
	// freeConts holds released continuations for newCont to reuse, so an
	// op's continuation allocates nothing in steady state.
	freeConts []*cont
	// freeStamps holds released decision-tracing stamps for newStamps to
	// reuse, so a traced op's stamps allocate nothing in steady state.
	freeStamps []*opStamps
	// wireOrder is the order checkpoints write file-keyed maps in, built by
	// fileOrder at the first snapshot.
	wireOrder []int
	// writer receives the completions of the policy's background writes
	// (contPolicyWrite). Context.EnqueueWrite sets it; it starts as the
	// configured policy, which is how a restored write finds its hook.
	writer WritePolicy

	// host is non-nil when this sim is a fleet member driven by a cluster
	// router over a shared engine (see member.go): arrivals come from
	// Member.Submit instead of the trace, liveness questions defer to the
	// host, and contFleet continuations report completions back to it.
	host Host

	failure error // sticky abort (queue explosion etc.)
}

// newSim builds the simulation shell shared by Run and Resume: metric
// bindings, file table, and empty disk scheduler states. Disk contents and
// the event queue are filled in by the caller (fresh for Run, from a
// snapshot for Resume).
func newSim(cfg Config) (*sim, error) {
	return newSimOn(cfg, nil, nil)
}

// newSimOn is newSim with an optional shared engine and host for fleet
// members. When eng is non-nil the sim schedules onto it instead of owning
// one, and leaves the engine's tracer/watch alone — the cluster that owns
// the engine installs those exactly once.
func newSimOn(cfg Config, eng *des.Engine, host Host) (*sim, error) {
	hist, err := stats.NewLatencyHistogram(-6, 5, 50)
	if err != nil {
		return nil, err
	}
	shared := eng != nil
	if eng == nil {
		eng = des.New()
	}
	s := &sim{
		cfg:       cfg,
		eng:       eng,
		host:      host,
		files:     make(map[int]workload.File, len(cfg.Trace.Files)),
		place:     make(map[int]int, len(cfg.Trace.Files)),
		counts:    make(map[int]int),
		respHist:  hist,
		migrating: make(map[int]bool),
	}
	s.ctx = &Context{s: s}
	s.writer, _ = cfg.Policy.(WritePolicy)
	if cfg.Telemetry != nil {
		s.met = newSimMetrics(cfg.Telemetry.Metrics)
		s.live = cfg.Telemetry.Live
		if tr := cfg.Telemetry.Tracer(); tr != nil && !shared {
			s.eng.SetTracer(tr)
		}
		if cfg.Telemetry.Decisions != nil {
			s.trc = newTraceState(&cfg)
		}
	}
	if !shared {
		s.eng.SetWatch(cfg.Watch)
	}
	for _, f := range cfg.Trace.Files {
		s.files[f.ID] = f
	}
	s.disks = make([]*diskState, cfg.Disks)
	for i := range s.disks {
		s.disks[i] = &diskState{}
	}
	return s, nil
}

// Run executes one simulation and returns its result.
func Run(cfg Config) (*Result, error) {
	cfg.setDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := validateCheckpointSpec(&cfg); err != nil {
		return nil, err
	}
	s, err := newSim(cfg)
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
	// Every file must be placed. Check in sorted ID order so the reported
	// file is the lowest unplaced one, not whichever map iteration found.
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
	// Apply initial speeds instantly: Init-time transitions model the
	// configuration of the array before the workload starts, not run-time
	// transitions, so they are free and uncounted.
	for i, ds := range s.disks {
		if ds.pending != nil && *ds.pending != ds.disk.Speed() {
			target := *ds.pending
			ds.disk = diskmodel.New(i, cfg.DiskParams, target)
			ds.temp = thermal.NewTracker(cfg.Thermal, target)
		}
		ds.pending = nil
	}

	// Arm initial idle timers.
	for i := range s.disks {
		s.armIdleTimer(i)
	}

	// Schedule the first arrival and epochs.
	if len(cfg.Trace.Requests) > 0 {
		first := cfg.Trace.Requests[0].Arrival
		if err := s.at(first, eventRecord{Kind: evArrival}); err != nil {
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
	s.installCheckpoints()
	return s.finish()
}

// finish drives the event loop to completion and collects the result; it is
// the common tail of Run and Resume.
func (s *sim) finish() (*Result, error) {
	watchdogErr := s.eng.RunGuarded(s.cfg.StallLimit)
	if s.failure != nil {
		return nil, s.failure
	}
	if watchdogErr != nil {
		return nil, fmt.Errorf("array: %w (policy %q, %d disks, %d/%d requests delivered)",
			watchdogErr, s.cfg.Policy.Name(), len(s.disks), s.nextReq, len(s.cfg.Trace.Requests))
	}
	s.cfg.Watch.MarkDone()
	return s.collect()
}

// onArrival injects the next trace request and schedules its successor.
func (s *sim) onArrival(e *des.Engine) {
	if s.failure != nil {
		return
	}
	req := s.cfg.Trace.Requests[s.nextReq]
	s.nextReq++
	s.met.arrivals.Inc()
	if s.nextReq < len(s.cfg.Trace.Requests) {
		next := s.cfg.Trace.Requests[s.nextReq].Arrival
		if next < e.Now() {
			next = e.Now()
		}
		if err := s.at(next, eventRecord{Kind: evArrival}); err != nil {
			s.fail(err)
			return
		}
	}

	f, ok := s.files[req.FileID]
	if !ok {
		s.fail(fmt.Errorf("array: request for unknown file %d", req.FileID))
		return
	}
	s.counts[req.FileID]++
	ctx := s.ctx
	s.setHook(hookArrival)
	defer s.endHook()

	if sp, ok := s.cfg.Policy.(StripePolicy); ok {
		targets := sp.StripeTargets(ctx, req.FileID)
		if len(targets) >= 2 {
			s.dispatchStriped(req.FileID, f.SizeMB, req.Arrival, targets)
			return
		}
	}
	target := s.cfg.Policy.TargetDisk(ctx, req.FileID)
	if target < 0 || target >= len(s.disks) {
		s.fail(fmt.Errorf("array: policy %q targeted invalid disk %d", s.cfg.Policy.Name(), target))
		return
	}
	s.enqueue(target, op{kind: opUser, fileID: req.FileID, sizeMB: f.SizeMB, arrival: req.Arrival})
}

// dispatchStriped fans a request out as equal chunks, one per target disk.
func (s *sim) dispatchStriped(fileID int, sizeMB, arrival float64, targets []int) {
	s.dispatchStripedDone(fileID, sizeMB, arrival, targets, nil)
}

// dispatchStripedDone is dispatchStriped with a fleet continuation attached
// to the stripe job; done runs once, when the whole request resolves.
func (s *sim) dispatchStripedDone(fileID int, sizeMB, arrival float64, targets []int, done *cont) {
	for _, d := range targets {
		if d < 0 || d >= len(s.disks) {
			s.fail(fmt.Errorf("array: policy %q striped file %d to invalid disk %d",
				s.cfg.Policy.Name(), fileID, d))
			return
		}
	}
	job := &stripeJob{fileID: fileID, arrival: arrival, remaining: len(targets), done: done}
	chunk := sizeMB / float64(len(targets))
	for _, d := range targets {
		s.enqueue(d, op{kind: opChunk, fileID: fileID, sizeMB: chunk, arrival: arrival, stripe: job})
		if s.failure != nil {
			return
		}
	}
}

func (s *sim) fail(err error) {
	if s.failure == nil {
		s.failure = err
	}
	s.eng.Stop()
}

func (s *sim) enqueue(disk int, o op) {
	ds := s.disks[disk]
	if ds.failed {
		s.routeAroundFailure(disk, o)
		return
	}
	if ds.rebuilding && o.kind != opBackground && !o.rerouted {
		s.flt.degraded++
	}
	if s.trc != nil {
		s.noteEnqueue(disk, &o, s.eng.Now())
	}
	s.met.queueDepth.Observe(float64(ds.queueLen()))
	ds.push(o)
	if !s.checkQueue(disk) {
		return
	}
	s.kick(disk)
}

// checkQueue enforces the overload guard; it reports false when the run
// was aborted.
func (s *sim) checkQueue(disk int) bool {
	if s.disks[disk].queueLen() > s.cfg.MaxQueue {
		s.fail(fmt.Errorf("array: disk %d queue exceeded %d (overload); policy %q cannot sustain this workload",
			disk, s.cfg.MaxQueue, s.cfg.Policy.Name()))
		return false
	}
	return true
}

// kick lets disk d start its next action if it is free.
//
//simlint:hotpath
func (s *sim) kick(d int) {
	ds := s.disks[d]
	if ds.failed {
		return
	}
	if ds.disk.State() != diskmodel.Idle {
		return
	}
	now := s.eng.Now()
	if ds.pending != nil {
		target := *ds.pending
		switch {
		case target == ds.disk.Speed():
			ds.pending = nil
		case target == diskmodel.Low && ds.queueLen() > 0:
			// Work arrived after a spin-down was requested: cancel it.
			ds.pending = nil
		default:
			ds.pending = nil
			if s.trc != nil {
				if target == diskmodel.Low {
					if !s.recordSpinDown(d, now) {
						// Replay override: this spin-down never happens.
						break
					}
				} else {
					s.recordSpinUp(d, now)
				}
				ds.transStart = now
			}
			dur := ds.disk.BeginTransition(now, target)
			s.met.transitions.Inc()
			s.schedule(dur, diskEvent(evTransition, d))
			return
		}
	}
	if ds.queueLen() > 0 {
		ds.svc = ds.pop()
		o := &ds.svc
		var dur float64
		if seek := s.cfg.DiskParams.Seek; seek.Enabled() {
			dur = ds.disk.BeginServiceAt(now, o.sizeMB, seek.CylinderOf(o.fileID))
		} else {
			dur = ds.disk.BeginService(now, o.sizeMB)
		}
		if s.trc != nil {
			o.tr.waitSpin = ds.transBusy - o.tr.spinBase
			o.tr.svcDur = dur
		}
		s.schedule(dur, serviceEvent(d, ds.gen))
		return
	}
	// Disk idle with empty queue: arm idle timer.
	s.armIdleTimer(d)
}

// complete retires a finished op: response-time accounting, policy
// callback, and continuation dispatch. One call per completed request.
//
//simlint:hotpath
func (s *sim) complete(d int, o op, now float64) {
	if s.trc != nil {
		if o.kind != opBackground {
			s.attributeCompletion(d, &o, now)
		}
		s.releaseStamps(o.tr)
	}
	switch o.kind {
	case opUser:
		resp := now - o.arrival
		s.respHist.Add(resp)
		s.met.completions.Inc()
		s.met.respLatency.Observe(resp)
		s.live.Tick(now, s.eng.Fired(), s.respHist.N(), uint64(s.nextReq))
		s.eng.EmitSpan(labelRequestSpan, o.arrival, now)
		ctx := s.ctx
		s.setHook(hookRequestComplete)
		s.cfg.Policy.OnRequestComplete(ctx, o.fileID, d)
		s.endHook()
	case opChunk:
		o.stripe.remaining--
		if o.stripe.lost {
			// A sibling chunk was lost to a failure; when the last
			// outstanding chunk resolves, the whole request counts lost.
			if o.stripe.remaining == 0 {
				s.flt.lostRequests++
				if o.stripe.done != nil {
					s.hostDone(o.stripe.done, now, true)
				}
			}
			break
		}
		if o.stripe.remaining == 0 {
			// The striped request completes with its slowest chunk.
			resp := now - o.stripe.arrival
			s.respHist.Add(resp)
			s.met.completions.Inc()
			s.met.respLatency.Observe(resp)
			s.live.Tick(now, s.eng.Fired(), s.respHist.N(), uint64(s.nextReq))
			s.eng.EmitSpan(labelRequestSpan, o.stripe.arrival, now)
			if s.trc != nil {
				s.attributeStripe(&o, now)
			}
			ctx := s.ctx
			s.setHook(hookRequestComplete)
			s.cfg.Policy.OnRequestComplete(ctx, o.stripe.fileID, d)
			s.endHook()
			if o.stripe.done != nil {
				s.runCont(o.stripe.done, now)
			}
		}
	case opBackground:
		s.backgroundOps++
	}
	if o.done != nil {
		s.runCont(o.done, now)
	}
}

// arrivalsRemain reports whether more foreground arrivals can still occur:
// undelivered trace requests for a standalone run, or whatever the host
// knows about the fleet's arrival stream for a member.
func (s *sim) arrivalsRemain() bool {
	if s.host != nil {
		return s.host.ArrivalsRemain()
	}
	return s.nextReq < len(s.cfg.Trace.Requests)
}

// workRemains reports whether the simulation can still produce activity:
// undelivered arrivals or queued/in-service operations. Idle timers are
// pointless (and would keep the event loop alive forever) once it is false.
// A fleet member defers to its host, which sees the whole fleet: another
// array's retry may yet land here, so local quiescence proves nothing.
func (s *sim) workRemains() bool {
	if s.host != nil {
		return s.host.FleetWorkRemains()
	}
	if s.arrivalsRemain() {
		return true
	}
	return s.busyDisks() > 0
}

func (s *sim) armIdleTimer(d int) {
	ds := s.disks[d]
	if ds.idleTimeout <= 0 || ds.idleArmed || ds.failed {
		return
	}
	if !s.workRemains() {
		return
	}
	if ds.disk.State() != diskmodel.Idle || ds.queueLen() > 0 {
		return
	}
	ds.idleArmed = true
	timeout := ds.idleTimeout
	deadline := s.eng.Now() + timeout
	s.schedule(timeout, idleArmEvent(d, deadline, timeout))
}

func (s *sim) rearmIdleTimer(d int, delay float64) {
	ds := s.disks[d]
	if ds.idleArmed || !s.workRemains() {
		return
	}
	ds.idleArmed = true
	s.schedule(delay, idleRearmEvent(d, ds.idleTimeout))
}

func (s *sim) onEpoch(e *des.Engine) {
	if s.failure != nil {
		return
	}
	// Sample the per-disk time series at every epoch boundary, including
	// the post-trace one below: sampling is read-only and schedules
	// nothing, so it cannot perturb the run.
	if s.cfg.Telemetry != nil {
		s.sampleDisks(e.Now(), s.epochs)
		s.cfg.Telemetry.Progress.Tick(e.Now(), e.Fired())
	}
	if s.trc != nil {
		s.snapEpochAttribution(s.epochs)
	}
	// Epochs exist to adapt placement to the live request stream; once
	// the trace is exhausted there is nothing to adapt to, and post-trace
	// migrations would only stretch the run and dilute utilization.
	if !s.arrivalsRemain() {
		return
	}
	s.epochs++
	s.met.epochs.Inc()
	s.migsThisEpoch = 0
	ctx := s.ctx
	s.setHook(hookEpoch)
	s.cfg.Policy.OnEpoch(ctx)
	s.endHook()
	// Fresh popularity window per epoch (the paper's FPT records counts
	// "during the current epoch"). Clearing keeps the map's buckets, so the
	// next epoch's counts do not allocate them again; policies only ever
	// see copies (Context.AccessCounts).
	clear(s.counts)
	s.schedule(s.cfg.EpochSeconds, eventRecord{Kind: evEpoch})
}

func (s *sim) busyDisks() int {
	n := 0
	for _, ds := range s.disks {
		if ds.disk.State() != diskmodel.Idle || ds.queueLen() > 0 {
			n++
		}
	}
	return n
}

func (s *sim) collect() (*Result, error) {
	now := s.eng.Now()
	if last := len(s.cfg.Trace.Requests); last > 0 {
		// Account at least the full trace span even if the last
		// completions landed earlier (possible when the tail of the
		// trace hits an already-warm disk).
		if t := s.cfg.Trace.Requests[last-1].Arrival; t > now {
			now = t
		}
	}
	// Close the time series with a run-final sample (epoch index one past
	// the last boundary) before the mutating result accessors below commit
	// their accruals.
	if s.cfg.Telemetry != nil {
		s.sampleDisks(now, s.epochs+1)
	}
	res := &Result{
		PolicyName:    s.cfg.Policy.Name(),
		Disks:         len(s.disks),
		Duration:      now,
		Requests:      int(s.respHist.N()),
		MeanResponse:  s.respHist.Mean(),
		MaxResponse:   s.respHist.Max(),
		Migrations:    s.migrations,
		BackgroundOps: s.backgroundOps,
		Epochs:        s.epochs,
		EventsFired:   s.eng.Fired(),
		Timeline:      s.timeline,
	}
	if s.respHist.N() > 0 {
		p50, err := s.respHist.Quantile(0.50)
		if err != nil {
			return nil, err
		}
		p95, err := s.respHist.Quantile(0.95)
		if err != nil {
			return nil, err
		}
		p99, err := s.respHist.Quantile(0.99)
		if err != nil {
			return nil, err
		}
		p999, err := s.respHist.Quantile(0.999)
		if err != nil {
			return nil, err
		}
		res.P50Response, res.P95Response, res.P99Response, res.P999Response = p50, p95, p99, p999
	}
	if s.trc != nil {
		res.Attribution = s.attributionReport()
	}

	factors := make([]reliability.Factors, len(s.disks))
	res.PerDisk = make([]DiskResult, len(s.disks))
	worst := math.Inf(-1)
	for i, ds := range s.disks {
		util := ds.disk.Utilization(now)
		meanTemp := ds.temp.MeanTemp(now)
		perDay := ds.disk.TransitionRatePerDay(now)
		factors[i] = reliability.Factors{
			TempC:             meanTemp,
			Utilization:       util,
			TransitionsPerDay: perDay,
		}
		afr, err := s.cfg.Press.DiskAFR(factors[i])
		if err != nil {
			return nil, fmt.Errorf("array: disk %d AFR: %w", i, err)
		}
		res.PerDisk[i] = DiskResult{
			ID:                i,
			EnergyJ:           ds.disk.EnergyJ(now),
			Utilization:       util,
			Transitions:       ds.disk.Transitions(),
			TransitionsPerDay: perDay,
			MeanTempC:         meanTemp,
			BusyTime:          ds.disk.BusyTime(now),
			RequestsServed:    ds.disk.Requests(),
			BytesServedMB:     ds.disk.BytesServedMB(),
			AFR:               afr,
			FinalSpeed:        ds.disk.Speed(),
		}
		res.EnergyJ += res.PerDisk[i].EnergyJ
		if afr > worst {
			worst = afr
			res.WorstDisk = i
		}
	}
	res.ArrayAFR = worst
	if f := s.flt; f != nil {
		res.DiskFailures = f.failures
		res.DiskRepairs = f.repairs
		res.SparesUsed = f.sparesUsed
		res.DataLossEvents = f.dataLoss
		if f.firstLoss >= 0 {
			res.MTTDLHours = f.firstLoss / 3600
		}
		res.LostRequests = f.lostRequests
		res.DegradedRequests = f.degraded
		res.ReassignedFiles = f.reassigned
		res.RebuildMB = f.rebuildMB
		res.RebuildEnergyJ = f.rebuildEnergyJ
		res.FailureLog = f.log
		res.ExposureHours = now / 3600 * f.cfg.Acceleration
		if f.cfg.LSEActive() {
			res.LSEModeled = true
			res.LSEErrors = f.inj.LSECount()
			res.LSECleared = f.lseCleared
			res.LSEPending = f.inj.PendingLSETotal()
			res.Scrubs = f.scrubs
			res.ScrubMB = f.scrubMB
		}
		if r := f.raid; r != nil {
			res.RAIDLevel = string(r.cfg.Level)
			res.RAIDGroups = len(r.groups)
			res.RAIDDataLossEvents = r.losses
			res.RAIDLSELosses = r.lseLosses
			res.RAIDOverlapLosses = r.overlapLosses
			if r.firstLoss >= 0 {
				res.RAIDFirstLossHours = r.firstLoss / 3600
			}
			if r.losses > 0 {
				res.MTTDLEstHours = stats.MTTDL{
					ExposureHours: res.ExposureHours,
					Events:        r.losses,
				}.Hours()
			}
			res.RAIDLossLog = r.log
		}
	}
	return res, nil
}

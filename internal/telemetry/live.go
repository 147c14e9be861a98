package telemetry

import (
	"math"
	"sync/atomic"
)

// Live is the lock-free snapshot a running simulation publishes for the ops
// plane (/metrics). The simulation goroutine is the only writer; HTTP
// handlers on other goroutines read via Snapshot.
//
// Consistency is a seqlock over individually-atomic words: the writer bumps
// seq odd, stores the fields, bumps seq even; readers retry until seq is
// stable and even around their loads. Publishing costs a handful of atomic
// stores and zero allocations, and a nil *Live is a valid no-op sink, so
// the ops-off hot path stays one nil check with zero allocations — the same
// contract every other telemetry handle obeys.
//
// Two publish cadences keep the hot path honest: Tick carries only values
// the simulation already holds in registers (virtual time, event and request
// counters) and may be called per completion; PublishEpoch carries the
// aggregates that require walking the disks (energy, AFR, spin states,
// queue depths) and fires on epoch boundaries, where the simulation already
// does that walk for the time-series sampler. /metrics therefore serves
// request-fresh counters and epoch-fresh gauges, which the DESIGN §14
// consistency model documents.
type Live struct {
	seq        atomic.Uint64
	simTime    atomic.Uint64 // math.Float64bits
	fired      atomic.Uint64
	requests   atomic.Uint64
	arrivals   atomic.Uint64
	energyJ    atomic.Uint64 // math.Float64bits
	afrPct     atomic.Uint64 // math.Float64bits, worst disk
	queueDepth atomic.Uint64
	disksHigh  atomic.Uint64
	disksLow   atomic.Uint64
	epoch      atomic.Uint64
	ckptSkip   atomic.Uint64
}

// LiveSnapshot is one consistent reading of a Live.
type LiveSnapshot struct {
	// Tick-fresh (updated per completed request).
	SimSeconds float64
	Events     uint64
	Requests   uint64
	Arrivals   uint64
	// Epoch-fresh (updated on epoch boundaries).
	EnergyJ     float64
	WorstAFRPct float64
	QueueDepth  uint64
	DisksHigh   uint64
	DisksLow    uint64
	Epoch       uint64
	// Event-fresh (updated when a checkpoint tick is skipped).
	CheckpointsSkipped uint64
}

// NewLive returns an empty live view ready to hand to a Recorder.
func NewLive() *Live { return &Live{} }

// Tick publishes the cheap per-request counters. Single writer only.
func (l *Live) Tick(simSeconds float64, fired, requests, arrivals uint64) {
	if l == nil {
		return
	}
	l.seq.Add(1)
	l.simTime.Store(math.Float64bits(simSeconds))
	l.fired.Store(fired)
	l.requests.Store(requests)
	l.arrivals.Store(arrivals)
	l.seq.Add(1)
}

// PublishEpoch publishes the disk-walk aggregates. Single writer only.
func (l *Live) PublishEpoch(epoch uint64, energyJ, worstAFRPct float64, queueDepth, disksHigh, disksLow uint64) {
	if l == nil {
		return
	}
	l.seq.Add(1)
	l.epoch.Store(epoch)
	l.energyJ.Store(math.Float64bits(energyJ))
	l.afrPct.Store(math.Float64bits(worstAFRPct))
	l.queueDepth.Store(queueDepth)
	l.disksHigh.Store(disksHigh)
	l.disksLow.Store(disksLow)
	l.seq.Add(1)
}

// PublishCheckpointsSkipped publishes the run's count of checkpoint ticks
// skipped while a policy callback was in flight. Single writer only.
func (l *Live) PublishCheckpointsSkipped(n uint64) {
	if l == nil {
		return
	}
	l.seq.Add(1)
	l.ckptSkip.Store(n)
	l.seq.Add(1)
}

// Snapshot returns a consistent view. Safe from any goroutine; a nil live
// view yields the zero snapshot.
func (l *Live) Snapshot() LiveSnapshot {
	if l == nil {
		return LiveSnapshot{}
	}
	var s LiveSnapshot
	for {
		s1 := l.seq.Load()
		if s1%2 != 0 {
			continue
		}
		s.SimSeconds = math.Float64frombits(l.simTime.Load())
		s.Events = l.fired.Load()
		s.Requests = l.requests.Load()
		s.Arrivals = l.arrivals.Load()
		s.EnergyJ = math.Float64frombits(l.energyJ.Load())
		s.WorstAFRPct = math.Float64frombits(l.afrPct.Load())
		s.QueueDepth = l.queueDepth.Load()
		s.DisksHigh = l.disksHigh.Load()
		s.DisksLow = l.disksLow.Load()
		s.Epoch = l.epoch.Load()
		s.CheckpointsSkipped = l.ckptSkip.Load()
		if l.seq.Load() == s1 {
			return s
		}
	}
}

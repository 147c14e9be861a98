package telemetry

import (
	"math"
	"sync/atomic"
)

// Array health states the cluster router publishes. Strings rather than an
// enum so the ops plane can emit them verbatim as label values.
const (
	ArrayHealthy  = "healthy"
	ArrayDraining = "draining"
	ArrayEjected  = "ejected"
)

// arrayHealths indexes the health states by the code a Live stores.
var arrayHealths = [...]string{ArrayHealthy, ArrayDraining, ArrayEjected}

// Live is the lock-free snapshot a running simulation publishes for the ops
// plane (/metrics, /progress) and the -progress log line. The simulation
// goroutine is the only writer; HTTP handlers and the progress ticker on
// other goroutines read via Snapshot. One Live serves every kind of run: an
// array run or sweep cell (no health rows), and a fleet, whose router adds
// its resilience counters and one health row per member array.
//
// Consistency is a seqlock over individually-atomic words: the writer bumps
// seq odd, stores the fields, bumps seq even; readers retry until seq is
// stable and even around their loads. Publishing costs a handful of atomic
// stores and zero allocations, and a nil *Live is a valid no-op sink, so
// the ops-off hot path stays one nil check with zero allocations — the same
// contract every other telemetry handle obeys.
//
// Two publish cadences keep the hot path honest: Tick (TickRouter for the
// fleet) carries only values the simulation already holds in registers
// (virtual time, event and request counters) and may be called per
// completion; PublishEpoch carries the aggregates that require walking the
// disks (energy, AFR, spin states, queue depths) and fires on epoch
// boundaries, where the simulation already does that walk for the per-disk
// series and the timeline. /metrics therefore serves request-fresh counters and
// epoch-fresh gauges, which the DESIGN §14 consistency model documents.
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

	retries   atomic.Uint64
	hedges    atomic.Uint64
	hedgeWins atomic.Uint64
	failovers atomic.Uint64
	timeouts  atomic.Uint64
	deferred  atomic.Uint64
	shed      atomic.Uint64
	failed    atomic.Uint64
	shocks    atomic.Uint64

	arrays []arraySlot
}

type arraySlot struct {
	health      atomic.Uint64 // index into arrayHealths
	backlog     atomic.Uint64
	failedDisks atomic.Uint64
	rebuilding  atomic.Bool
	worstAFR    atomic.Uint64 // math.Float64bits
}

// LiveSnapshot is one consistent reading of a Live. Its JSON form is the
// /progress "live" block.
type LiveSnapshot struct {
	// Tick-fresh (updated per completed request).
	SimSeconds float64 `json:"sim_seconds"`
	Events     uint64  `json:"events"`
	Requests   uint64  `json:"requests"`
	Arrivals   uint64  `json:"arrivals"`
	// Epoch-fresh (updated on epoch boundaries; zero for a fleet).
	EnergyJ     float64 `json:"energy_j"`
	WorstAFRPct float64 `json:"worst_afr_pct"`
	QueueDepth  uint64  `json:"queue_depth"`
	DisksHigh   uint64  `json:"disks_high"`
	DisksLow    uint64  `json:"disks_low"`
	Epoch       uint64  `json:"epoch"`
	// EventsPerSecond is Events over the reader's wall-clock; Snapshot
	// leaves it zero for the reader to fill.
	EventsPerSecond float64 `json:"events_per_second"`
	// Fleet is the router's view, nil unless the Live has health rows.
	Fleet *FleetView `json:"-"`
}

// RouterCounters are the fleet router's resilience counters.
type RouterCounters struct {
	Retries   uint64 `json:"retries"`
	Hedges    uint64 `json:"hedges"`
	HedgeWins uint64 `json:"hedge_wins"`
	Failovers uint64 `json:"failovers"`
	Timeouts  uint64 `json:"timeouts"`
	Deferred  uint64 `json:"deferred"`
	Shed      uint64 `json:"shed"`
	Failed    uint64 `json:"failed"`
	Shocks    uint64 `json:"shocks"`
}

// FleetView is a fleet's reading of its Live: the shared clock and request
// counters under the router's names, the resilience counters, and one
// health row per array. Its JSON form is the /progress "fleet" block.
type FleetView struct {
	SimSeconds float64 `json:"sim_seconds"`
	// Requests arrived at the router (the Live's Arrivals).
	Requests uint64 `json:"requests"`
	// Served requests, first successful completion (the Live's Requests).
	Served uint64 `json:"served"`
	RouterCounters
	PerArray []ArrayRow `json:"per_array"`
}

// ArrayRow is one array's health row in a FleetView.
type ArrayRow struct {
	Array       int     `json:"array"`
	Health      string  `json:"health"`
	Backlog     uint64  `json:"backlog"`
	FailedDisks uint64  `json:"failed_disks"`
	Rebuilding  bool    `json:"rebuilding,omitempty"`
	WorstAFRPct float64 `json:"worst_afr_pct"`
}

// NewLive returns an empty live view ready to hand to a Recorder, with one
// health row per array: the fleet size for a fleet run, 0 for an array run
// or a sweep cell.
func NewLive(arrays int) *Live { return &Live{arrays: make([]arraySlot, arrays)} }

// Rows reports how many health rows the view carries (0 on nil). A
// publisher computes a row's values only when there is a row to hold them.
func (l *Live) Rows() int {
	if l == nil {
		return 0
	}
	return len(l.arrays)
}

// Tick publishes the cheap per-request counters. Single writer only.
func (l *Live) Tick(simSeconds float64, fired, requests, arrivals uint64) {
	if l == nil {
		return
	}
	l.seq.Add(1)
	l.tick(simSeconds, fired, requests, arrivals)
	l.seq.Add(1)
}

func (l *Live) tick(simSeconds float64, fired, requests, arrivals uint64) {
	l.simTime.Store(math.Float64bits(simSeconds))
	l.fired.Store(fired)
	l.requests.Store(requests)
	l.arrivals.Store(arrivals)
}

// TickRouter is the fleet router's Tick: the shared clock, events, requests
// served and arrived, and the resilience counters, in one publish. Single
// writer only.
func (l *Live) TickRouter(simSeconds float64, fired, served, arrivals uint64, rc RouterCounters) {
	if l == nil {
		return
	}
	l.seq.Add(1)
	l.tick(simSeconds, fired, served, arrivals)
	l.retries.Store(rc.Retries)
	l.hedges.Store(rc.Hedges)
	l.hedgeWins.Store(rc.HedgeWins)
	l.failovers.Store(rc.Failovers)
	l.timeouts.Store(rc.Timeouts)
	l.deferred.Store(rc.Deferred)
	l.shed.Store(rc.Shed)
	l.failed.Store(rc.Failed)
	l.shocks.Store(rc.Shocks)
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

// PublishArray refreshes array i's health row; out-of-range rows are
// ignored. Single writer only; health must be one of the Array* constants.
func (l *Live) PublishArray(i int, health string, backlog, failedDisks int, rebuilding bool, worstAFRPct float64) {
	if i < 0 || i >= l.Rows() {
		return
	}
	var code uint64
	for c, h := range arrayHealths {
		if h == health {
			code = uint64(c)
		}
	}
	s := &l.arrays[i]
	l.seq.Add(1)
	s.health.Store(code)
	s.backlog.Store(uint64(backlog))
	s.failedDisks.Store(uint64(failedDisks))
	s.rebuilding.Store(rebuilding)
	s.worstAFR.Store(math.Float64bits(worstAFRPct))
	l.seq.Add(1)
}

// Snapshot returns a consistent view. Safe from any goroutine; a nil live
// view yields the zero snapshot.
func (l *Live) Snapshot() LiveSnapshot {
	if l == nil {
		return LiveSnapshot{}
	}
	var s LiveSnapshot
	var fv FleetView
	if len(l.arrays) > 0 {
		fv.PerArray = make([]ArrayRow, len(l.arrays))
	}
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
		fv.RouterCounters = RouterCounters{
			Retries:   l.retries.Load(),
			Hedges:    l.hedges.Load(),
			HedgeWins: l.hedgeWins.Load(),
			Failovers: l.failovers.Load(),
			Timeouts:  l.timeouts.Load(),
			Deferred:  l.deferred.Load(),
			Shed:      l.shed.Load(),
			Failed:    l.failed.Load(),
			Shocks:    l.shocks.Load(),
		}
		for i := range l.arrays {
			a := &l.arrays[i]
			fv.PerArray[i] = ArrayRow{
				Array:       i,
				Health:      arrayHealths[a.health.Load()],
				Backlog:     a.backlog.Load(),
				FailedDisks: a.failedDisks.Load(),
				Rebuilding:  a.rebuilding.Load(),
				WorstAFRPct: math.Float64frombits(a.worstAFR.Load()),
			}
		}
		if l.seq.Load() == s1 {
			break
		}
	}
	if len(l.arrays) > 0 {
		fv.SimSeconds, fv.Requests, fv.Served = s.SimSeconds, s.Arrivals, s.Requests
		s.Fleet = &fv
	}
	return s
}

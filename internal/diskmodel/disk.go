package diskmodel

import (
	"fmt"
	"math"

	"repro/internal/checkpoint"
)

// State is the activity state of a disk.
type State int

const (
	// Idle means the spindle is rotating at the current speed but no
	// request is in service.
	Idle State = iota
	// Active means a request is being served.
	Active
	// Transitioning means the spindle is changing speed; no service is
	// possible.
	Transitioning
)

// String returns a human-readable state name.
func (s State) String() string {
	switch s {
	case Idle:
		return "idle"
	case Active:
		return "active"
	case Transitioning:
		return "transitioning"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Disk is the runtime state of one simulated two-speed drive. It is passive:
// the array simulator calls the Begin*/End* methods at the appropriate
// virtual times and the disk integrates energy and busy time in between.
// Methods must be called with non-decreasing timestamps.
type Disk struct {
	id     int
	params Params

	speed Speed
	state State

	// Energy/time integration.
	lastAccrual float64
	energyJ     float64
	busyTime    float64
	idleTime    float64
	transTime   float64

	// Counters.
	transitions   int
	upTransitions int
	bytesServedMB float64
	requests      int

	// Pending transition target while state == Transitioning.
	transitionTarget Speed

	// Time the disk most recently became idle; math.Inf(1) while busy.
	idleSince float64

	// Per-speed residence time, used by the thermal model to produce a
	// time-weighted operating temperature.
	timeAtSpeed [2]float64

	// headCyl is the arm position for the distance-based seek model.
	headCyl int
}

// New returns a disk with the given id that starts idle at the given speed
// at virtual time 0.
func New(id int, p Params, initial Speed) *Disk {
	return &Disk{
		id:        id,
		params:    p,
		speed:     initial,
		state:     Idle,
		idleSince: 0,
	}
}

// ID returns the disk's identifier within its array.
func (d *Disk) ID() int { return d.id }

// Params returns the disk's parameter set.
func (d *Disk) Params() Params { return d.params }

// Speed returns the current spindle speed. During a transition it reports
// the speed being left (service is impossible either way).
func (d *Disk) Speed() Speed { return d.speed }

// State returns the current activity state.
func (d *Disk) State() State { return d.state }

// IdleSince returns the virtual time at which the disk last became idle.
// It returns +Inf while the disk is busy or transitioning.
func (d *Disk) IdleSince() float64 { return d.idleSince }

// accrue integrates power and residence time up to now.
//
//simlint:hotpath
func (d *Disk) accrue(now float64) {
	dt := now - d.lastAccrual
	if dt < 0 {
		panic(fmt.Sprintf("diskmodel: disk %d time moved backwards: %v -> %v", d.id, d.lastAccrual, now)) //simlint:allow hotalloc -- a simulation bug aborts the run once
	}
	switch d.state {
	case Idle:
		d.energyJ += d.params.IdlePower(d.speed) * dt
		d.idleTime += dt
		d.timeAtSpeed[d.speed] += dt
	case Active:
		d.energyJ += d.params.ActivePower(d.speed) * dt
		d.busyTime += dt
		d.timeAtSpeed[d.speed] += dt
	case Transitioning:
		// Transition energy is charged as a lump sum in BeginTransition;
		// only time bookkeeping happens here. Residence is attributed to
		// the target speed: the spindle is being driven toward it.
		d.transTime += dt
		d.timeAtSpeed[d.transitionTarget] += dt
	}
	d.lastAccrual = now
}

// BeginService marks the start of serving a request of sizeMB at time now
// and returns the service duration (flat average-seek model). The caller
// must schedule EndService at now+duration. It panics if the disk is not
// idle: queueing is the array's responsibility, and overlapping service is
// a simulation bug rather than a recoverable condition.
//
//simlint:hotpath
func (d *Disk) BeginService(now, sizeMB float64) float64 {
	d.beginService(now, sizeMB)
	return d.params.ServiceTime(sizeMB, d.speed)
}

// BeginServiceAt is BeginService with a distance-based seek to the target
// cylinder; it requires Params.Seek to be configured and updates the head
// position.
func (d *Disk) BeginServiceAt(now, sizeMB float64, cylinder int) float64 {
	d.beginService(now, sizeMB)
	dist := cylinder - d.headCyl
	if dist < 0 {
		dist = -dist
	}
	d.headCyl = cylinder
	return d.params.ServiceTimeAt(sizeMB, d.speed, dist)
}

func (d *Disk) beginService(now, sizeMB float64) {
	d.accrue(now)
	if d.state != Idle {
		panic(fmt.Sprintf("diskmodel: disk %d BeginService while %v", d.id, d.state))
	}
	d.state = Active
	d.idleSince = math.Inf(1)
	d.bytesServedMB += sizeMB
	d.requests++
}

// HeadCylinder returns the arm position (only meaningful with a seek model).
func (d *Disk) HeadCylinder() int { return d.headCyl }

// EndService marks the completion of the in-flight request.
func (d *Disk) EndService(now float64) {
	d.accrue(now)
	if d.state != Active {
		panic(fmt.Sprintf("diskmodel: disk %d EndService while %v", d.id, d.state))
	}
	d.state = Idle
	d.idleSince = now
}

// CanTransition reports whether a speed transition to the target speed is
// currently possible and meaningful.
func (d *Disk) CanTransition(to Speed) bool {
	return d.state == Idle && d.speed != to
}

// BeginTransition starts a speed change at time now and returns its
// duration. The caller must schedule EndTransition at now+duration. The
// lump-sum transition energy is charged immediately. It panics when
// CanTransition(to) is false.
func (d *Disk) BeginTransition(now float64, to Speed) float64 {
	d.accrue(now)
	if d.state != Idle {
		panic(fmt.Sprintf("diskmodel: disk %d BeginTransition while %v", d.id, d.state))
	}
	if d.speed == to {
		panic(fmt.Sprintf("diskmodel: disk %d transition to current speed %v", d.id, to))
	}
	d.state = Transitioning
	d.transitionTarget = to
	d.idleSince = math.Inf(1)
	d.energyJ += d.params.TransitionEnergy(to)
	d.transitions++
	if to == High {
		d.upTransitions++
	}
	return d.params.TransitionTime(to)
}

// EndTransition completes the in-flight speed change.
func (d *Disk) EndTransition(now float64) {
	d.accrue(now)
	if d.state != Transitioning {
		panic(fmt.Sprintf("diskmodel: disk %d EndTransition while %v", d.id, d.state))
	}
	d.speed = d.transitionTarget
	d.state = Idle
	d.idleSince = now
}

// Close finalizes integration at the end of the simulation. Further state
// changes are still legal (Close just forces accrual).
func (d *Disk) Close(now float64) { d.accrue(now) }

// EnergyJ returns the total energy consumed through time now.
func (d *Disk) EnergyJ(now float64) float64 {
	d.accrue(now)
	return d.energyJ
}

// Utilization returns the fraction of elapsed time spent serving requests,
// the paper's definition: "the fraction of active time of a drive out of its
// total power-on-time" (§3.3). It returns 0 before any time has elapsed.
func (d *Disk) Utilization(now float64) float64 {
	d.accrue(now)
	if now <= 0 {
		return 0
	}
	return d.busyTime / now
}

// Transitions returns the total number of speed transitions started.
func (d *Disk) Transitions() int { return d.transitions }

// UpTransitions returns the number of low-to-high transitions started.
func (d *Disk) UpTransitions() int { return d.upTransitions }

// TransitionsPerDay returns the average daily speed-transition frequency
// over the elapsed simulated time, the PRESS frequency factor. For runs
// shorter than one simulated day the count is NOT extrapolated upward;
// sub-day runs report the raw count, which matches how a policy's daily cap
// is enforced.
func (d *Disk) TransitionsPerDay(now float64) float64 {
	const day = 86400.0
	if now <= 0 {
		return 0
	}
	days := now / day
	if days < 1 {
		days = 1
	}
	return float64(d.transitions) / days
}

// TransitionRatePerDay returns the speed-transition frequency extrapolated
// to a daily rate: transitions / (elapsed days), without the sub-day
// flooring of TransitionsPerDay. This is the PRESS frequency factor for runs
// shorter than one simulated day: a disk that switched 150 times in 2.5
// hours is being operated at a 1,440/day rate and must be priced that way.
func (d *Disk) TransitionRatePerDay(now float64) float64 {
	const day = 86400.0
	if now <= 0 {
		return 0
	}
	return float64(d.transitions) / (now / day)
}

// BusyTime returns total time spent in Active state through now.
func (d *Disk) BusyTime(now float64) float64 {
	d.accrue(now)
	return d.busyTime
}

// IdleTimeTotal returns total time spent in Idle state through now.
func (d *Disk) IdleTimeTotal(now float64) float64 {
	d.accrue(now)
	return d.idleTime
}

// TransitionTimeTotal returns total time spent transitioning through now.
func (d *Disk) TransitionTimeTotal(now float64) float64 {
	d.accrue(now)
	return d.transTime
}

// TimeAtSpeed returns the time spent at (or transitioning toward) speed s.
func (d *Disk) TimeAtSpeed(now float64, s Speed) float64 {
	d.accrue(now)
	return d.timeAtSpeed[s]
}

// BytesServedMB returns the cumulative data volume served.
func (d *Disk) BytesServedMB() float64 { return d.bytesServedMB }

// Snapshot is a read-only view of a disk's integrated quantities evaluated
// at one instant, used by telemetry sampling.
type Snapshot struct {
	// Speed is the current spindle speed level.
	Speed Speed
	// State is the current activity state.
	State State
	// EnergyJ is cumulative energy through the snapshot time.
	EnergyJ float64
	// BusyTime is cumulative Active time through the snapshot time.
	BusyTime float64
	// Utilization is BusyTime over elapsed time (0 at time zero).
	Utilization float64
	// Transitions is the cumulative speed-transition count.
	Transitions int
	// TransitionRatePerDay is the daily-rate extrapolation of Transitions
	// (see TransitionRatePerDay).
	TransitionRatePerDay float64
}

// Snapshot evaluates the disk's integrated quantities at time now WITHOUT
// committing the accrual. The mutating accessors (EnergyJ, Utilization, ...)
// fold the pending interval into the running sums, which changes the
// floating-point summation order of later accruals; a telemetry read that
// used them would perturb the simulation's results in the last ulp. Snapshot
// instead extends the integrals arithmetically and leaves the disk's state
// untouched, so sampling any number of times is observationally pure.
func (d *Disk) Snapshot(now float64) Snapshot {
	dt := now - d.lastAccrual
	if dt < 0 {
		panic(fmt.Sprintf("diskmodel: disk %d snapshot time moved backwards: %v -> %v", d.id, d.lastAccrual, now))
	}
	energy, busy := d.energyJ, d.busyTime
	switch d.state {
	case Idle:
		energy += d.params.IdlePower(d.speed) * dt
	case Active:
		energy += d.params.ActivePower(d.speed) * dt
		busy += dt
	case Transitioning:
		// Transition energy was charged as a lump sum at BeginTransition.
	}
	s := Snapshot{
		Speed:       d.speed,
		State:       d.state,
		EnergyJ:     energy,
		BusyTime:    busy,
		Transitions: d.transitions,
	}
	if now > 0 {
		s.Utilization = busy / now
		s.TransitionRatePerDay = float64(d.transitions) / (now / 86400.0)
	}
	return s
}

// Requests returns the number of requests this disk has begun serving.
func (d *Disk) Requests() int { return d.requests }

// Checkpoint is the complete serializable state of a Disk. It copies the raw
// accumulator fields without committing any pending accrual, so saving and
// restoring mid-run preserves the exact floating-point summation order of
// later accruals — the property that makes a resumed run bit-identical to an
// uninterrupted one. idleSince is +Inf while the disk is busy, which JSON
// cannot encode, so it is split into a Busy flag plus a finite value.
//
//simlint:checkpoint-for Disk ignore=id,params
type Checkpoint struct {
	Speed            Speed      `json:"speed"`
	State            State      `json:"state"`
	LastAccrual      float64    `json:"last_accrual"`
	EnergyJ          float64    `json:"energy_j"`
	BusyTime         float64    `json:"busy_time"`
	IdleTime         float64    `json:"idle_time"`
	TransTime        float64    `json:"trans_time"`
	Transitions      int        `json:"transitions"`
	UpTransitions    int        `json:"up_transitions"`
	BytesServedMB    float64    `json:"bytes_served_mb"`
	Requests         int        `json:"requests"`
	TransitionTarget Speed      `json:"transition_target"`
	Busy             bool       `json:"busy"` // idleSince == +Inf
	IdleSince        float64    `json:"idle_since"`
	TimeAtSpeed      [2]float64 `json:"time_at_speed"`
	HeadCyl          int        `json:"head_cyl"`
}

// Checkpoint captures the disk's raw state without mutating it.
func (d *Disk) Checkpoint() Checkpoint {
	c := Checkpoint{
		Speed:            d.speed,
		State:            d.state,
		LastAccrual:      d.lastAccrual,
		EnergyJ:          d.energyJ,
		BusyTime:         d.busyTime,
		IdleTime:         d.idleTime,
		TransTime:        d.transTime,
		Transitions:      d.transitions,
		UpTransitions:    d.upTransitions,
		BytesServedMB:    d.bytesServedMB,
		Requests:         d.requests,
		TransitionTarget: d.transitionTarget,
		TimeAtSpeed:      d.timeAtSpeed,
		HeadCyl:          d.headCyl,
	}
	if math.IsInf(d.idleSince, 1) {
		c.Busy = true
	} else {
		c.IdleSince = d.idleSince
	}
	return c
}

// WriteJSON appends c as encoding/json encodes it.
func (c *Checkpoint) WriteJSON(w *checkpoint.Writer) {
	w.Raw(`{"speed":`)
	w.Int(int(c.Speed))
	w.Raw(`,"state":`)
	w.Int(int(c.State))
	w.Raw(`,"last_accrual":`)
	w.Float(c.LastAccrual)
	w.Raw(`,"energy_j":`)
	w.Float(c.EnergyJ)
	w.Raw(`,"busy_time":`)
	w.Float(c.BusyTime)
	w.Raw(`,"idle_time":`)
	w.Float(c.IdleTime)
	w.Raw(`,"trans_time":`)
	w.Float(c.TransTime)
	w.Raw(`,"transitions":`)
	w.Int(c.Transitions)
	w.Raw(`,"up_transitions":`)
	w.Int(c.UpTransitions)
	w.Raw(`,"bytes_served_mb":`)
	w.Float(c.BytesServedMB)
	w.Raw(`,"requests":`)
	w.Int(c.Requests)
	w.Raw(`,"transition_target":`)
	w.Int(int(c.TransitionTarget))
	w.Raw(`,"busy":`)
	w.Bool(c.Busy)
	w.Raw(`,"idle_since":`)
	w.Float(c.IdleSince)
	w.Raw(`,"time_at_speed":[`)
	w.Float(c.TimeAtSpeed[0])
	w.Raw(`,`)
	w.Float(c.TimeAtSpeed[1])
	w.Raw(`],"head_cyl":`)
	w.Int(c.HeadCyl)
	w.Raw(`}`)
}

// Validate rejects a checkpoint whose speeds or state lie outside their
// enumerations, before Restore builds a disk that indexes per-speed tables
// by them or waits on a state nothing leaves, and one accrued past now, the
// simulation clock it resumes at, whose next accrual would panic.
func (c *Checkpoint) Validate(now float64) error {
	if c.LastAccrual > now {
		return fmt.Errorf("diskmodel: last_accrual %v after the clock %v", c.LastAccrual, now)
	}
	for _, f := range [...]struct {
		name  string
		speed Speed
	}{{"speed", c.Speed}, {"transition_target", c.TransitionTarget}} {
		if f.speed != Low && f.speed != High {
			return fmt.Errorf("diskmodel: %s %d is neither low (%d) nor high (%d)", f.name, int(f.speed), Low, High)
		}
	}
	if c.State < Idle || c.State > Transitioning {
		return fmt.Errorf("diskmodel: state %d outside [%d, %d]", int(c.State), Idle, Transitioning)
	}
	return nil
}

// Restore reconstructs a disk from a checkpoint. Params are supplied by the
// caller (they are configuration, not state).
func Restore(id int, p Params, c Checkpoint) *Disk {
	d := &Disk{
		id:               id,
		params:           p,
		speed:            c.Speed,
		state:            c.State,
		lastAccrual:      c.LastAccrual,
		energyJ:          c.EnergyJ,
		busyTime:         c.BusyTime,
		idleTime:         c.IdleTime,
		transTime:        c.TransTime,
		transitions:      c.Transitions,
		upTransitions:    c.UpTransitions,
		bytesServedMB:    c.BytesServedMB,
		requests:         c.Requests,
		transitionTarget: c.TransitionTarget,
		idleSince:        c.IdleSince,
		timeAtSpeed:      c.TimeAtSpeed,
		headCyl:          c.HeadCyl,
	}
	if c.Busy {
		d.idleSince = math.Inf(1)
	}
	return d
}

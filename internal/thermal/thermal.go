// Package thermal models disk operating temperature as a function of
// spindle speed.
//
// The paper (§3.2) argues that once drive geometry and materials are fixed,
// RPM dominates operating temperature because heat dissipation grows with
// nearly the cube of RPM, and settles on two operating points for the
// two-speed disk: [35,40) °C at 3,600 RPM and [45,50) °C at 10,000 RPM, with
// the PRESS evaluation using the range tops — 40 °C for low speed and 50 °C
// for high speed. Gurumurthi et al. (ISCA'05) report a Cheetah reaching its
// thermal steady state after roughly 48 minutes, which calibrates the
// relaxation time constant used here.
//
// The package provides both the static speed→temperature mapping the paper
// uses in its model figures and a first-order exponential relaxation tracker
// that produces the time-weighted mean operating temperature of a disk whose
// speed changes during a simulation.
package thermal

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/checkpoint"
	"repro/internal/diskmodel"
)

// Model holds the thermal constants of one drive bay.
type Model struct {
	// AmbientC is the machine-room ambient temperature (paper: 28 °C).
	AmbientC float64
	// LowSteadyC is the steady-state operating temperature at low speed
	// (paper: 40 °C, top of the [35,40) band).
	LowSteadyC float64
	// HighSteadyC is the steady-state operating temperature at high speed
	// (paper: 50 °C, top of the [45,50) band).
	HighSteadyC float64
	// TimeConstant is the first-order relaxation constant in seconds.
	// Settling (≈3τ) in 48 minutes gives τ ≈ 960 s.
	TimeConstant float64
}

// Default returns the paper's thermal operating points.
func Default() Model {
	return Model{
		AmbientC:     28,
		LowSteadyC:   40,
		HighSteadyC:  50,
		TimeConstant: 960,
	}
}

// Validate reports the first implausibility in the model constants.
func (m Model) Validate() error {
	switch {
	case m.TimeConstant <= 0:
		return errors.New("thermal: time constant must be positive")
	case m.LowSteadyC >= m.HighSteadyC:
		return errors.New("thermal: low-speed steady temperature must be below high-speed")
	case m.AmbientC > m.LowSteadyC:
		return errors.New("thermal: ambient above low-speed steady temperature")
	}
	return nil
}

// Steady returns the steady-state operating temperature at speed s.
func (m Model) Steady(s diskmodel.Speed) float64 {
	if s == diskmodel.High {
		return m.HighSteadyC
	}
	return m.LowSteadyC
}

// CubeLawSteady returns the steady-state temperature predicted by the pure
// cube-law argument calibrated at the high-speed point: rise above ambient
// proportional to RPM³. It documents why the paper's empirically reported
// low-speed band sits well above the naive cube-law value (enclosure and
// electronics heating dominate at low RPM) and is provided for analysis, not
// used by the simulator.
func (m Model) CubeLawSteady(rpm, rpmHigh float64) float64 {
	if rpmHigh <= 0 {
		return m.AmbientC
	}
	k := (m.HighSteadyC - m.AmbientC) / (rpmHigh * rpmHigh * rpmHigh)
	return m.AmbientC + k*rpm*rpm*rpm
}

// Tracker integrates the operating temperature of one disk over virtual
// time. Methods must be called with non-decreasing timestamps.
type Tracker struct {
	model    Model
	tempC    float64 // temperature at lastTime
	steadyC  float64 // current relaxation target
	lastTime float64
	integral float64 // ∫ temp dt from 0 to lastTime
	maxC     float64
}

// NewTracker returns a tracker for a disk that has been running at the given
// speed long enough to be at its steady-state temperature at time zero.
func NewTracker(m Model, initial diskmodel.Speed) *Tracker {
	t0 := m.Steady(initial)
	return &Tracker{model: m, tempC: t0, steadyC: t0, maxC: t0}
}

// advance integrates temperature up to now under the current target.
func (tr *Tracker) advance(now float64) {
	dt := now - tr.lastTime
	if dt < 0 {
		panic("thermal: time moved backwards")
	}
	if dt == 0 {
		return
	}
	tau := tr.model.TimeConstant
	decay := math.Exp(-dt / tau)
	// ∫[0,dt] (S + (T0-S)e^(-u/τ)) du = S·dt + (T0-S)·τ·(1-e^(-dt/τ))
	tr.integral += tr.steadyC*dt + (tr.tempC-tr.steadyC)*tau*(1-decay)
	tr.tempC = tr.steadyC + (tr.tempC-tr.steadyC)*decay
	if tr.tempC > tr.maxC {
		tr.maxC = tr.tempC
	}
	tr.lastTime = now
}

// SetSpeed records a spindle-speed change at time now; the temperature
// begins relaxing toward the new steady state.
func (tr *Tracker) SetSpeed(now float64, s diskmodel.Speed) {
	tr.advance(now)
	tr.steadyC = tr.model.Steady(s)
	if tr.steadyC > tr.maxC {
		// Target above current max: max will be approached asymptotically;
		// it is updated as time advances, not here.
		_ = tr.steadyC
	}
}

// TempAt returns the instantaneous temperature at time now.
func (tr *Tracker) TempAt(now float64) float64 {
	tr.advance(now)
	return tr.tempC
}

// MeanTemp returns the time-weighted mean operating temperature over [0,
// now]. For now == 0 it returns the initial temperature.
func (tr *Tracker) MeanTemp(now float64) float64 {
	tr.advance(now)
	if now <= 0 {
		return tr.tempC
	}
	return tr.integral / now
}

// MaxTemp returns the maximum temperature reached through time now.
func (tr *Tracker) MaxTemp(now float64) float64 {
	tr.advance(now)
	return tr.maxC
}

// Checkpoint is the complete serializable state of a Tracker (the model
// constants are configuration and travel separately). Raw fields are copied
// without committing the pending integration interval, preserving the exact
// floating-point summation order of later advances across a restore.
//
//simlint:checkpoint-for Tracker ignore=model
type Checkpoint struct {
	TempC    float64 `json:"temp_c"`
	SteadyC  float64 `json:"steady_c"`
	LastTime float64 `json:"last_time"`
	Integral float64 `json:"integral"`
	MaxC     float64 `json:"max_c"`
}

// Checkpoint captures the tracker's raw state without mutating it.
func (tr *Tracker) Checkpoint() Checkpoint {
	return Checkpoint{
		TempC:    tr.tempC,
		SteadyC:  tr.steadyC,
		LastTime: tr.lastTime,
		Integral: tr.integral,
		MaxC:     tr.maxC,
	}
}

// WriteJSON appends c as encoding/json encodes it.
func (c *Checkpoint) WriteJSON(w *checkpoint.Writer) {
	w.Raw(`{"temp_c":`)
	w.Float(c.TempC)
	w.Raw(`,"steady_c":`)
	w.Float(c.SteadyC)
	w.Raw(`,"last_time":`)
	w.Float(c.LastTime)
	w.Raw(`,"integral":`)
	w.Float(c.Integral)
	w.Raw(`,"max_c":`)
	w.Float(c.MaxC)
	w.Raw(`}`)
}

// Validate rejects a checkpoint advanced past now, the simulation clock it
// resumes at: its next advance would panic.
func (c *Checkpoint) Validate(now float64) error {
	if c.LastTime > now {
		return fmt.Errorf("thermal: last_time %v after the clock %v", c.LastTime, now)
	}
	return nil
}

// RestoreTracker reconstructs a tracker from a checkpoint under model m. c
// must pass Validate.
func RestoreTracker(m Model, c Checkpoint) *Tracker {
	return &Tracker{
		model:    m,
		tempC:    c.TempC,
		steadyC:  c.SteadyC,
		lastTime: c.LastTime,
		integral: c.Integral,
		maxC:     c.MaxC,
	}
}

// PeekMeanTemp returns the time-weighted mean operating temperature over
// [0, now] WITHOUT advancing the tracker. MeanTemp commits the pending
// interval into the running integral, which changes the floating-point
// summation order of later advances; telemetry sampling uses this pure
// variant so that reading the temperature mid-run cannot perturb the
// simulation's results.
func (tr *Tracker) PeekMeanTemp(now float64) float64 {
	dt := now - tr.lastTime
	if dt < 0 {
		panic("thermal: time moved backwards")
	}
	if now <= 0 {
		return tr.tempC
	}
	integral := tr.integral
	if dt > 0 {
		tau := tr.model.TimeConstant
		integral += tr.steadyC*dt + (tr.tempC-tr.steadyC)*tau*(1-math.Exp(-dt/tau))
	}
	return integral / now
}

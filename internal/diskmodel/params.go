// Package diskmodel models a two-speed hard disk drive: its service-time
// characteristics at each spindle speed, its power states, and the time and
// energy costs of switching speeds.
//
// The parameter set follows the derivation used by the paper (Xie & Sun,
// IPPS'08 §5.1), which in turn adopts the strategy of Pinheiro & Bianchini
// (ICS'04): start from a conventional Seagate Cheetah-class 10,000 RPM drive
// and derive the low-speed (3,600 RPM) statistics by scaling the
// rotation-dependent quantities with the RPM ratio. Transfer rate scales
// linearly with RPM, rotational latency inversely, and seek time is
// unaffected. Spin-up/transition costs follow the figures published for
// two-speed drives in that literature.
package diskmodel

import (
	"errors"
	"fmt"
)

// Speed is a spindle speed level of a two-speed disk.
type Speed int

const (
	// Low is the energy-saving spindle speed (3,600 RPM by default).
	Low Speed = iota
	// High is the full-performance spindle speed (10,000 RPM by default).
	High
)

// String returns "low" or "high".
func (s Speed) String() string {
	switch s {
	case Low:
		return "low"
	case High:
		return "high"
	default:
		return fmt.Sprintf("Speed(%d)", int(s))
	}
}

// Params describes a two-speed disk drive. All times are seconds, rates are
// MB/s, powers are watts, and energies are joules.
type Params struct {
	// CapacityMB is the formatted capacity of the drive.
	CapacityMB float64

	// RPMHigh and RPMLow are the two spindle speeds.
	RPMHigh float64
	RPMLow  float64

	// AvgSeek is the average seek time, identical at both speeds: seeking
	// is arm motion, not rotation.
	AvgSeek float64

	// TransferHigh is the sustained media transfer rate at high speed.
	// The low-speed rate is derived as TransferHigh * RPMLow / RPMHigh
	// unless TransferLow is set explicitly (> 0).
	TransferHigh float64
	TransferLow  float64

	// Power draw by state and speed.
	PowerActiveHigh float64
	PowerIdleHigh   float64
	PowerActiveLow  float64
	PowerIdleLow    float64

	// Speed-transition costs. During a transition the disk serves no
	// requests (paper §4: "no requests can be served when a disk is
	// switching its speed").
	TransitionUpTime     float64
	TransitionUpEnergy   float64
	TransitionDownTime   float64
	TransitionDownEnergy float64

	// Seek optionally replaces the flat AvgSeek with a distance-based
	// curve; the zero value keeps the flat approximation.
	Seek SeekModel
}

// DefaultParams returns the Cheetah-derived two-speed parameter set used
// throughout the reproduction.
func DefaultParams() Params {
	return Params{
		CapacityMB:      36 * 1024,
		RPMHigh:         10000,
		RPMLow:          3600,
		AvgSeek:         0.0047, // 4.7 ms
		TransferHigh:    55.0,   // MB/s at 10k RPM
		TransferLow:     0,      // derived: 55 * 3600/10000 = 19.8 MB/s
		PowerActiveHigh: 13.5,
		PowerIdleHigh:   9.5,
		PowerActiveLow:  5.4,
		PowerIdleLow:    2.9,
		// Spin-up-class cost for low->high; the reverse is cheaper.
		TransitionUpTime:     10.9,
		TransitionUpEnergy:   135,
		TransitionDownTime:   6.0,
		TransitionDownEnergy: 13,
	}
}

// Validate reports the first implausibility in the parameter set.
func (p *Params) Validate() error {
	switch {
	case p.CapacityMB <= 0:
		return errors.New("diskmodel: capacity must be positive")
	case p.RPMHigh <= 0 || p.RPMLow <= 0:
		return errors.New("diskmodel: RPMs must be positive")
	case p.RPMLow >= p.RPMHigh:
		return errors.New("diskmodel: low RPM must be below high RPM")
	case p.AvgSeek < 0:
		return errors.New("diskmodel: negative seek time")
	case p.TransferHigh <= 0:
		return errors.New("diskmodel: high-speed transfer rate must be positive")
	case p.TransferLow < 0:
		return errors.New("diskmodel: negative low-speed transfer rate")
	case p.TransferLow > 0 && p.TransferLow >= p.TransferHigh:
		return errors.New("diskmodel: low-speed transfer rate must be below high-speed")
	case p.PowerActiveHigh <= 0 || p.PowerIdleHigh <= 0 ||
		p.PowerActiveLow <= 0 || p.PowerIdleLow <= 0:
		return errors.New("diskmodel: powers must be positive")
	case p.PowerIdleLow >= p.PowerIdleHigh:
		return errors.New("diskmodel: low-speed idle power must be below high-speed idle power")
	case p.TransitionUpTime < 0 || p.TransitionDownTime < 0 ||
		p.TransitionUpEnergy < 0 || p.TransitionDownEnergy < 0:
		return errors.New("diskmodel: negative transition cost")
	case p.Seek != SeekModel{} && !p.Seek.Enabled():
		return errors.New("diskmodel: malformed seek model")
	}
	return nil
}

// ServiceTimeAt is ServiceTime with a distance-based seek of dist cylinders
// (requires the Seek model; falls back to ServiceTime otherwise).
func (p *Params) ServiceTimeAt(sizeMB float64, s Speed, dist int) float64 {
	if !p.Seek.Enabled() {
		return p.ServiceTime(sizeMB, s)
	}
	if sizeMB < 0 {
		sizeMB = 0
	}
	return p.Seek.Time(dist) + p.RotationalLatency(s) + sizeMB/p.TransferRate(s)
}

// TransferRate returns the sustained transfer rate in MB/s at speed s.
func (p *Params) TransferRate(s Speed) float64 {
	if s == High {
		return p.TransferHigh
	}
	if p.TransferLow > 0 {
		return p.TransferLow
	}
	return p.TransferHigh * p.RPMLow / p.RPMHigh
}

// RotationalLatency returns the average rotational latency (half a
// revolution) in seconds at speed s.
func (p *Params) RotationalLatency(s Speed) float64 {
	rpm := p.RPMLow
	if s == High {
		rpm = p.RPMHigh
	}
	return 30.0 / rpm // half of 60/RPM
}

// PositioningTime returns the average positioning overhead (seek plus
// rotational latency) at speed s.
func (p *Params) PositioningTime(s Speed) float64 {
	return p.AvgSeek + p.RotationalLatency(s)
}

// ServiceTime returns the time to serve one whole-file request of sizeMB at
// speed s: one positioning operation followed by a sequential scan, matching
// the paper's whole-file access model (§4).
func (p *Params) ServiceTime(sizeMB float64, s Speed) float64 {
	if sizeMB < 0 {
		sizeMB = 0
	}
	return p.PositioningTime(s) + sizeMB/p.TransferRate(s)
}

// ActivePower returns the active power draw at speed s.
func (p *Params) ActivePower(s Speed) float64 {
	if s == High {
		return p.PowerActiveHigh
	}
	return p.PowerActiveLow
}

// IdlePower returns the idle power draw at speed s.
func (p *Params) IdlePower(s Speed) float64 {
	if s == High {
		return p.PowerIdleHigh
	}
	return p.PowerIdleLow
}

// ActiveEnergyPerMB returns the paper's J/MB active energy rate (p_h, p_l in
// §4): active power divided by transfer rate.
func (p *Params) ActiveEnergyPerMB(s Speed) float64 {
	return p.ActivePower(s) / p.TransferRate(s)
}

// TransitionTime returns the duration of a speed transition to the given
// target speed.
func (p *Params) TransitionTime(to Speed) float64 {
	if to == High {
		return p.TransitionUpTime
	}
	return p.TransitionDownTime
}

// TransitionEnergy returns the energy cost of a speed transition to the
// given target speed.
func (p *Params) TransitionEnergy(to Speed) float64 {
	if to == High {
		return p.TransitionUpEnergy
	}
	return p.TransitionDownEnergy
}

// BreakEvenIdle returns the minimum idle duration at low speed that repays
// the round-trip transition cost from high speed, the quantity a sensible
// idleness threshold must exceed (paper §5.2: "a disk spin down can cause
// more energy consumption if the idle time is not long enough").
func (p *Params) BreakEvenIdle() float64 {
	roundTripEnergy := p.TransitionDownEnergy + p.TransitionUpEnergy
	roundTripTime := p.TransitionDownTime + p.TransitionUpTime
	saving := p.PowerIdleHigh - p.PowerIdleLow
	// Energy if we stay high for the idle gap t: PowerIdleHigh * t.
	// Energy if we dip low: roundTripEnergy + PowerIdleLow*(t-roundTripTime).
	// Break-even: t = (roundTripEnergy - PowerIdleLow*roundTripTime) / saving.
	return (roundTripEnergy - p.PowerIdleLow*roundTripTime) / saving
}

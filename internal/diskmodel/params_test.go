package diskmodel

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDefaultParamsValid(t *testing.T) {
	p := DefaultParams()
	if err := p.Validate(); err != nil {
		t.Fatalf("default params invalid: %v", err)
	}
}

func TestValidateCatchesEachField(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Params)
	}{
		{"zero capacity", func(p *Params) { p.CapacityMB = 0 }},
		{"zero high rpm", func(p *Params) { p.RPMHigh = 0 }},
		{"zero low rpm", func(p *Params) { p.RPMLow = 0 }},
		{"low rpm above high", func(p *Params) { p.RPMLow = p.RPMHigh + 1 }},
		{"negative seek", func(p *Params) { p.AvgSeek = -1 }},
		{"zero transfer", func(p *Params) { p.TransferHigh = 0 }},
		{"negative low transfer", func(p *Params) { p.TransferLow = -1 }},
		{"low transfer above high", func(p *Params) { p.TransferLow = p.TransferHigh * 2 }},
		{"zero active high power", func(p *Params) { p.PowerActiveHigh = 0 }},
		{"zero idle low power", func(p *Params) { p.PowerIdleLow = 0 }},
		{"idle low above idle high", func(p *Params) { p.PowerIdleLow = p.PowerIdleHigh + 1 }},
		{"negative up time", func(p *Params) { p.TransitionUpTime = -1 }},
		{"negative down energy", func(p *Params) { p.TransitionDownEnergy = -1 }},
	}
	for _, tc := range cases {
		p := DefaultParams()
		tc.mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s: Validate accepted invalid params", tc.name)
		}
	}
}

func TestDerivedLowTransferRate(t *testing.T) {
	p := DefaultParams()
	want := p.TransferHigh * p.RPMLow / p.RPMHigh // 55 * 0.36 = 19.8
	if got := p.TransferRate(Low); math.Abs(got-want) > 1e-12 {
		t.Fatalf("TransferRate(Low) = %v, want %v", got, want)
	}
	if got := p.TransferRate(High); got != p.TransferHigh {
		t.Fatalf("TransferRate(High) = %v, want %v", got, p.TransferHigh)
	}
	// Explicit low-speed rate overrides derivation.
	p.TransferLow = 21
	if got := p.TransferRate(Low); got != 21 {
		t.Fatalf("explicit TransferRate(Low) = %v, want 21", got)
	}
}

func TestRotationalLatency(t *testing.T) {
	p := DefaultParams()
	if got := p.RotationalLatency(High); math.Abs(got-0.003) > 1e-12 {
		t.Fatalf("RotationalLatency(High) = %v, want 3ms", got)
	}
	if got := p.RotationalLatency(Low); math.Abs(got-30.0/3600) > 1e-12 {
		t.Fatalf("RotationalLatency(Low) = %v, want %v", got, 30.0/3600)
	}
}

func TestServiceTimeComposition(t *testing.T) {
	p := DefaultParams()
	size := 2.5 // MB
	want := p.AvgSeek + p.RotationalLatency(High) + size/p.TransferHigh
	if got := p.ServiceTime(size, High); math.Abs(got-want) > 1e-12 {
		t.Fatalf("ServiceTime = %v, want %v", got, want)
	}
}

func TestServiceTimeLowSlowerThanHigh(t *testing.T) {
	p := DefaultParams()
	for _, size := range []float64{0, 0.01, 0.1, 1, 10, 100} {
		if p.ServiceTime(size, Low) <= p.ServiceTime(size, High) {
			t.Fatalf("size %v: low-speed service not slower than high-speed", size)
		}
	}
}

func TestServiceTimeNegativeSizeClamped(t *testing.T) {
	p := DefaultParams()
	if got, want := p.ServiceTime(-5, High), p.PositioningTime(High); got != want {
		t.Fatalf("ServiceTime(-5) = %v, want bare positioning time %v", got, want)
	}
}

func TestActiveEnergyPerMBOrdering(t *testing.T) {
	// J/MB at low speed exceeds high speed for this parameter set: the
	// power saving (13.5 -> 5.4 W) is smaller than the slowdown (55 ->
	// 19.8 MB/s), which is exactly why serving popular data on low-speed
	// disks wastes energy and why skew policies keep hot data on fast
	// disks.
	p := DefaultParams()
	if p.ActiveEnergyPerMB(Low) <= p.ActiveEnergyPerMB(High) {
		t.Fatalf("expected low-speed J/MB (%v) > high-speed J/MB (%v)",
			p.ActiveEnergyPerMB(Low), p.ActiveEnergyPerMB(High))
	}
}

func TestTransitionCostAccessors(t *testing.T) {
	p := DefaultParams()
	if p.TransitionTime(High) != p.TransitionUpTime {
		t.Fatal("TransitionTime(High) mismatch")
	}
	if p.TransitionTime(Low) != p.TransitionDownTime {
		t.Fatal("TransitionTime(Low) mismatch")
	}
	if p.TransitionEnergy(High) != p.TransitionUpEnergy {
		t.Fatal("TransitionEnergy(High) mismatch")
	}
	if p.TransitionEnergy(Low) != p.TransitionDownEnergy {
		t.Fatal("TransitionEnergy(Low) mismatch")
	}
}

func TestBreakEvenIdle(t *testing.T) {
	p := DefaultParams()
	te := p.BreakEvenIdle()
	if te <= 0 {
		t.Fatalf("break-even idle %v must be positive for default params", te)
	}
	// At exactly the break-even gap the two strategies cost the same.
	stayHigh := p.PowerIdleHigh * te
	dipLow := p.TransitionDownEnergy + p.TransitionUpEnergy +
		p.PowerIdleLow*(te-p.TransitionDownTime-p.TransitionUpTime)
	if math.Abs(stayHigh-dipLow) > 1e-9 {
		t.Fatalf("break-even not balanced: stay=%v dip=%v", stayHigh, dipLow)
	}
	// Longer gaps favour dipping low.
	long := te * 3
	stayHigh = p.PowerIdleHigh * long
	dipLow = p.TransitionDownEnergy + p.TransitionUpEnergy +
		p.PowerIdleLow*(long-p.TransitionDownTime-p.TransitionUpTime)
	if dipLow >= stayHigh {
		t.Fatal("long idle gap should favour the low-speed dip")
	}
}

func TestSpeedString(t *testing.T) {
	if Low.String() != "low" || High.String() != "high" {
		t.Fatal("Speed.String mismatch")
	}
	if Speed(9).String() != "Speed(9)" {
		t.Fatal("unknown speed String mismatch")
	}
}

func TestStateString(t *testing.T) {
	if Idle.String() != "idle" || Active.String() != "active" || Transitioning.String() != "transitioning" {
		t.Fatal("State.String mismatch")
	}
	if State(9).String() != "State(9)" {
		t.Fatal("unknown state String mismatch")
	}
}

// Property: service time is monotone non-decreasing in file size at both
// speeds.
func TestPropertyServiceTimeMonotone(t *testing.T) {
	p := DefaultParams()
	f := func(a, b float64) bool {
		a, b = math.Abs(a), math.Abs(b)
		if math.IsInf(a, 0) || math.IsInf(b, 0) || math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		lo, hi := math.Min(a, b), math.Max(a, b)
		return p.ServiceTime(lo, High) <= p.ServiceTime(hi, High) &&
			p.ServiceTime(lo, Low) <= p.ServiceTime(hi, Low)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

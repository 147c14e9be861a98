package diskmodel

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func newTestDisk(s Speed) *Disk { return New(0, DefaultParams(), s) }

func TestIdleEnergyIntegration(t *testing.T) {
	d := newTestDisk(High)
	got := d.EnergyJ(100)
	want := DefaultParams().PowerIdleHigh * 100
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("idle energy = %v, want %v", got, want)
	}
}

func TestActiveEnergyIntegration(t *testing.T) {
	p := DefaultParams()
	d := New(1, p, High)
	dur := d.BeginService(10, 5)
	wantDur := p.ServiceTime(5, High)
	if math.Abs(dur-wantDur) > 1e-12 {
		t.Fatalf("service duration = %v, want %v", dur, wantDur)
	}
	d.EndService(10 + dur)
	got := d.EnergyJ(10 + dur)
	want := p.PowerIdleHigh*10 + p.PowerActiveHigh*dur
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("energy = %v, want %v", got, want)
	}
	if d.Requests() != 1 || d.BytesServedMB() != 5 {
		t.Fatalf("counters: requests=%d bytes=%v", d.Requests(), d.BytesServedMB())
	}
}

func TestTransitionEnergyAndSpeedChange(t *testing.T) {
	p := DefaultParams()
	d := New(2, p, High)
	dur := d.BeginTransition(50, Low)
	if dur != p.TransitionDownTime {
		t.Fatalf("down transition duration = %v, want %v", dur, p.TransitionDownTime)
	}
	if d.State() != Transitioning {
		t.Fatalf("state = %v during transition", d.State())
	}
	d.EndTransition(50 + dur)
	if d.Speed() != Low {
		t.Fatalf("speed = %v after down transition", d.Speed())
	}
	if d.State() != Idle {
		t.Fatalf("state = %v after transition", d.State())
	}
	got := d.EnergyJ(50 + dur)
	want := p.PowerIdleHigh*50 + p.TransitionDownEnergy
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("energy = %v, want %v", got, want)
	}
	if d.Transitions() != 1 || d.UpTransitions() != 0 {
		t.Fatalf("transitions=%d up=%d", d.Transitions(), d.UpTransitions())
	}
}

func TestUpTransitionCounted(t *testing.T) {
	d := newTestDisk(Low)
	dur := d.BeginTransition(0, High)
	d.EndTransition(dur)
	if d.Transitions() != 1 || d.UpTransitions() != 1 {
		t.Fatalf("transitions=%d up=%d, want 1/1", d.Transitions(), d.UpTransitions())
	}
	if d.Speed() != High {
		t.Fatalf("speed = %v after up transition", d.Speed())
	}
}

func TestUtilizationDefinition(t *testing.T) {
	d := newTestDisk(High)
	// Busy for 30s out of 100s elapsed.
	var clock float64 = 10
	for i := 0; i < 3; i++ {
		d.BeginService(clock, 0)
		// Force exactly 10s of service by ignoring the returned duration:
		// utilization accounting depends only on Begin/End timestamps.
		d.EndService(clock + 10)
		clock += 20
	}
	got := d.Utilization(100)
	if math.Abs(got-0.3) > 1e-12 {
		t.Fatalf("utilization = %v, want 0.3", got)
	}
}

func TestUtilizationZeroAtTimeZero(t *testing.T) {
	d := newTestDisk(High)
	if got := d.Utilization(0); got != 0 {
		t.Fatalf("utilization at t=0 = %v, want 0", got)
	}
}

func TestIdleSinceTracking(t *testing.T) {
	d := newTestDisk(High)
	if d.IdleSince() != 0 {
		t.Fatalf("initial IdleSince = %v, want 0", d.IdleSince())
	}
	dur := d.BeginService(5, 1)
	if !math.IsInf(d.IdleSince(), 1) {
		t.Fatal("IdleSince not +Inf while busy")
	}
	d.EndService(5 + dur)
	if d.IdleSince() != 5+dur {
		t.Fatalf("IdleSince = %v, want %v", d.IdleSince(), 5+dur)
	}
}

func TestCanTransition(t *testing.T) {
	d := newTestDisk(High)
	if d.CanTransition(High) {
		t.Fatal("transition to current speed allowed")
	}
	if !d.CanTransition(Low) {
		t.Fatal("idle disk cannot transition")
	}
	d.BeginService(0, 1)
	if d.CanTransition(Low) {
		t.Fatal("busy disk can transition")
	}
}

func TestBeginServicePanicsWhenBusy(t *testing.T) {
	d := newTestDisk(High)
	d.BeginService(0, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on overlapping BeginService")
		}
	}()
	d.BeginService(0.001, 1)
}

func TestBeginTransitionPanicsWhenBusy(t *testing.T) {
	d := newTestDisk(High)
	d.BeginService(0, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on BeginTransition while active")
		}
	}()
	d.BeginTransition(0.001, Low)
}

func TestEndServicePanicsWhenIdle(t *testing.T) {
	d := newTestDisk(High)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on EndService while idle")
		}
	}()
	d.EndService(1)
}

func TestEndTransitionPanicsWhenIdle(t *testing.T) {
	d := newTestDisk(High)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on EndTransition while idle")
		}
	}()
	d.EndTransition(1)
}

func TestTimeMovingBackwardsPanics(t *testing.T) {
	d := newTestDisk(High)
	d.EnergyJ(10)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on time reversal")
		}
	}()
	d.BeginService(5, 1)
}

func TestTransitionsPerDay(t *testing.T) {
	d := newTestDisk(High)
	clock := 0.0
	for i := 0; i < 10; i++ {
		to := Low
		if d.Speed() == Low {
			to = High
		}
		dur := d.BeginTransition(clock, to)
		clock += dur
		d.EndTransition(clock)
		clock += 100
	}
	// Sub-day run: raw count.
	if got := d.TransitionsPerDay(clock); got != 10 {
		t.Fatalf("sub-day TransitionsPerDay = %v, want 10", got)
	}
	// Two-day run: averaged.
	if got := d.TransitionsPerDay(2 * 86400); got != 5 {
		t.Fatalf("two-day TransitionsPerDay = %v, want 5", got)
	}
}

func TestTimeAtSpeedAttribution(t *testing.T) {
	p := DefaultParams()
	d := New(0, p, High)
	// 100s idle at high, then transition down, then 100s idle at low.
	dur := d.BeginTransition(100, Low)
	d.EndTransition(100 + dur)
	end := 100 + dur + 100
	hi := d.TimeAtSpeed(end, High)
	lo := d.TimeAtSpeed(end, Low)
	if math.Abs(hi-100) > 1e-9 {
		t.Fatalf("TimeAtSpeed(High) = %v, want 100", hi)
	}
	// Transition time attributed to the target speed.
	if math.Abs(lo-(dur+100)) > 1e-9 {
		t.Fatalf("TimeAtSpeed(Low) = %v, want %v", lo, dur+100)
	}
}

func TestTimeDecomposition(t *testing.T) {
	d := newTestDisk(High)
	dur := d.BeginService(10, 3)
	d.EndService(10 + dur)
	tdur := d.BeginTransition(50, Low)
	d.EndTransition(50 + tdur)
	end := 200.0
	total := d.BusyTime(end) + d.IdleTimeTotal(end) + d.TransitionTimeTotal(end)
	if math.Abs(total-end) > 1e-9 {
		t.Fatalf("busy+idle+transition = %v, want %v", total, end)
	}
}

// Property: for any legal random schedule of services and transitions,
// total energy equals the sum of per-state integrals plus lump transition
// energies, and busy+idle+transition time equals elapsed time.
func TestPropertyEnergyConservation(t *testing.T) {
	p := DefaultParams()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := New(0, p, High)
		clock := 0.0
		var wantEnergy float64
		speed := High
		for i := 0; i < 50; i++ {
			gap := rng.Float64() * 20
			wantEnergy += p.IdlePower(speed) * gap
			clock += gap
			if rng.Intn(2) == 0 {
				size := rng.Float64() * 10
				dur := d.BeginService(clock, size)
				wantEnergy += p.ActivePower(speed) * dur
				clock += dur
				d.EndService(clock)
			} else {
				to := Low
				if speed == Low {
					to = High
				}
				dur := d.BeginTransition(clock, to)
				wantEnergy += p.TransitionEnergy(to)
				clock += dur
				d.EndTransition(clock)
				speed = to
			}
		}
		got := d.EnergyJ(clock)
		if math.Abs(got-wantEnergy) > 1e-6*math.Max(1, wantEnergy) {
			return false
		}
		total := d.BusyTime(clock) + d.IdleTimeTotal(clock) + d.TransitionTimeTotal(clock)
		return math.Abs(total-clock) <= 1e-6*math.Max(1, clock)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: TimeAtSpeed(Low)+TimeAtSpeed(High) always equals elapsed time.
func TestPropertySpeedResidencePartition(t *testing.T) {
	p := DefaultParams()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := New(0, p, Low)
		clock := 0.0
		for i := 0; i < 30; i++ {
			clock += rng.Float64() * 5
			if d.CanTransition(High) && rng.Intn(3) == 0 {
				dur := d.BeginTransition(clock, High)
				clock += dur
				d.EndTransition(clock)
			} else if d.CanTransition(Low) && rng.Intn(3) == 0 {
				dur := d.BeginTransition(clock, Low)
				clock += dur
				d.EndTransition(clock)
			} else {
				dur := d.BeginService(clock, rng.Float64())
				clock += dur
				d.EndService(clock)
			}
		}
		sum := d.TimeAtSpeed(clock, Low) + d.TimeAtSpeed(clock, High)
		return math.Abs(sum-clock) <= 1e-6*math.Max(1, clock)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

var sinkServiceTime float64

// BenchmarkDiskServiceTime is the disk model's cost per served request: one
// BeginService/EndService pair, which accrues energy twice and computes the
// service time.
func BenchmarkDiskServiceTime(b *testing.B) {
	d := New(0, DefaultParams(), High)
	now := 0.0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dur := d.BeginService(now, 0.5+float64(i&7))
		sinkServiceTime += dur
		now += dur
		d.EndService(now)
		now += 0.001
	}
}

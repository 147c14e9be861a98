package telemetry

import (
	"reflect"
	"sync"
	"testing"
)

func TestLivePublishAndSnapshot(t *testing.T) {
	l := NewLive(0)
	l.Tick(12.5, 100, 40, 41)
	l.PublishEpoch(3, 900.25, 1.5, 7, 4, 2)
	s := l.Snapshot()
	want := LiveSnapshot{
		SimSeconds: 12.5, Events: 100, Requests: 40, Arrivals: 41,
		EnergyJ: 900.25, WorstAFRPct: 1.5, QueueDepth: 7,
		DisksHigh: 4, DisksLow: 2, Epoch: 3,
	}
	if s != want {
		t.Fatalf("snapshot %+v, want %+v", s, want)
	}
}

// A Live with health rows reads back as a fleet view: the router's names
// for the shared clock and counters, its resilience counters, and one row
// per array. Rows out of range are ignored.
func TestLiveFleetView(t *testing.T) {
	l := NewLive(2)
	rc := RouterCounters{Retries: 12, Hedges: 4, HedgeWins: 1, Failovers: 2, Timeouts: 15, Deferred: 3, Shed: 5, Shocks: 1}
	l.TickRouter(60, 900, 390, 400, rc)
	l.PublishArray(1, ArrayDraining, 17, 1, true, 6.25)
	l.PublishArray(2, ArrayEjected, 1, 1, false, 1)
	s := l.Snapshot()
	if s.SimSeconds != 60 || s.Events != 900 || s.Requests != 390 || s.Arrivals != 400 {
		t.Fatalf("tick fields %+v", s)
	}
	want := FleetView{
		SimSeconds: 60, Requests: 400, Served: 390, RouterCounters: rc,
		PerArray: []ArrayRow{
			{Array: 0, Health: ArrayHealthy},
			{Array: 1, Health: ArrayDraining, Backlog: 17, FailedDisks: 1, Rebuilding: true, WorstAFRPct: 6.25},
		},
	}
	if s.Fleet == nil || !reflect.DeepEqual(*s.Fleet, want) {
		t.Fatalf("fleet view %+v, want %+v", s.Fleet, want)
	}
	if NewLive(0).Snapshot().Fleet != nil {
		t.Fatal("a Live without rows reads back a fleet view")
	}
}

func TestLiveNilSafe(t *testing.T) {
	var l *Live
	l.Tick(1, 2, 3, 4)
	l.TickRouter(1, 2, 3, 4, RouterCounters{Retries: 5})
	l.PublishEpoch(1, 2, 3, 4, 5, 6)
	l.PublishArray(0, ArrayHealthy, 1, 2, false, 3)
	if l.Rows() != 0 {
		t.Fatal("nil live has rows")
	}
	if s := l.Snapshot(); s != (LiveSnapshot{}) {
		t.Fatalf("nil live snapshot %+v, want zero", s)
	}
}

// TestLiveTickAddsNoAllocs pins the publish path at zero allocations: the
// ops plane must not perturb the simulation's allocation profile even when
// it is on, let alone when it is off.
func TestLiveTickAddsNoAllocs(t *testing.T) {
	l := NewLive(0)
	var i uint64
	if n := testing.AllocsPerRun(100, func() {
		i++
		l.Tick(float64(i), i, i, i)
	}); n != 0 {
		t.Fatalf("Live.Tick allocates %v per call, want 0", n)
	}
	var off *Live
	if n := testing.AllocsPerRun(100, func() {
		i++
		off.Tick(float64(i), i, i, i)
	}); n != 0 {
		t.Fatalf("nil Live.Tick allocates %v per call, want 0", n)
	}
}

// Live handles must not allocate either: every publish is a seqlock write
// of fixed fields.
func TestLiveHandlesDoNotAllocate(t *testing.T) {
	l := NewLive(2)
	var i uint64
	allocs := testing.AllocsPerRun(1000, func() {
		i++
		l.TickRouter(float64(i), i, i, i, RouterCounters{Retries: i})
		l.PublishEpoch(i, 3.5, 0.012, i, 2, 1)
		l.PublishArray(1, ArrayDraining, 4, 1, true, 0.012)
	})
	if allocs != 0 {
		t.Fatalf("live-handle updates allocated %v times per run, want 0", allocs)
	}
}

// TestLiveSnapshotConsistentUnderRace hammers Snapshot during writes; under
// -race this proves the seqlock protocol is data-race-free, and monotone
// counters prove cross-field consistency.
func TestLiveSnapshotConsistentUnderRace(t *testing.T) {
	l := NewLive(0)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var last uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := l.Snapshot()
				if s.Events < last {
					t.Errorf("events went backwards: %d -> %d", last, s.Events)
					return
				}
				if float64(s.Events) != s.SimSeconds {
					t.Errorf("torn snapshot: events %d but sim time %v", s.Events, s.SimSeconds)
					return
				}
				last = s.Events
			}
		}()
	}
	for i := uint64(1); i <= 50000; i++ {
		l.Tick(float64(i), i, i, i)
	}
	close(stop)
	wg.Wait()
}

package cluster

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/array"
	"repro/internal/checkpoint"
	"repro/internal/policy"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// TestFleetRecorderLiveTicks: a recorder's Live view — the per-cell row a
// sweep tracker shows on /progress — follows a fleet run, and attaching it
// changes nothing in the result.
func TestFleetRecorderLiveTicks(t *testing.T) {
	tr := fleetTrace(t, 40, 1000, 0.01)
	plain := runLedgered(t, resilientConfig(tr))

	live := telemetry.NewLive()
	cfg := resilientConfig(tr)
	cfg.Telemetry = &telemetry.Recorder{Live: live}
	got := runLedgered(t, cfg)
	if !reflect.DeepEqual(plain, got) {
		t.Errorf("live view changed the fleet result:\nplain %+v\nlive  %+v", plain, got)
	}
	snap := live.Snapshot()
	if snap.SimSeconds <= 0 || snap.Requests == 0 {
		t.Fatalf("live view stayed at zero: %+v", snap)
	}
	if snap.Requests != uint64(got.Served) || snap.Arrivals != uint64(got.Requests) {
		t.Errorf("live view %+v disagrees with result: %d served of %d", snap, got.Served, got.Requests)
	}
}

// TestFleetCheckpointEveryTickWithWritesInFlight: MAID members fill their
// caches with Context.EnqueueWrite, so a frequently checkpointed MAID fleet
// has cache fills in flight at many ticks. Every tick must still write a
// snapshot, some must hold a fill in flight, and a resume from each of
// those must reproduce the uninterrupted run with the event ledger intact.
func TestFleetCheckpointEveryTickWithWritesInFlight(t *testing.T) {
	const every = 0.25
	wl := workload.DefaultGenConfig()
	wl.NumFiles = 400
	wl.NumRequests = 4000
	wl.MeanInterarrival = 0.005
	wl.ZipfAlpha = 0.2 // nearly uniform popularity: mostly cache misses
	wl.Seed = 5
	tr, err := workload.Generate(wl)
	if err != nil {
		t.Fatal(err)
	}
	config := func(sink func([]byte) error) Config {
		return Config{
			Arrays:   2,
			Replicas: 2,
			Trace:    tr,
			Proto:    array.Config{Disks: 6},
			MakePolicy: func(int) (array.Policy, error) {
				return policy.NewMAID(policy.MAIDConfig{CacheDisks: 1}), nil
			},
			Checkpoint: &CheckpointSpec{EverySimSeconds: every, Sink: sink},
		}
	}

	var snaps []*checkpoint.Envelope
	want := runLedgered(t, config(func(data []byte) error {
		env, err := checkpoint.Decode(data)
		snaps = append(snaps, env)
		return err
	}))
	inFlight := 0
	for i, env := range snaps {
		if tick := every * float64(i+1); env.SimTime != tick {
			t.Fatalf("snapshot %d taken at t=%v, want the tick at t=%v", i, env.SimTime, tick)
		}
		if !bytes.Contains(env.State, []byte(`{"kind":"policy-write"`)) {
			continue
		}
		inFlight++
		cfg := config(func([]byte) error { return nil })
		ledger := watchLedger(t, &cfg)
		got, err := Resume(cfg, env.State)
		if err != nil {
			t.Fatalf("resume from t=%v: %v", env.SimTime, err)
		}
		ledger()
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("resume from t=%v diverged:\nwant %+v\ngot  %+v", env.SimTime, want, got)
		}
	}
	if inFlight == 0 {
		t.Fatalf("none of %d snapshots holds a policy write; the workload does not exercise the path", len(snaps))
	}
	t.Logf("%d snapshots, one per tick; %d with a cache fill in flight resume exactly", len(snaps), inFlight)
}

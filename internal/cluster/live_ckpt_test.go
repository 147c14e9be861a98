package cluster

import (
	"encoding/json"
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

// TestFleetCheckpointSkipsCounted: MAID members fill their cache through
// opaque write callbacks, so a frequently checkpointed MAID fleet skips
// ticks. The skips are counted in the result, carried in the snapshot, and
// a resume reproduces the uninterrupted run, count included.
func TestFleetCheckpointSkipsCounted(t *testing.T) {
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
		cfg := Config{
			Arrays:   2,
			Replicas: 2,
			Trace:    tr,
			Proto:    array.Config{Disks: 6},
			MakePolicy: func(int) (array.Policy, error) {
				return policy.NewMAID(policy.MAIDConfig{CacheDisks: 1}), nil
			},
		}
		if sink != nil {
			cfg.Checkpoint = &CheckpointSpec{EverySimSeconds: 0.25, Sink: sink}
		}
		return cfg
	}

	if plain := runLedgered(t, config(nil)); plain.CheckpointsSkipped != 0 {
		t.Fatalf("run without checkpoints reports %d skips", plain.CheckpointsSkipped)
	}
	var snaps [][]byte
	want := runLedgered(t, config(func(data []byte) error {
		snaps = append(snaps, append([]byte(nil), data...))
		return nil
	}))
	if want.CheckpointsSkipped == 0 {
		t.Fatal("no checkpoint tick was skipped; the workload does not exercise the skip path")
	}
	t.Logf("%d snapshots written, %d ticks skipped", len(snaps), want.CheckpointsSkipped)

	// Resume from the last snapshot that already counted a skip.
	var from *checkpoint.Envelope
	for _, snap := range snaps {
		env, err := checkpoint.Decode(snap)
		if err != nil {
			t.Fatal(err)
		}
		var st struct {
			Skipped int `json:"checkpoints_skipped"`
		}
		if err := json.Unmarshal(env.State, &st); err != nil {
			t.Fatal(err)
		}
		if st.Skipped > 0 {
			from = env
		}
	}
	if from == nil {
		t.Fatalf("none of %d snapshots carries a skip count", len(snaps))
	}
	cfg := config(func([]byte) error { return nil })
	ledger := watchLedger(t, &cfg)
	got, err := Resume(cfg, from.State)
	if err != nil {
		t.Fatal(err)
	}
	ledger()
	if got.CheckpointsSkipped != want.CheckpointsSkipped {
		t.Fatalf("resume counted %d skips, uninterrupted run %d", got.CheckpointsSkipped, want.CheckpointsSkipped)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("resume diverged:\nwant %+v\ngot  %+v", want, got)
	}
}

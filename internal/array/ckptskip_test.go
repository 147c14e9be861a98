package array_test

import (
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/array"
	"repro/internal/checkpoint"
	"repro/internal/policy"
	"repro/internal/workload"
)

// TestCheckpointSkipsCounted runs MAID on a miss-heavy workload. Every cache
// miss admits the file with Context.EnqueueWrite, whose completion is a
// policy callback that cannot be serialized, so some checkpoint ticks land
// while one is in flight and write no snapshot. The run must count those
// skips, a snapshot must carry the count, and a resume from it must agree
// with the uninterrupted run.
func TestCheckpointSkipsCounted(t *testing.T) {
	const every = 0.5
	wl := workload.DefaultGenConfig()
	wl.NumFiles = 400
	wl.NumRequests = 3000
	wl.MeanInterarrival = 0.01
	wl.ZipfAlpha = 0.2 // nearly uniform popularity: mostly misses
	wl.Seed = 5
	trace, err := workload.Generate(wl)
	if err != nil {
		t.Fatal(err)
	}
	config := func() array.Config {
		return array.Config{
			Disks:  6,
			Trace:  trace,
			Policy: policy.NewMAID(policy.MAIDConfig{CacheDisks: 1}),
		}
	}

	plain, err := array.Run(config())
	if err != nil {
		t.Fatal(err)
	}
	if plain.CheckpointsSkipped != 0 {
		t.Fatalf("run without checkpoints reports %d skips", plain.CheckpointsSkipped)
	}

	var snaps [][]byte
	cfg := config()
	cfg.Checkpoint = &array.CheckpointSpec{
		EverySimSeconds: every, Tool: "array-test", ConfigDigest: "test-digest",
		Sink: func(data []byte) error {
			snaps = append(snaps, append([]byte(nil), data...))
			return nil
		},
	}
	want, err := array.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
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
	cfg = config()
	cfg.Checkpoint = &array.CheckpointSpec{
		EverySimSeconds: every, Tool: "array-test", ConfigDigest: "test-digest",
		Sink: func([]byte) error { return nil },
	}
	got, err := array.Resume(cfg, from.State)
	if err != nil {
		t.Fatal(err)
	}
	if got.CheckpointsSkipped != want.CheckpointsSkipped {
		t.Fatalf("resume counted %d skips, uninterrupted run %d", got.CheckpointsSkipped, want.CheckpointsSkipped)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("resume diverged:\nwant %+v\ngot  %+v", want, got)
	}
}

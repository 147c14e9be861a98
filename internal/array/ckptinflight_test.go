package array_test

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/array"
	"repro/internal/checkpoint"
	"repro/internal/policy"
	"repro/internal/workload"
)

// policyWriteCont is how a policy-write continuation starts on the wire.
var policyWriteCont = []byte(`{"kind":"policy-write"`)

// TestCheckpointEveryTickWithWritesInFlight runs MAID on a miss-heavy
// workload: every cache miss admits the file with Context.EnqueueWrite, so
// many checkpoint ticks land while a cache fill is queued or in service.
// Every tick must still write a snapshot, some snapshots must hold a fill in
// flight, and a resume from each of those must equal the uninterrupted run.
func TestCheckpointEveryTickWithWritesInFlight(t *testing.T) {
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
	config := func(sink func([]byte) error) array.Config {
		return array.Config{
			Disks:  6,
			Trace:  trace,
			Policy: policy.NewMAID(policy.MAIDConfig{CacheDisks: 1}),
			Checkpoint: &array.CheckpointSpec{
				EverySimSeconds: every, Tool: "array-test", ConfigDigest: "test-digest", Sink: sink,
			},
		}
	}

	var snaps []*checkpoint.Envelope
	want, err := array.Run(config(func(data []byte) error {
		env, err := checkpoint.Decode(data)
		snaps = append(snaps, env)
		return err
	}))
	if err != nil {
		t.Fatal(err)
	}
	inFlight := 0
	for i, env := range snaps {
		if tick := every * float64(i+1); env.SimTime != tick {
			t.Fatalf("snapshot %d taken at t=%v, want the tick at t=%v", i, env.SimTime, tick)
		}
		if !bytes.Contains(env.State, policyWriteCont) {
			continue
		}
		inFlight++
		got, err := array.Resume(config(func([]byte) error { return nil }), env.State)
		if err != nil {
			t.Fatalf("resume from t=%v: %v", env.SimTime, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("resume from t=%v diverged:\nwant %+v\ngot  %+v", env.SimTime, want, got)
		}
	}
	if inFlight == 0 {
		t.Fatalf("none of %d snapshots holds a policy write; the workload does not exercise the path", len(snaps))
	}
	t.Logf("%d snapshots, one per tick; %d with a cache fill in flight resume exactly", len(snaps), inFlight)
}

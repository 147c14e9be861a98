package array_test

import (
	"testing"

	"repro/internal/array"
	"repro/internal/policy"
	"repro/internal/workload"
)

// TestAlwaysOnRunAllocationFree pins the typed-event hot path: once a run
// is set up, simulating a request allocates nothing — events are values in
// the engine's heap, records live in the sim's slab, and the op in service
// is held by value on its disk.
func TestAlwaysOnRunAllocationFree(t *testing.T) {
	wl := workload.DefaultGenConfig()
	wl.NumRequests = 100_000
	trace, err := workload.Generate(wl)
	if err != nil {
		t.Fatal(err)
	}
	var requests int
	allocs := testing.AllocsPerRun(1, func() {
		res, err := array.Run(array.Config{Disks: 10, Trace: trace, Policy: policy.NewAlwaysOn()})
		if err != nil {
			t.Fatal(err)
		}
		requests = res.Requests
	})
	if requests != wl.NumRequests {
		t.Fatalf("served %d of %d requests", requests, wl.NumRequests)
	}
	perReq := allocs / float64(requests)
	t.Logf("%.0f allocations per run, %.5f per request", allocs, perReq)
	if perReq >= 0.01 {
		t.Fatalf("%.4f allocations per simulated request, want < 0.01", perReq)
	}
}

// TestCheckpointAllocationBudget pins the snapshot path: the allocations a
// snapshot adds to a run must not grow with the number of files, whose
// placement and access counts every snapshot carries.
func TestCheckpointAllocationBudget(t *testing.T) {
	for _, files := range []int{200, 4000} {
		wl := workload.DefaultGenConfig()
		wl.NumFiles = files
		wl.NumRequests = 4000
		wl.MeanInterarrival = 0.01
		wl.Seed = 5
		trace, err := workload.Generate(wl)
		if err != nil {
			t.Fatal(err)
		}
		snapshots := 0
		run := func(spec *array.CheckpointSpec) float64 {
			return testing.AllocsPerRun(1, func() {
				snapshots = 0
				_, err := array.Run(array.Config{
					Disks: 6, Trace: trace, EpochSeconds: 4, Checkpoint: spec,
					Policy: policy.NewREAD(policy.READConfig{}),
				})
				if err != nil {
					t.Fatal(err)
				}
			})
		}
		plain := run(nil)
		checkpointed := run(&array.CheckpointSpec{
			EverySimSeconds: 1, Tool: "alloc", ConfigDigest: "alloc",
			Sink: func([]byte) error {
				snapshots++
				return nil
			},
		})
		if snapshots < 20 {
			t.Fatalf("%d files: %d snapshots, want at least 20", files, snapshots)
		}
		perSnapshot := (checkpointed - plain) / float64(snapshots)
		t.Logf("%d files: %.0f allocations per snapshot over %d snapshots", files, perSnapshot, snapshots)
		// Measured at 28 and 29, and at up to 50 under -race, where
		// sync.Pool drops encoding/json's pooled buffers at random. An
		// encoder that allocates a string per map key, as encoding/json's
		// map encoder does, made 709 at 200 files.
		if perSnapshot >= 100 {
			t.Fatalf("%d files: %.0f allocations per snapshot, want < 100", files, perSnapshot)
		}
	}
}

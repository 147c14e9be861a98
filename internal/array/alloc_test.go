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

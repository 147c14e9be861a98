package cluster

import (
	"testing"

	"repro/internal/array"
	"repro/internal/workload"
)

// TestFleetRunAllocationBudget pins the router's lean attempt path: once a
// fleet run is set up, routing a request allocates almost nothing. Request
// states and member continuations are recycled through free lists, the
// eligible-replica buffer is reused, and router events are slab records.
func TestFleetRunAllocationBudget(t *testing.T) {
	gen := workload.DefaultGenConfig()
	gen.NumFiles = 60
	gen.NumRequests = 20_000
	gen.MeanInterarrival = 0.002
	gen.SizeMedianMB = 0.03
	tr, err := workload.Generate(gen)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Arrays:               4,
		Replicas:             2,
		Topology:             Topology{Racks: 2},
		Trace:                tr,
		Proto:                array.Config{Disks: 3, EpochSeconds: 2},
		MakePolicy:           alwaysOn,
		Routing:              LeastLoaded,
		DeadlineSeconds:      0.02,
		MaxAttempts:          3,
		RetryBaseSeconds:     0.002,
		RetryCapSeconds:      1,
		RetryJitterFrac:      0.5,
		HedgeAfterP99Mult:    1,
		HedgeFallbackSeconds: 0.5,
		Seed:                 42,
	}
	var res *Result
	allocs := testing.AllocsPerRun(1, func() {
		if res, err = Run(cfg); err != nil {
			t.Fatal(err)
		}
	})
	if res.Served != res.Requests {
		t.Fatalf("served %d of %d requests", res.Served, res.Requests)
	}
	if res.Retries == 0 || res.Hedges == 0 {
		t.Fatalf("run exercised no retries or hedges: %+v", res)
	}
	perReq := allocs / float64(res.Served)
	t.Logf("%.0f allocations per run, %.4f per request (%d retries, %d hedges)",
		allocs, perReq, res.Retries, res.Hedges)
	// Measured at 0.024 per request, mostly set-up, since the members'
	// per-epoch access-count maps keep their buckets across epochs (0.052
	// while each epoch made a fresh map). The bound is about twice that; a
	// router that allocates a request state, a continuation and two slices
	// per request makes 5.1 here.
	if perReq >= 0.05 {
		t.Fatalf("%.4f allocations per routed request, want < 0.05", perReq)
	}
}

package cluster

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/array"
	"repro/internal/checkpoint"
	"repro/internal/checkpoint/checkpointtest"
	"repro/internal/faults"
	"repro/internal/policy"
	"repro/internal/workload"
)

// fleetFixturePath is a version-1 fleet checkpoint of fleetFixtureConfig:
// the snapshot at t = fleetFixtureAt that a Run with a checkpoint.Spec.Sink
// captured, written by the binary whose router event kinds were still
// strings in memory. It is committed, not regenerated: it pins the fleet
// wire schema (router event kind names, request table, member payloads), so
// a change that moves the schema fails here instead of silently orphaning
// users' snapshots.
var fleetFixturePath = filepath.Join("testdata", "ckpt_v1_fleet.json")

const (
	// fleetFixtureEvery is the checkpoint interval the fixture was captured
	// with; the snapshot holds a pending tick, so a resume must keep it.
	fleetFixtureEvery = 0.5
	// fleetFixtureAt is the snapshot's simulated time.
	fleetFixtureAt = 2.0
)

// fleetFixtureConfig is the run the fixture was captured from: two READ
// arrays in two racks, every file on both, with rack shocks, tight
// deadlines, retries and hedges.
func fleetFixtureConfig(t *testing.T) Config {
	t.Helper()
	wl := workload.DefaultGenConfig()
	wl.NumFiles = 24
	wl.NumRequests = 500
	wl.MeanInterarrival = 0.008
	wl.Seed = 4
	tr, err := workload.Generate(wl)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Arrays:   2,
		Replicas: 2,
		Topology: Topology{Racks: 2},
		Trace:    tr,
		Proto:    array.Config{Disks: 3, EpochSeconds: 1},
		MakePolicy: func(int) (array.Policy, error) {
			return policy.NewREAD(policy.READConfig{}), nil
		},
		Routing:              LeastLoaded,
		DeadlineSeconds:      0.1,
		MaxAttempts:          4,
		RetryBaseSeconds:     0.05,
		RetryCapSeconds:      0.5,
		RetryJitterFrac:      0.5,
		HedgeAfterP99Mult:    2,
		HedgeFallbackSeconds: 0.05,
		Seed:                 9,
		Shocks: faults.ShockConfig{
			Enabled:             true,
			Seed:                2,
			MeanIntervalSeconds: 1.5,
			MeanOutageSeconds:   0.3,
		},
	}
}

// fleetFixtureSpec is the checkpoint cadence the fixture was captured with;
// its sink discards later snapshots.
func fleetFixtureSpec() *checkpoint.Spec {
	return &checkpoint.Spec{
		EverySimSeconds: fleetFixtureEvery,
		Tool:            "fixture",
		ConfigDigest:    "fixture",
		Sink:            func([]byte) error { return nil },
	}
}

// TestFleetCheckpointFixtureV1Resumes resumes the committed version-1 fleet
// snapshot and requires the result to equal the uninterrupted run exactly.
func TestFleetCheckpointFixtureV1Resumes(t *testing.T) {
	env, err := checkpoint.Read(fleetFixturePath)
	if err != nil {
		t.Fatal(err)
	}
	if env.Version != 1 || env.SimTime != fleetFixtureAt {
		t.Fatalf("fixture envelope version %d at t=%v, want version 1 at t=%v", env.Version, env.SimTime, fleetFixtureAt)
	}
	// Guard against the fixture silently not exercising the router: it must
	// hold in-flight requests and pending deadline and hedge events.
	var st struct {
		Reqs   []json.RawMessage `json:"reqs"`
		Events []struct {
			Kind string `json:"kind"`
		} `json:"events"`
	}
	if err := json.Unmarshal(env.State, &st); err != nil {
		t.Fatal(err)
	}
	kinds := map[string]int{}
	for _, ev := range st.Events {
		kinds[ev.Kind]++
	}
	if len(st.Reqs) == 0 || kinds["fleet-deadline"] == 0 || kinds["fleet-hedge"] == 0 {
		t.Fatalf("fixture has %d in-flight requests and pending router events %v; want requests, deadlines and hedges",
			len(st.Reqs), kinds)
	}

	cfg := fleetFixtureConfig(t)
	cfg.Checkpoint = fleetFixtureSpec()
	want := runLedgered(t, cfg)
	if want.ShocksInjected == 0 || want.Hedges == 0 || want.Retries == 0 {
		t.Fatalf("fixture run lacks shocks, hedges or retries: %+v", want)
	}
	cfg = fleetFixtureConfig(t)
	cfg.Checkpoint = fleetFixtureSpec()
	ledger := watchLedger(t, &cfg)
	got, err := Resume(cfg, env.State)
	if err != nil {
		t.Fatal(err)
	}
	ledger()
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("resume from the v1 fleet fixture diverged:\nwant %+v\ngot  %+v", want, got)
	}
}

// TestFleetResumedSnapshotsMatchUninterrupted resumes a run of
// fleetFixtureConfig (two arrays on one engine, the router's events beside
// both members') from a mid-run snapshot and requires every snapshot the
// resumed run writes to be byte-identical to the uninterrupted run's.
func TestFleetResumedSnapshotsMatchUninterrupted(t *testing.T) {
	capture := func(snaps *[][]byte) *checkpoint.Spec {
		spec := fleetFixtureSpec()
		spec.Sink = func(data []byte) error {
			*snaps = append(*snaps, bytes.Clone(data))
			return nil
		}
		return spec
	}
	var full, resumed [][]byte
	cfg := fleetFixtureConfig(t)
	cfg.Checkpoint = capture(&full)
	runLedgered(t, cfg)
	from := len(full) / 2
	if from == 0 {
		t.Fatalf("only %d snapshots captured", len(full))
	}
	env, err := checkpoint.Decode(full[from-1])
	if err != nil {
		t.Fatal(err)
	}
	cfg = fleetFixtureConfig(t)
	cfg.Checkpoint = capture(&resumed)
	if _, err := Resume(cfg, env.State); err != nil {
		t.Fatal(err)
	}
	checkpointtest.SameSnapshots(t, full[from:], resumed)
}

package array_test

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/array"
	"repro/internal/array/arraytest"
	"repro/internal/checkpoint"
	"repro/internal/des"
)

// fixturePath is a version-1 checkpoint of fixtureConfig: the 15th snapshot
// (t = 60 s) a Run with a CheckpointSpec.Sink captured, written by the
// kernel that still held the in-service op inside the event record. It has
// five service events pending and a disk failure behind it. It is committed,
// not regenerated: it pins the wire schema an earlier binary wrote, so a
// change that moves the schema (renamed fields, re-ordered events, a
// different home for the in-service op) fails here instead of silently
// orphaning users' snapshots.
var fixturePath = filepath.Join("testdata", arraytest.FixtureFile)

// fixtureEvery is the checkpoint interval the fixture was captured with.
const fixtureEvery = arraytest.FixtureEvery

// fixtureConfig is the run the fixture was captured from.
var fixtureConfig = arraytest.FixtureConfig

// TestCheckpointFixtureV1Resumes resumes the committed version-1 snapshot
// and requires the result to equal the uninterrupted run exactly.
func TestCheckpointFixtureV1Resumes(t *testing.T) {
	env, err := checkpoint.Read(fixturePath)
	if err != nil {
		t.Fatal(err)
	}
	if env.Version != 1 {
		t.Fatalf("fixture envelope version %d, want 1", env.Version)
	}
	// Guard against the fixture silently not exercising the in-service op:
	// at least one pending service event must carry its op.
	var st struct {
		Events []struct {
			Kind string          `json:"kind"`
			Op   json.RawMessage `json:"op"`
		} `json:"events"`
	}
	if err := json.Unmarshal(env.State, &st); err != nil {
		t.Fatal(err)
	}
	services := 0
	for _, ev := range st.Events {
		if ev.Kind == "service" && ev.Op != nil {
			services++
		}
	}
	if services == 0 {
		t.Fatal("fixture has no pending service event with an op")
	}

	spec := func() *array.CheckpointSpec {
		return &array.CheckpointSpec{
			EverySimSeconds: fixtureEvery,
			Tool:            "fixture",
			ConfigDigest:    "fixture",
			Sink:            func([]byte) error { return nil },
		}
	}
	cfg := fixtureConfig(t)
	cfg.Checkpoint = spec()
	ledger := watchLedger(t, &cfg)
	want, err := array.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ledger()
	if want.DiskFailures == 0 {
		t.Fatalf("fixture run injected no failures")
	}
	cfg = fixtureConfig(t)
	cfg.Checkpoint = spec()
	ledger = watchLedger(t, &cfg)
	got, err := array.Resume(cfg, env.State)
	if err != nil {
		t.Fatal(err)
	}
	ledger()
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("resume from the v1 fixture diverged:\nwant %+v\ngot  %+v", want, got)
	}
}

// TestCheckpointFixtureV1Reencodes parses the committed version-1 snapshot
// and encodes it again: the state bytes and checksum must be the fixture's,
// so today's encoder writes what the first one wrote.
func TestCheckpointFixtureV1Reencodes(t *testing.T) {
	want, err := checkpoint.Read(fixturePath)
	if err != nil {
		t.Fatal(err)
	}
	state, err := array.ReencodeState(fixtureConfig(t), want.State)
	if err != nil {
		t.Fatal(err)
	}
	env := *want
	env.State = state
	if _, err := checkpoint.Encode(&env); err != nil {
		t.Fatal(err)
	}
	if env.Checksum != want.Checksum || !bytes.Equal(state, want.State) {
		t.Fatalf("re-encoded fixture differs: checksum %s, fixture %s", env.Checksum, want.Checksum)
	}
}

// BenchmarkCheckpointEncode writes one snapshot of the v1 fixture's state:
// the state build, its JSON encoding and the envelope, as a checkpoint tick
// does.
func BenchmarkCheckpointEncode(b *testing.B) {
	env, err := checkpoint.Read(fixturePath)
	if err != nil {
		b.Fatal(err)
	}
	size := 0
	cfg := fixtureConfig(b)
	cfg.Checkpoint = &array.CheckpointSpec{
		EverySimSeconds: fixtureEvery,
		Tool:            env.Tool,
		ConfigDigest:    env.ConfigDigest,
		Sink: func(data []byte) error {
			size = len(data)
			return nil
		},
	}
	write, err := array.SnapshotWriter(cfg, env.State)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := write(); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(size))
}

// BenchmarkCheckpointDecode reads the v1 fixture back: the envelope's
// integrity check and the state parse Resume starts with.
func BenchmarkCheckpointDecode(b *testing.B) {
	data, err := os.ReadFile(fixturePath)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env, err := checkpoint.Decode(data)
		if err != nil {
			b.Fatal(err)
		}
		if err := array.ParseState(env.State); err != nil {
			b.Fatal(err)
		}
	}
}

// watchLedger attaches a fresh watch to cfg and returns a check of the
// engine's conservation ledger once the run is over: every event ever
// scheduled fired or is still pending.
func watchLedger(t *testing.T, cfg *array.Config) func() {
	w := des.NewWatch()
	cfg.Watch = w
	return func() {
		t.Helper()
		if ws := w.Snapshot(); ws.Scheduled != ws.Fired+ws.Pending {
			t.Fatalf("event ledger: %d scheduled != %d fired + %d pending", ws.Scheduled, ws.Fired, ws.Pending)
		}
	}
}

package array_test

import (
	"bytes"
	"testing"

	"repro/internal/array"
	"repro/internal/checkpoint"
	"repro/internal/policy"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// TestStateEncodingMatchesEncodingJSON holds the state encoder to
// encoding/json, byte for byte. Every snapshot of runs of the seven shipped
// policies, of a faulted RAID-6 array with latent sector errors, and of a
// run with decision tracing and telemetry metrics must be what
// encoding/json writes for the state it decodes to. States a reflective
// filler built, every field of every wire type set to awkward values
// (negative zero, the smallest subnormal, both sides of the exponent-form
// switch, strings to escape, nil and empty slices), must encode alike too,
// which catches a field the encoder forgets; with NaN or an infinity in
// them, both encoders must fail.
func TestStateEncodingMatchesEncodingJSON(t *testing.T) {
	trace := func(alpha float64) *workload.Trace {
		wl := workload.DefaultGenConfig()
		wl.NumFiles = 60
		wl.NumRequests = 3000
		wl.MeanInterarrival = 0.01
		wl.ZipfAlpha = alpha
		tr, err := workload.Generate(wl)
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	plain := func(p array.Policy, alpha float64) array.Config {
		return array.Config{Disks: 5, Trace: trace(alpha), Policy: p, EpochSeconds: 4}
	}
	faulted := fixtureConfig(t)
	traced := fixtureConfig(t)
	traced.Telemetry = &telemetry.Recorder{Decisions: telemetry.NewDecisionLog()}
	runs := []struct {
		name  string
		cfg   array.Config
		every float64
	}{
		{"always-on", plain(policy.NewAlwaysOn(), 0.9), 2.5},
		{"drpm", plain(policy.NewDRPM(policy.DRPMConfig{}), 0.9), 2.5},
		{"read", plain(policy.NewREAD(policy.READConfig{}), 0.9), 2.5},
		{"read-replica", plain(policy.NewREADReplica(policy.READReplicaConfig{}), 0.9), 2.5},
		{"maid", plain(policy.NewMAID(policy.MAIDConfig{}), 0.3), 2.5},
		{"pdc", plain(policy.NewPDC(policy.PDCConfig{}), 0.9), 2.5},
		{"striped-always-on", plain(policy.NewStripedAlwaysOn(policy.StripedConfig{StripeMB: 0.01}), 0.9), 0.25},
		{"raid6-lse", faulted, fixtureEvery / 4},
		{"traced", traced, fixtureEvery / 4},
	}
	// Parts of the payload some snapshot must hold, so that the runs reach
	// every encoder.
	parts := map[string]int{`"counts":`: 0, `"migrating":`: 0, `"stripes":`: 0, `"faults":`: 0, `"raid":`: 0,
		`"log":`: 0, `"op":`: 0, `"fg":`: 0, `"bg":`: 0, `"policy-write"`: 0, `"trace":`: 0}
	for _, run := range runs {
		t.Run(run.name, func(t *testing.T) {
			cfg := run.cfg
			snapshots := 0
			cfg.Checkpoint = &array.CheckpointSpec{
				EverySimSeconds: run.every,
				Sink: func(data []byte) error {
					env, err := checkpoint.Decode(data)
					if err != nil {
						return err
					}
					got, want, err := array.DecodedStateEncodings(env.State)
					if err != nil {
						return err
					}
					if !bytes.Equal(env.State, want) || !bytes.Equal(got, want) {
						t.Errorf("snapshot %d at t=%v differs from encoding/json:\nwrote      %s\nre-encoded %s\nwant       %s",
							snapshots, env.SimTime, env.State, got, want)
					}
					for part := range parts {
						if bytes.Contains(env.State, []byte(part)) {
							parts[part]++
						}
					}
					snapshots++
					return nil
				},
			}
			if _, err := array.Run(cfg); err != nil {
				t.Fatal(err)
			}
			if snapshots < 4 {
				t.Fatalf("only %d snapshots", snapshots)
			}
		})
	}
	for part, n := range parts {
		if n == 0 {
			t.Errorf("no snapshot holds %s", part)
		}
	}

	refused := 0
	for seed := int64(1); seed <= 400; seed++ {
		nonFinite := seed%4 == 0
		got, gotErr, want, wantErr := array.FilledStateEncodings(seed, nonFinite)
		if wantErr != nil {
			refused++
		}
		checkFilled(t, seed, nonFinite, got, gotErr, want, wantErr)
	}
	if refused == 0 {
		t.Error("no filled state held a NaN or an infinity")
	}
}

// checkFilled requires the two encodings of a filled state to agree: both
// fail, or both succeed with the same bytes.
func checkFilled(t *testing.T, seed int64, nonFinite bool, got []byte, gotErr error, want []byte, wantErr error) {
	t.Helper()
	switch {
	case wantErr != nil && gotErr == nil:
		t.Fatalf("seed %d: encoding/json fails (%v), the encoder wrote %s", seed, wantErr, got)
	case wantErr == nil && gotErr != nil:
		t.Fatalf("seed %d: the encoder fails (%v), encoding/json wrote %s", seed, gotErr, want)
	case wantErr == nil && !bytes.Equal(got, want):
		t.Fatalf("seed %d (non-finite %v):\ngot  %s\nwant %s", seed, nonFinite, got, want)
	}
}

// FuzzStateEncoding fills a state from the fuzzer's seed and requires the
// state encoder and encoding/json to agree on it.
func FuzzStateEncoding(f *testing.F) {
	f.Add(int64(1), false)
	f.Add(int64(2), true)
	f.Fuzz(func(t *testing.T, seed int64, nonFinite bool) {
		got, gotErr, want, wantErr := array.FilledStateEncodings(seed, nonFinite)
		checkFilled(t, seed, nonFinite, got, gotErr, want, wantErr)
	})
}

package policy

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/array"
	"repro/internal/checkpoint"
)

// TestShippedPoliciesResumeBitIdentical runs every shipped policy with
// periodic in-process snapshots, resumes every snapshot into a freshly
// constructed instance, and requires each resumed result to equal the
// uninterrupted one exactly. This is the end-to-end exercise of each
// policy's SaveState/LoadState pair: any counter, cache entry, or adaptive
// threshold missing from the round trip shows up as a divergence. For MAID
// and READReplica, some snapshot must catch one of their copies (a
// policy-write continuation) in flight; MAID runs on a flatter popularity
// curve, whose cache misses keep fills in flight.
func TestShippedPoliciesResumeBitIdentical(t *testing.T) {
	cases := []struct {
		name   string
		fresh  func() array.Policy
		alpha  float64 // Zipf popularity skew of the trace
		writes bool    // some snapshot must hold a policy write in flight
	}{
		{"always-on", func() array.Policy { return NewAlwaysOn() }, 0.9, false},
		{"drpm", func() array.Policy { return NewDRPM(DRPMConfig{}) }, 0.9, false},
		{"read", func() array.Policy { return NewREAD(READConfig{}) }, 0.9, false},
		{"maid", func() array.Policy { return NewMAID(MAIDConfig{}) }, 0.3, true},
		{"pdc", func() array.Policy { return NewPDC(PDCConfig{}) }, 0.9, false},
		{"read-replica", func() array.Policy { return NewREADReplica(READReplicaConfig{}) }, 0.9, true},
		{"striped-always-on", func() array.Policy { return NewStripedAlwaysOn(StripedConfig{}) }, 0.9, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr := genTrace(t, 60, 3000, 0.01, tc.alpha) // ~30 s of virtual time
			baseCfg := func(pol array.Policy, sink func([]byte) error) array.Config {
				return array.Config{
					Disks:        5,
					Trace:        tr,
					Policy:       pol,
					EpochSeconds: 4, // several epochs, so policies migrate/copy
					Checkpoint: &array.CheckpointSpec{
						EverySimSeconds: 2.5,
						Tool:            "policy-test",
						ConfigDigest:    "policy-digest",
						Sink:            sink,
					},
				}
			}

			var snaps [][]byte
			want, err := array.Run(baseCfg(tc.fresh(), func(data []byte) error {
				snaps = append(snaps, append([]byte(nil), data...))
				return nil
			}))
			if err != nil {
				t.Fatal(err)
			}
			if len(snaps) < 2 {
				t.Fatalf("only %d snapshots captured", len(snaps))
			}

			writes := 0
			for _, snap := range snaps {
				env, err := checkpoint.Decode(snap)
				if err != nil {
					t.Fatal(err)
				}
				if bytes.Contains(env.State, []byte(`{"kind":"policy-write"`)) {
					writes++
				}
				got, err := array.Resume(baseCfg(tc.fresh(), func([]byte) error { return nil }), env.State)
				if err != nil {
					t.Fatalf("resume from t=%v: %v", env.SimTime, err)
				}
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("resume from t=%v diverged from uninterrupted run:\nwant %+v\ngot  %+v", env.SimTime, want, got)
				}
			}
			if tc.writes && writes == 0 {
				t.Fatalf("none of %d snapshots holds a policy write in flight", len(snaps))
			}
			t.Logf("%d snapshots resume exactly, %d with a policy write in flight", len(snaps), writes)
		})
	}
}

// TestPolicyStateRejectsGarbage checks LoadState surfaces malformed payloads
// instead of silently zeroing the policy.
func TestPolicyStateRejectsGarbage(t *testing.T) {
	bad := []byte(`{"theta": `)
	for _, p := range []array.CheckpointablePolicy{
		NewREAD(READConfig{}),
		NewMAID(MAIDConfig{}),
		NewPDC(PDCConfig{}),
		NewREADReplica(READReplicaConfig{}),
		NewStripedAlwaysOn(StripedConfig{}),
	} {
		if err := p.LoadState(bad); err == nil {
			t.Errorf("%s: LoadState accepted truncated JSON", p.Name())
		}
	}
}

package array_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"repro/internal/array"
	"repro/internal/checkpoint"
	"repro/internal/policy"
)

// checkpointedPolicy is a policy the equivalence test can run: checkpoint
// support plus the failure hooks READ, MAID and PDC all implement.
type checkpointedPolicy interface {
	array.CheckpointablePolicy
	array.FailureAwarePolicy
}

// ctxCapture forwards every hook to its policy and keeps the Context the
// run initialized it with, so that a checkpoint sink can reach the live run.
type ctxCapture struct {
	checkpointedPolicy
	ctx *array.Context
}

func (p *ctxCapture) Init(ctx *array.Context) error {
	p.ctx = ctx
	return p.checkpointedPolicy.Init(ctx)
}

// TestCheckpointEncodingMatchesLegacy writes every snapshot of READ, MAID
// and PDC runs on the RAID-6 fixture configuration through today's encoder
// and through the one it replaced, and requires identical compacted state
// bytes and checksums. The old encoder put every field through
// encoding/json, the file-keyed maps as plain map[int]int, and the
// envelope through json.MarshalIndent, its checksum over the compacted
// state.
func TestCheckpointEncodingMatchesLegacy(t *testing.T) {
	for _, p := range []checkpointedPolicy{
		policy.NewREAD(policy.READConfig{}),
		policy.NewMAID(policy.MAIDConfig{}),
		policy.NewPDC(policy.PDCConfig{}),
	} {
		t.Run(p.Name(), func(t *testing.T) {
			pol := &ctxCapture{checkpointedPolicy: p}
			cfg := fixtureConfig(t)
			cfg.Policy = pol
			snapshots, mixedCounts := 0, 0
			cfg.Checkpoint = &array.CheckpointSpec{
				EverySimSeconds: fixtureEvery / 4,
				Tool:            "equiv",
				ConfigDigest:    "fixture",
				Sink: func(data []byte) error {
					got, err := checkpoint.Decode(data)
					if err != nil {
						return err
					}
					legacy, err := array.LegacyState(pol.ctx)
					if err != nil {
						return err
					}
					var compacted bytes.Buffer
					if err := json.Compact(&compacted, legacy); err != nil {
						return err
					}
					sum := sha256.Sum256(compacted.Bytes())
					env := *got
					env.State, env.Checksum = legacy, hex.EncodeToString(sum[:])
					indented, err := json.MarshalIndent(&env, "", "  ")
					if err != nil {
						return err
					}
					want, err := checkpoint.Decode(indented)
					if err != nil {
						return err
					}
					if got.Checksum != want.Checksum || !bytes.Equal(got.State, want.State) {
						t.Errorf("snapshot %d at t=%v: state or checksum differs from the legacy encoder", snapshots, got.SimTime)
					}
					snapshots++
					if countsCrossDigits(t, got.State) {
						mixedCounts++
					}
					return nil
				},
			}
			if _, err := array.Run(cfg); err != nil {
				t.Fatal(err)
			}
			t.Logf("%d snapshots, %d with counts keyed both below and above 10", snapshots, mixedCounts)
			// MAID writes fewest: ticks while its cache fills are in flight
			// are skipped.
			if mixedCounts == 0 {
				t.Fatalf("none of %d snapshots has counts where string and numeric key order differ", snapshots)
			}
		})
	}
}

// countsCrossDigits reports whether a state's access counts hold file IDs
// both below and at or above 10, where the decimal-string order of the
// keys differs from their numeric order.
func countsCrossDigits(t *testing.T, state []byte) bool {
	var st struct {
		Counts map[int]int `json:"counts"`
	}
	if err := json.Unmarshal(state, &st); err != nil {
		t.Fatal(err)
	}
	below, above := false, false
	for id := range st.Counts {
		below = below || id < 10
		above = above || id >= 10
	}
	return below && above
}

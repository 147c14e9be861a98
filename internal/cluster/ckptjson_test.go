package cluster

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/checkpoint/checkpointtest"
	"repro/internal/telemetry"
)

// TestStateEncodingMatchesEncodingJSON holds the fleet state encoder to
// encoding/json, byte for byte. Every snapshot of a 2-array fleet with
// shocks, retries and hedges, with and without decision tracing, must be
// what encoding/json writes for the live fleet state with each member's
// payload as a json.RawMessage. Fleet states a reflective filler built,
// every field set to awkward values, must encode alike too, and with NaN
// or an infinity in them both encoders must fail.
func TestStateEncodingMatchesEncodingJSON(t *testing.T) {
	for _, traced := range []bool{false, true} {
		cfg := fleetFixtureConfig(t)
		if traced {
			cfg.Telemetry = &telemetry.Recorder{Decisions: telemetry.NewDecisionLog()}
		}
		cfg.setDefaults()
		if err := cfg.Validate(); err != nil {
			t.Fatal(err)
		}
		var c *clusterSim
		snapshots, decisions := 0, 0
		cfg.Checkpoint = &CheckpointSpec{
			EverySimSeconds: 0.25,
			Sink: func(data []byte) error {
				env, err := checkpoint.Decode(data)
				if err != nil {
					return err
				}
				st := c.buildState()
				for _, m := range c.members {
					payload, err := m.AppendCheckpointState(nil)
					if err != nil {
						return err
					}
					st.Members = append(st.Members, payload)
				}
				want, err := json.Marshal(st)
				if err != nil {
					return err
				}
				if !bytes.Equal(env.State, want) {
					t.Errorf("traced %v, snapshot %d at t=%v differs from encoding/json:\ngot  %s\nwant %s",
						traced, snapshots, env.SimTime, env.State, want)
				}
				if st.Decisions != nil && len(st.Decisions.Records) > 0 {
					decisions++
				}
				snapshots++
				return nil
			},
		}
		var err error
		if c, err = newClusterSim(&cfg); err != nil {
			t.Fatal(err)
		}
		if err := c.start(); err != nil {
			t.Fatal(err)
		}
		if _, err := c.finish(); err != nil {
			t.Fatal(err)
		}
		if snapshots < 4 || traced && decisions == 0 {
			t.Fatalf("traced %v: %d snapshots, %d with decisions", traced, snapshots, decisions)
		}
	}

	refused := 0
	for seed := int64(1); seed <= 400; seed++ {
		f := checkpointtest.Filler{Rand: rand.New(rand.NewSource(seed)), NonFinite: seed%4 == 0}
		var st clusterState
		f.Fill(&st)
		// A snapshot writes the members in place; a filled state has none.
		st.Members = nil
		got, gotErr := st.appendJSON(nil, nil)
		want, wantErr := json.Marshal(&st)
		switch {
		case wantErr != nil:
			refused++
			if gotErr == nil {
				t.Fatalf("seed %d: encoding/json fails (%v), the encoder wrote %s", seed, wantErr, got)
			}
		case gotErr != nil:
			t.Fatalf("seed %d: the encoder fails (%v), encoding/json wrote %s", seed, gotErr, want)
		case !bytes.Equal(got, want):
			t.Fatalf("seed %d:\ngot  %s\nwant %s", seed, got, want)
		}
	}
	if refused == 0 {
		t.Error("no filled state held a NaN or an infinity")
	}
}

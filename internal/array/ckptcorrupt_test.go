package array_test

import (
	"strings"
	"testing"

	"repro/internal/array"
	"repro/internal/array/arraytest"
	"repro/internal/checkpoint"
)

// TestResumeRejectsCorruptFixture restores the corrupted copies of the v1
// fixture that arraytest.Corruptions lists. Each must fail with its error:
// never a panic, and never a silent resume.
func TestResumeRejectsCorruptFixture(t *testing.T) {
	env, err := checkpoint.Read(fixturePath)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range arraytest.Corruptions {
		t.Run(tc.Name, func(t *testing.T) {
			state, err := arraytest.Edit(env.State, tc.Corrupt)
			if err != nil {
				t.Fatal(err)
			}
			cfg := fixtureConfig(t)
			cfg.Checkpoint = &array.CheckpointSpec{EverySimSeconds: fixtureEvery, Sink: func([]byte) error { return nil }}
			_, err = array.Resume(cfg, state)
			if err == nil || !strings.Contains(err.Error(), tc.Want) {
				t.Fatalf("want error containing %q, got %v", tc.Want, err)
			}
		})
	}
}

// TestValidateAloneRejectsCorruptFixture pins the one-validator contract:
// every corruption is already rejected, with its error, by the payload's
// validate alone, before anything is rebuilt, and the fixture itself
// passes it.
func TestValidateAloneRejectsCorruptFixture(t *testing.T) {
	env, err := checkpoint.Read(fixturePath)
	if err != nil {
		t.Fatal(err)
	}
	cfg := fixtureConfig(t)
	cfg.Checkpoint = &array.CheckpointSpec{EverySimSeconds: fixtureEvery, Sink: func([]byte) error { return nil }}
	if err := array.ValidateState(cfg, env.State); err != nil {
		t.Fatalf("fixture fails validation: %v", err)
	}
	for _, tc := range arraytest.Corruptions {
		state, err := arraytest.Edit(env.State, tc.Corrupt)
		if err != nil {
			t.Fatal(err)
		}
		if err := array.ValidateState(cfg, state); err == nil || !strings.Contains(err.Error(), tc.Want) {
			t.Errorf("%s: validate: want error containing %q, got %v", tc.Name, tc.Want, err)
		}
	}
}

package cluster

import (
	"fmt"
	"path/filepath"
	"runtime/debug"
	"testing"
	"time"

	"repro/internal/array"
	"repro/internal/array/arraytest"
	"repro/internal/checkpoint"
)

// restoreDeadline bounds one fuzzed restore and its run in wall-clock time.
// Both fixtures resume in well under a second; a payload that passes
// validation but never lets its run end shows up as a timeout here,
// which the engine's StallLimit cannot catch while virtual time advances.
const restoreDeadline = 10 * time.Second

// FuzzCheckpointRestore restores fuzzed array and fleet checkpoint payloads
// under their fixtures' configurations and runs them. It is seeded with both
// version-1 fixtures and every corruption in the array and fleet tables. A
// payload the validator rejects must return an error and never panic; one
// it accepts must restore and run to completion, with a result or an
// error, within restoreDeadline.
func FuzzCheckpointRestore(f *testing.F) {
	arrayEnv, err := checkpoint.Read(filepath.Join("..", "array", "testdata", arraytest.FixtureFile))
	if err != nil {
		f.Fatal(err)
	}
	fleetEnv, err := checkpoint.Read(fleetFixturePath)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(false, []byte(arrayEnv.State))
	f.Add(true, []byte(fleetEnv.State))
	add := func(fleet bool, state []byte, corrupt func(map[string]any)) {
		edited, err := arraytest.Edit(state, corrupt)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(fleet, edited)
	}
	for _, tc := range arraytest.Corruptions {
		add(false, arrayEnv.State, tc.Corrupt)
	}
	for _, tc := range fleetCorruptions {
		add(true, fleetEnv.State, tc.corrupt)
	}
	f.Fuzz(func(t *testing.T, fleet bool, state []byte) {
		var resume func() error
		if fleet {
			cfg := fleetFixtureConfig(t)
			cfg.Checkpoint = fleetFixtureSpec()
			resume = func() error {
				c, err := restore(cfg, state)
				if err != nil {
					return err
				}
				_, err = c.finish()
				return err
			}
		} else {
			cfg := arraytest.FixtureConfig(t)
			cfg.Checkpoint = &array.CheckpointSpec{EverySimSeconds: arraytest.FixtureEvery, Sink: func([]byte) error { return nil }}
			resume = func() error {
				_, err := array.Resume(cfg, state)
				return err
			}
		}
		done := make(chan string, 1)
		go func() {
			defer func() {
				if r := recover(); r != nil {
					done <- fmt.Sprintf("panic: %v\n%s", r, debug.Stack())
				}
			}()
			// A rejected payload and a run that fails are both fine; only
			// a panic or a run that does not end fails the target.
			_ = resume()
			done <- ""
		}()
		select {
		case msg := <-done:
			if msg != "" {
				t.Fatal(msg)
			}
		case <-time.After(restoreDeadline):
			t.Fatalf("restore still running after %v", restoreDeadline)
		}
	})
}

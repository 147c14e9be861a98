package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	diskarray "repro"
	"repro/internal/faults"
	"repro/internal/runstore"
)

// TestMain lets a test run the command itself: with ARRAYSIM_MAIN set, the
// test binary is arraysim, parsing its own argument list.
func TestMain(m *testing.M) {
	if os.Getenv("ARRAYSIM_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runMain runs arraysim with args in a child process and returns its
// stderr and exit code.
func runMain(t *testing.T, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "ARRAYSIM_MAIN=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if errors.As(err, &exit) {
		return stderr.String(), exit.ExitCode()
	}
	if err != nil {
		t.Fatal(err)
	}
	return stderr.String(), 0
}

// TestRunIDsGolden pins the run IDs of recorded invocations: the config
// digest is a run's identity, so a refactor of how flags become a manifest
// config must leave every one of these unchanged.
func TestRunIDsGolden(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-policy", "read", "-disks", "6", "-requests", "2000", "-seed", "3"}, "golden-57582a76ec5c"},
		{[]string{"-policy", "read", "-disks", "6", "-requests", "2000", "-seed", "11",
			"-faults", "-spares", "2", "-lse-rate", "0.002", "-raid", "raid5", "-rebuild-hours", "12"}, "golden-19e129bbee64"},
	}
	for _, tc := range cases {
		dir := t.TempDir()
		args := append([]string{"-runs-dir", dir, "-run-name", "golden", "-table=false", "-quiet"}, tc.args...)
		if stderr, code := runMain(t, args...); code != 0 {
			t.Fatalf("arraysim %v: exit %d\n%s", tc.args, code, stderr)
		}
		if _, err := os.Stat(filepath.Join(dir, tc.want, "manifest.json")); err != nil {
			got, _ := filepath.Glob(filepath.Join(dir, "golden-*"))
			t.Errorf("arraysim %v: want run %s, store holds %v", tc.args, tc.want, got)
		}
	}
}

// TestReplayBuildsTheRunsSimConfig checks that -replay-decisions, which
// decodes the manifestConfig from the recorded manifest, builds exactly the
// SimConfig the run built from the same manifestConfig.
func TestReplayBuildsTheRunsSimConfig(t *testing.T) {
	fc := faults.Default()
	fc.Seed, fc.Acceleration, fc.LSERatePerHour = 4, 5e5, 0.002
	fc.Scrub = &diskarray.Weibull{Shape: 3, ScaleHours: 24}
	fc.RebuildTime = &diskarray.Weibull{Shape: 1, ScaleHours: 12}
	for _, mc := range []manifestConfig{
		{Policy: "maid", Disks: 6, Requests: 500, Intensity: 2, Seed: 3, Epochs: 12},
		{Policy: "read", Disks: 6, Requests: 500, Intensity: 1, Seed: 11, Epochs: 24,
			Faults: &fc, Spares: 2, RebuildMBps: 40,
			RAID: &diskarray.RAIDConfig{Level: "raid5", StripeWidth: 3}},
	} {
		run, runDur, err := mc.simConfig()
		if err != nil {
			t.Fatal(err)
		}
		m, err := runstore.New("arraysim", "replay", mc)
		if err != nil {
			t.Fatal(err)
		}
		recorded, err := recordedConfig(m)
		if err != nil {
			t.Fatal(err)
		}
		replay, replayDur, err := recorded.simConfig()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(run, replay) || runDur != replayDur {
			t.Errorf("policy %s: run and replay SimConfigs differ:\nrun    %+v\nreplay %+v", mc.Policy, run, replay)
		}
	}
}

func TestUsageErrors(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"stray"}, `arraysim: unexpected positional arguments ["stray"]`},
		{[]string{"-trace", "x.trace", "-seed", "2"}, "arraysim: -trace replays a file"},
		{[]string{"-policy", "raed"}, `arraysim: invalid -policy "raed"`},
		{[]string{"-override", "1:skip"}, "arraysim: -override requires -replay-decisions"},
		{[]string{"-checkpoint-every", "5"}, "arraysim: -checkpoint-every requires -runs-dir"},
		{[]string{"-replay-decisions", "runs/x", "-disks", "4"}, "arraysim: -replay-decisions derives the run configuration from the recorded manifest; drop -disks"},
	}
	for _, tc := range cases {
		stderr, code := runMain(t, tc.args...)
		if code != 2 || !strings.HasPrefix(stderr, tc.want) {
			t.Errorf("arraysim %v: exit %d, stderr %q; want exit 2 and %q", tc.args, code, stderr, tc.want)
		}
	}
}

// TestUnrecordedRun runs arraysim with no run store, telemetry or ops
// plane: the path where every optional sink is absent.
func TestUnrecordedRun(t *testing.T) {
	if stderr, code := runMain(t, "-disks", "4", "-requests", "500", "-table=false"); code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr)
	}
}

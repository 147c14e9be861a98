package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiment"
)

// TestMain lets a test run the command itself: with EXPERIMENTS_MAIN set,
// the test binary is experiments, parsing its own argument list.
func TestMain(m *testing.M) {
	if os.Getenv("EXPERIMENTS_MAIN") != "" {
		main()
	}
	os.Exit(m.Run())
}

// runMain runs experiments with args in a child process and returns its
// stderr and exit code.
func runMain(t *testing.T, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "EXPERIMENTS_MAIN=1")
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

func TestUsageErrors(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-fig", "derive", "bogus"}, `experiments: unexpected positional arguments ["bogus"]`},
		{[]string{"-fig", "derive", "-workers", "-4"}, "experiments: -workers -4 cannot be negative"},
		{[]string{"-fig", "derive", "-retries", "-1"}, "experiments: -retries -1 cannot be negative"},
		{[]string{"-fig", "8"}, `experiments: invalid -fig "8"`},
		{[]string{"-fig", "derive", "-resume"}, "experiments: -resume requires -runs-dir"},
	}
	for _, tc := range cases {
		stderr, code := runMain(t, tc.args...)
		if code != 2 || !strings.HasPrefix(stderr, tc.want) {
			t.Errorf("experiments %v: exit %d, stderr %q; want exit 2 and %q", tc.args, code, stderr, tc.want)
		}
	}
}

// TestCSVCommitFailure checks that a -csv file that cannot be committed
// (its name is taken by a directory) fails the command.
func TestCSVCommitFailure(t *testing.T) {
	dir := t.TempDir()
	if stderr, code := runMain(t, "-fig", "derive", "-csv", dir); code == 0 {
		t.Fatalf("experiments exited 0 with an uncommittable -csv file\n%s", stderr)
	}
	csv := filepath.Join(t.TempDir(), "out.csv")
	if stderr, code := runMain(t, "-fig", "2b", "-csv", csv); code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr)
	}
	if data, err := os.ReadFile(csv); err != nil || len(data) == 0 {
		t.Fatalf("-csv file: %d bytes, err %v", len(data), err)
	}
}

// TestDecisionLogsBeforeManifest checks the sweep commit order end to end:
// when a cell's decision log cannot be written, the sweep must not be
// recorded.
func TestDecisionLogsBeforeManifest(t *testing.T) {
	cfg := experiment.DefaultSweepConfig()
	cfg.Scale = 0.005
	id, err := experiment.SweepManifestID("fig7-light", cfg)
	if err != nil {
		t.Fatal(err)
	}
	store := t.TempDir()
	run := filepath.Join(store, id)
	blocked := filepath.Join(run, "decisions-"+strings.ReplaceAll(cfg.CellKeys()[0], ".", "-")+".ndjson")
	if err := os.MkdirAll(blocked, 0o755); err != nil {
		t.Fatal(err)
	}
	if _, code := runMain(t, "-fig", "7", "-scale", "0.005", "-runs-dir", store,
		"-trace-decisions", "-workers", "1", "-quiet"); code == 0 {
		t.Fatal("experiments exited 0 with an unwritable decision log")
	}
	if _, err := os.Stat(filepath.Join(run, "manifest.json")); err == nil {
		t.Fatal("manifest.json committed without its decision logs")
	}
}

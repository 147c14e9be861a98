package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets a test run the command itself: with FLEETSIM_MAIN set, the
// test binary is fleetsim, parsing its own argument list.
func TestMain(m *testing.M) {
	if os.Getenv("FLEETSIM_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runMain runs fleetsim with args in a child process and returns its
// stderr and exit code.
func runMain(t *testing.T, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "FLEETSIM_MAIN=1")
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
		{[]string{"-arrays", "1", "-replicas", "1", "-racks", "1", "-enclosures", "1", "-disks", "6",
			"-policy", "read", "-requests", "2000", "-seed", "5", "-deadline", "0", "-max-attempts", "1"}, "golden-fa8061b312f7"},
		{[]string{"-arrays", "3", "-replicas", "2", "-disks", "6", "-requests", "2000", "-seed", "11",
			"-deadline", "2", "-shocks", "-faults", "-fault-accel", "5e4", "-spares", "2"}, "golden-3cc86749a57b"},
	}
	for _, tc := range cases {
		dir := t.TempDir()
		args := append([]string{"-runs-dir", dir, "-run-name", "golden", "-table=false", "-quiet"}, tc.args...)
		if stderr, code := runMain(t, args...); code != 0 {
			t.Fatalf("fleetsim %v: exit %d\n%s", tc.args, code, stderr)
		}
		if _, err := os.Stat(filepath.Join(dir, tc.want, "manifest.json")); err != nil {
			got, _ := filepath.Glob(filepath.Join(dir, "golden-*"))
			t.Errorf("fleetsim %v: want run %s, store holds %v", tc.args, tc.want, got)
		}
	}
}

func TestUsageErrors(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-racks", "0"}, "fleetsim: -racks 0: a fleet needs at least 1 rack"},
		{[]string{"-racks", "-3"}, "fleetsim: -racks -3: a fleet needs at least 1 rack"},
		{[]string{"-enclosures", "0"}, "fleetsim: -enclosures 0: a rack needs at least 1 enclosure"},
		{[]string{"-trace-decisions"}, "fleetsim: -trace-decisions requires -runs-dir"},
		{[]string{"-resume"}, "fleetsim: -resume requires -runs-dir"},
		{[]string{"stray"}, `fleetsim: unexpected positional arguments ["stray"]`},
	}
	for _, tc := range cases {
		stderr, code := runMain(t, tc.args...)
		if code != 2 || !strings.HasPrefix(stderr, tc.want) {
			t.Errorf("fleetsim %v: exit %d, stderr %q; want exit 2 and %q", tc.args, code, stderr, tc.want)
		}
	}
}

// TestDecisionLogBeforeManifest checks the commit order end to end: when
// the decision log cannot be written, the run must not be recorded.
func TestDecisionLogBeforeManifest(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-runs-dir", dir, "-run-name", "golden", "-table=false", "-quiet",
		"-arrays", "1", "-replicas", "1", "-racks", "1", "-enclosures", "1", "-disks", "6",
		"-policy", "read", "-requests", "2000", "-seed", "5", "-deadline", "0", "-max-attempts", "1",
		"-trace-decisions"}
	run := filepath.Join(dir, "golden-fa8061b312f7")
	if err := os.MkdirAll(filepath.Join(run, "decisions.ndjson"), 0o755); err != nil {
		t.Fatal(err)
	}
	if _, code := runMain(t, args...); code == 0 {
		t.Fatal("fleetsim exited 0 with an unwritable decision log")
	}
	if _, err := os.Stat(filepath.Join(run, "manifest.json")); err == nil {
		t.Fatal("manifest.json committed without its decision log")
	}
	if err := os.Remove(filepath.Join(run, "decisions.ndjson")); err != nil {
		t.Fatal(err)
	}
	if stderr, code := runMain(t, args...); code != 0 {
		t.Fatalf("fleetsim: exit %d\n%s", code, stderr)
	}
	for _, name := range []string{"decisions.ndjson", "manifest.json"} {
		if _, err := os.Stat(filepath.Join(run, name)); err != nil {
			t.Fatal(err)
		}
	}
}

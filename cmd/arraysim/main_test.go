package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
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

// command returns arraysim with args as a child process.
func command(args ...string) *exec.Cmd {
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "ARRAYSIM_MAIN=1")
	return cmd
}

// runMain runs arraysim with args in a child process and returns its
// stderr and exit code.
func runMain(t *testing.T, args ...string) (string, int) {
	t.Helper()
	_, stderr, code := runOutput(t, args...)
	return stderr, code
}

// runOutput runs arraysim with args in a child process and returns its
// stdout, stderr and exit code.
func runOutput(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	cmd := command(args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if errors.As(err, &exit) {
		return stdout.String(), stderr.String(), exit.ExitCode()
	}
	if err != nil {
		t.Fatal(err)
	}
	return stdout.String(), stderr.String(), 0
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
		run, err := mc.simConfig()
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
		replay, err := recorded.simConfig()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(run, replay) {
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
		{[]string{"-replay-decisions", "runs/x", "-table=false"}, "arraysim: -replay-decisions derives the run configuration from the recorded manifest; drop -table"},
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

// metrics.json is the run's Summary, the same value the manifest records,
// next to the manifest, where the artifacts list names it. With -runs-dir
// the telemetry always goes there: a separate -telemetry-dir, which the
// manifest would not point to, is a usage error.
func TestMetricsJSONIsTheSummary(t *testing.T) {
	args := []string{"-policy", "read", "-disks", "4", "-requests", "2000", "-faults", "-spares", "1", "-table=false", "-quiet"}
	runsDir := t.TempDir()
	if stderr, code := runMain(t, append([]string{"-runs-dir", runsDir}, args...)...); code != 0 {
		t.Fatalf("arraysim %v: exit %d\n%s", args, code, stderr)
	}
	runs, _ := filepath.Glob(filepath.Join(runsDir, "arraysim-*"))
	if len(runs) != 1 {
		t.Fatalf("store holds %v", runs)
	}
	m, err := runstore.ReadManifest(filepath.Join(runs[0], runstore.ManifestName))
	if err != nil {
		t.Fatal(err)
	}
	if m.Summary.Requests != 2000 || !m.Summary.FaultsOn {
		t.Fatalf("manifest summary %+v: want 2000 requests and the fault block", m.Summary)
	}
	if want := []string{"disks.csv", "disks.ndjson", "metrics.json"}; !reflect.DeepEqual(m.Artifacts, want) {
		t.Errorf("artifacts %v, want %v", m.Artifacts, want)
	}
	raw, err := os.ReadFile(filepath.Join(runs[0], "metrics.json"))
	if err != nil {
		t.Fatal(err)
	}
	var got runstore.Summary
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, m.Summary) {
		t.Errorf("metrics.json:\n%+v\nmanifest summary:\n%+v", got, m.Summary)
	}

	elsewhere := append([]string{"-runs-dir", t.TempDir(), "-telemetry-dir", filepath.Join(t.TempDir(), "tel")}, args...)
	const want = "arraysim: -telemetry-dir cannot be combined with -runs-dir: with -runs-dir, telemetry is written into the run directory"
	if stderr, code := runMain(t, elsewhere...); code != 2 || !strings.HasPrefix(stderr, want) {
		t.Errorf("arraysim %v: exit %d, stderr %q; want exit 2 and %q", elsewhere, code, stderr, want)
	}
}

// The live surface only observes: a run prints the same report with
// -progress and -ops-addr as without them, and -progress logs the run's
// phase and done lines.
func TestProgressOnOffIdentical(t *testing.T) {
	args := []string{"-disks", "4", "-requests", "3000", "-faults", "-spares", "1"}
	plain, _, code := runOutput(t, args...)
	if code != 0 {
		t.Fatalf("plain run: exit %d", code)
	}
	observed, stderr, code := runOutput(t, append(args, "-progress", "-ops-addr", "127.0.0.1:0")...)
	if code != 0 {
		t.Fatalf("observed run: exit %d\n%s", code, stderr)
	}
	if plain != observed {
		t.Errorf("-progress/-ops-addr changed the report:\n--- plain ---\n%s--- observed ---\n%s", plain, observed)
	}
	for _, want := range []string{"phase simulate", "done simulate sim="} {
		if !strings.Contains(stderr, want) {
			t.Errorf("-progress stderr lacks %q:\n%s", want, stderr)
		}
	}
}

// A -replay-decisions run is a full simulation, and -ops-addr serves it:
// /healthz answers while the replay runs, and the replay still reproduces
// the recorded run.
func TestReplayServesOpsPlane(t *testing.T) {
	dir := t.TempDir()
	if stderr, code := runMain(t, "-runs-dir", dir, "-disks", "4", "-requests", "100000",
		"-trace-decisions", "-table=false", "-quiet"); code != 0 {
		t.Fatalf("record: exit %d\n%s", code, stderr)
	}
	runs, _ := filepath.Glob(filepath.Join(dir, "arraysim-*"))
	if len(runs) != 1 {
		t.Fatalf("store holds %v", runs)
	}
	cmd := command("-replay-decisions", runs[0], "-ops-addr", "127.0.0.1:0")
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	pipe, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// The server logs its bound address before the replay starts.
	sc := bufio.NewScanner(pipe)
	var addr string
	for addr == "" && sc.Scan() {
		if _, rest, ok := strings.Cut(sc.Text(), "listening on http://"); ok {
			addr = strings.Fields(rest)[0]
		}
	}
	if addr == "" {
		cmd.Wait()
		t.Fatal("replay never started the ops server")
	}
	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatalf("/healthz: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	io.Copy(io.Discard, pipe)
	if err := cmd.Wait(); err != nil {
		t.Fatalf("replay: %v\n%s", err, stdout.String())
	}
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"status"`) {
		t.Errorf("/healthz answered %d: %s", resp.StatusCode, body)
	}
	if !strings.Contains(stdout.String(), "reproduces the baseline bit-identically") {
		t.Errorf("replay under the ops plane diverged:\n%s", stdout.String())
	}
}

// -timeline only reads what the run's recorder collects: the recorded run
// is the same with and without it, and the timeline is printed.
func TestTimelineLeavesRunUnchanged(t *testing.T) {
	args := []string{"-policy", "read", "-disks", "4", "-requests", "2000", "-faults", "-spares", "1",
		"-run-name", "tl", "-table=false"}
	metrics := make([][]byte, 2)
	for i, extra := range [][]string{nil, {"-timeline"}} {
		dir := t.TempDir()
		stdout, stderr, code := runOutput(t, append(append([]string{"-runs-dir", dir}, args...), extra...)...)
		if code != 0 {
			t.Fatalf("arraysim %v: exit %d\n%s", extra, code, stderr)
		}
		if got := strings.Contains(stdout, "power(W)"); got != (extra != nil) {
			t.Errorf("arraysim %v: timeline printed %v:\n%s", extra, got, stdout)
		}
		runs, _ := filepath.Glob(filepath.Join(dir, "tl-*", "metrics.json"))
		if len(runs) != 1 {
			t.Fatalf("store holds %v", runs)
		}
		var err error
		if metrics[i], err = os.ReadFile(runs[0]); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(metrics[0], metrics[1]) {
		t.Errorf("-timeline changed metrics.json:\n%s\n%s", metrics[0], metrics[1])
	}
}

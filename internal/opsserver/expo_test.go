package opsserver

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/des"
	"repro/internal/telemetry"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestExpositionEscaping covers the format's escaping and ordering rules in
// isolation from the gatherer.
func TestExpositionEscaping(t *testing.T) {
	var buf bytes.Buffer
	err := WriteExposition(&buf, []Family{
		{Name: "zz_last", Type: "gauge", Samples: []Sample{{Value: 1}}},
		{Name: "aa_first", Type: "counter", Help: `line\one` + "\nline two",
			Samples: []Sample{
				{Labels: []Label{{"b", "2"}, {"a", `va"l\ue` + "\n"}}, Value: 1e6},
				{Labels: []Label{{"a", "a"}}, Value: -2.5},
			}},
		{Name: "mm_empty", Type: "gauge"}, // no samples: omitted entirely
	})
	if err != nil {
		t.Fatal(err)
	}
	want := `# HELP aa_first line\\one\nline two
# TYPE aa_first counter
aa_first_total{a="a"} -2.5
aa_first_total{a="va\"l\\ue\n",b="2"} 1e+06
# TYPE zz_last gauge
zz_last 1
# EOF
`
	if buf.String() != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", buf.String(), want)
	}
}

// goldenServer builds a server over fully deterministic sources: a fixed
// clock, fixed runtime stats, and the given views.
func goldenServer(base time.Time, opts Options) *Server {
	s := &Server{
		opts: opts,
		now:  func() time.Time { return base },
		readMemStats: func(ms *runtime.MemStats) {
			ms.HeapAlloc = 1 << 20
			ms.TotalAlloc = 10 << 20
			ms.NumGC = 7
			ms.PauseTotalNs = 1500000
		},
		goroutines: func() int { return 8 },
		start:      base.Add(-90 * time.Second),
	}
	s.lastFiredAt = s.start
	return s
}

var goldenBase = time.Unix(1700000000, 0).UTC()

// goldenWatch drives a real engine so the watch carries engine-published
// values.
func goldenWatch(t *testing.T) *des.Watch {
	t.Helper()
	watch := des.NewWatch()
	if err := drive(watch, "service", 1000, 0, 1, 2, 3, 4); err != nil {
		t.Fatal(err)
	}
	return watch
}

// newRunGoldenServer serves an array run's live view and watch next to a
// sweep tracker on the same fixed clock: every sim_*, des_* and sweep_*
// family at once.
func newRunGoldenServer(t *testing.T) *Server {
	t.Helper()
	live := telemetry.NewLive(0)
	live.Tick(3600, 120000, 40000, 40010)
	live.PublishEpoch(12, 54321.5, 1.875, 9, 4, 2)

	tr := telemetry.NewSweepTracker([]string{"read.4", "read.6", "maid.4"}, 2)
	tr.SetClock(func() time.Time { return goldenBase })
	tr.StartCell("read.4")
	tr.CellDone("read.4", 2.5, 50000)
	cellLive, _ := tr.StartCell("read.6")
	cellLive.Tick(1800, 25000, 9000, 9001)
	// maid.4 stays pending.

	return goldenServer(goldenBase, Options{
		Tool:  "experiments",
		Run:   "fig7-light",
		Live:  live,
		Watch: goldenWatch(t),
		Sweep: tr,
	})
}

// newFleetGoldenServer serves a fleet: one live view with two health rows,
// published by the router's TickRouter, and the shared engine's watch.
func newFleetGoldenServer(t *testing.T) *Server {
	t.Helper()
	live := telemetry.NewLive(2)
	live.TickRouter(3600, 120000, 40000, 40010, telemetry.RouterCounters{
		Retries: 12, Hedges: 4, HedgeWins: 1, Failovers: 2, Timeouts: 15,
		Deferred: 3, Shed: 5, Failed: 0, Shocks: 1,
	})
	live.PublishArray(0, telemetry.ArrayHealthy, 3, 0, false, 1.875)
	live.PublishArray(1, telemetry.ArrayDraining, 17, 1, true, 6.25)
	return goldenServer(goldenBase, Options{
		Tool:  "fleetsim",
		Run:   "fleet-shocks",
		Live:  live,
		Watch: goldenWatch(t),
	})
}

// goldenShapes are the two real server shapes: a single array run or
// sweep, and a fleet.
var goldenShapes = []struct {
	name, file string
	server     func(*testing.T) *Server
}{
	{"run", "metrics.golden", newRunGoldenServer},
	{"fleet", "metrics_fleet.golden", newFleetGoldenServer},
}

// TestMetricsGolden pins the full /metrics exposition byte-for-byte, for
// each server shape. The encoder sorts families and samples explicitly
// (never by map order), so these files must be stable across runs and Go
// versions; `go test ./... -run Golden -update` rewrites them after
// intentional changes.
func TestMetricsGolden(t *testing.T) {
	for _, shape := range goldenShapes {
		t.Run(shape.name, func(t *testing.T) {
			s := shape.server(t)
			var buf bytes.Buffer
			if err := WriteExposition(&buf, s.families(s.snapshotOpts())); err != nil {
				t.Fatal(err)
			}
			golden := filepath.Join("testdata", shape.file)
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (run with -update to create)", err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Fatalf("exposition differs from golden file:\n--- got ---\n%s--- want ---\n%s", buf.Bytes(), want)
			}
		})
	}
}

// A fleet's exposition carries the tick-fresh sim_* families and the
// fleet_* families, but none of an array's epoch gauges as placeholder
// zeros.
func TestFleetExpositionOmitsEpochGauges(t *testing.T) {
	s := newFleetGoldenServer(t)
	var buf bytes.Buffer
	if err := WriteExposition(&buf, s.families(s.snapshotOpts())); err != nil {
		t.Fatal(err)
	}
	body := buf.String()
	for _, fam := range []string{"sim_energy_joules", "sim_worst_afr_percent", "sim_queue_depth", "sim_epoch", "sim_disks_spinning"} {
		if strings.Contains(body, "# TYPE "+fam+" ") {
			t.Errorf("fleet exposition carries the array-only family %s", fam)
		}
	}
	for _, want := range []string{"sim_events_total 120000", "fleet_virtual_seconds 3600", "fleet_served_total 40000", "fleet_requests_total 40010"} {
		if !strings.Contains(body, want) {
			t.Errorf("fleet exposition lacks %q", want)
		}
	}
}

// TestMetricsGoldenIsStable renders twice and requires identical bytes —
// the ordering must come from explicit sorts, not iteration luck.
func TestMetricsGoldenIsStable(t *testing.T) {
	for _, shape := range goldenShapes {
		s := shape.server(t)
		var a, b bytes.Buffer
		if err := WriteExposition(&a, s.families(s.snapshotOpts())); err != nil {
			t.Fatal(err)
		}
		if err := WriteExposition(&b, s.families(s.snapshotOpts())); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatalf("%s: two renders of identical state differ — nondeterministic ordering", shape.name)
		}
	}
}

// TestExpositionWellFormed applies the structural OpenMetrics rules to the
// golden output: every sample line belongs to a declared family, counter
// samples carry the _total suffix, and the body ends with # EOF.
func TestExpositionWellFormed(t *testing.T) {
	for _, shape := range goldenShapes {
		t.Run(shape.name, func(t *testing.T) { checkWellFormed(t, shape.server(t)) })
	}
}

func checkWellFormed(t *testing.T, s *Server) {
	var buf bytes.Buffer
	if err := WriteExposition(&buf, s.families(s.snapshotOpts())); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if lines[len(lines)-1] != "# EOF" {
		t.Fatalf("exposition does not end with # EOF: %q", lines[len(lines)-1])
	}
	types := map[string]string{}
	var lastFamily string
	for _, line := range lines[:len(lines)-1] {
		switch {
		case strings.HasPrefix(line, "# TYPE "):
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("malformed TYPE line %q", line)
			}
			name, typ := parts[2], parts[3]
			if name <= lastFamily {
				t.Fatalf("family %q out of sorted order (after %q)", name, lastFamily)
			}
			lastFamily = name
			types[name] = typ
		case strings.HasPrefix(line, "# HELP "):
		case strings.HasPrefix(line, "#"):
			t.Fatalf("unexpected comment line %q", line)
		default:
			name := line
			if i := strings.IndexAny(line, "{ "); i >= 0 {
				name = line[:i]
			}
			family := name
			if typ, ok := types[family]; ok {
				if typ == "counter" {
					t.Fatalf("counter family %q must expose samples as %s_total: %q", family, family, line)
				}
				continue
			}
			family = strings.TrimSuffix(name, "_total")
			typ, ok := types[family]
			if !ok {
				t.Fatalf("sample %q has no TYPE declaration", line)
			}
			if typ != "counter" {
				t.Fatalf("sample %q uses _total but family %q is %q", line, family, typ)
			}
		}
	}
}

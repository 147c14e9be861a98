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

// newGoldenServer builds a server over fully deterministic sources: a fixed
// clock, fixed runtime stats, a live view and watch driven to known values,
// and a sweep tracker on the same fixed clock.
func newGoldenServer(t *testing.T) *Server {
	t.Helper()
	base := time.Unix(1700000000, 0).UTC()
	clock := base
	now := func() time.Time { return clock }

	live := telemetry.NewLive()
	live.Tick(3600, 120000, 40000, 40010)
	live.PublishEpoch(12, 54321.5, 1.875, 9, 4, 2)

	// Drive a real engine so the watch carries engine-published values.
	eng := des.New()
	watch := des.NewWatch()
	eng.SetWatch(watch)
	for i := 0; i < 5; i++ {
		eng.MustScheduleLabeled(float64(i), "service", func(*des.Engine) {})
	}
	if err := eng.RunGuarded(1000); err != nil {
		t.Fatal(err)
	}

	tr := telemetry.NewSweepTracker([]string{"read.4", "read.6", "maid.4"}, 2)
	tr.SetClock(now)
	tr.StartCell("read.4")
	tr.CellDone("read.4", 2.5, 50000)
	cellLive, _ := tr.StartCell("read.6")
	cellLive.Tick(1800, 25000, 9000, 9001)
	// maid.4 stays pending.

	fleet := telemetry.NewFleetLive(2)
	fleet.PublishCounters(3600, 40010, 39990, 12, 4, 1, 2, 15, 3, 5, 0, 1)
	fleet.PublishArray(0, telemetry.ArrayHealthy, 3, 0, false, 1.875)
	fleet.PublishArray(1, telemetry.ArrayDraining, 17, 1, true, 6.25)

	s := &Server{
		opts: Options{
			Tool:  "experiments",
			Run:   "fig7-light",
			Live:  live,
			Watch: watch,
			Sweep: tr,
			Fleet: fleet,
		},
		now: now,
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

// TestMetricsGolden pins the full /metrics exposition byte-for-byte. The
// encoder sorts families and samples explicitly (never by map order), so
// this file must be stable across runs and Go versions; `go test ./... -run
// Golden -update` rewrites it after intentional changes.
func TestMetricsGolden(t *testing.T) {
	s := newGoldenServer(t)
	var buf bytes.Buffer
	if err := WriteExposition(&buf, s.families(s.snapshotOpts())); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "metrics.golden")
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
}

// TestMetricsGoldenIsStable renders twice and requires identical bytes —
// the ordering must come from explicit sorts, not iteration luck.
func TestMetricsGoldenIsStable(t *testing.T) {
	s := newGoldenServer(t)
	var a, b bytes.Buffer
	if err := WriteExposition(&a, s.families(s.snapshotOpts())); err != nil {
		t.Fatal(err)
	}
	if err := WriteExposition(&b, s.families(s.snapshotOpts())); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two renders of identical state differ — nondeterministic ordering")
	}
}

// TestExpositionWellFormed applies the structural OpenMetrics rules to the
// golden output: every sample line belongs to a declared family, counter
// samples carry the _total suffix, and the body ends with # EOF.
func TestExpositionWellFormed(t *testing.T) {
	s := newGoldenServer(t)
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

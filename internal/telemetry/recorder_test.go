package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestSeriesWriterFormats(t *testing.T) {
	var nd, csv bytes.Buffer
	w := NewSeriesWriter(&nd, &csv)
	samples := []DiskSample{
		{T: 1.5, Epoch: 0, Disk: 0, Utilization: 0.25, TempC: 40, Speed: "low", Transitions: 1, AFRPct: 8.5, QueueDepth: 2, EnergyJ: 100.125},
		{T: 3, Epoch: 1, Disk: 1, Utilization: 0.5, TempC: 50, Speed: "high", Transitions: 0, AFRPct: 13, QueueDepth: 0, EnergyJ: 200},
	}
	for _, s := range samples {
		if err := w.Write(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	// NDJSON: one valid JSON object per line, round-tripping the sample.
	lines := strings.Split(strings.TrimSpace(nd.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("ndjson has %d lines, want 2", len(lines))
	}
	for i, line := range lines {
		var got DiskSample
		if err := json.Unmarshal([]byte(line), &got); err != nil {
			t.Fatalf("line %d is not valid JSON: %v", i, err)
		}
		if got != samples[i] {
			t.Fatalf("line %d round-trip = %+v, want %+v", i, got, samples[i])
		}
	}

	// CSV: header plus one row per sample, full float precision.
	rows := strings.Split(strings.TrimSpace(csv.String()), "\n")
	if rows[0] != seriesColumns {
		t.Fatalf("csv header = %q", rows[0])
	}
	if len(rows) != 3 {
		t.Fatalf("csv has %d rows, want 3", len(rows))
	}
	if rows[1] != "1.5,0,0,0.25,40,low,1,8.5,2,100.125" {
		t.Fatalf("csv row = %q", rows[1])
	}
}

func TestSeriesWriterNilSinks(t *testing.T) {
	var w *SeriesWriter
	if err := w.Write(DiskSample{}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	// Single-format writers skip the missing side.
	var nd bytes.Buffer
	only := NewSeriesWriter(&nd, nil)
	if err := only.Write(DiskSample{T: 1}); err != nil {
		t.Fatal(err)
	}
	if err := only.Flush(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(nd.String(), `"t":1`) {
		t.Fatalf("ndjson-only output = %q", nd.String())
	}
}

// parseTrace decodes a finished Chrome trace and returns its records.
func parseTrace(t *testing.T, raw []byte) []map[string]any {
	t.Helper()
	var records []map[string]any
	if err := json.Unmarshal(raw, &records); err != nil {
		t.Fatalf("trace is not a valid JSON array: %v\n%s", err, raw)
	}
	return records
}

func TestChromeTracerEmitsValidTrace(t *testing.T) {
	var buf bytes.Buffer
	tr := NewChromeTracer(&buf, 1, 0)
	tr.EventScheduled(1, "arrival", 2.5, 0)
	tr.EventFired(1, "arrival", 2.5, 1800)
	tr.EventFired(2, "", 4, 100) // empty label falls back to "event"
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	records := parseTrace(t, buf.Bytes())
	byPhase := map[string]int{}
	for _, r := range records {
		byPhase[r["ph"].(string)]++
	}
	if byPhase["X"] != 2 || byPhase["i"] != 1 {
		t.Fatalf("phases = %v, want 2 X and 1 i", byPhase)
	}

	var fired map[string]any
	for _, r := range records {
		if r["ph"] == "X" && r["name"] == "arrival" {
			fired = r
		}
	}
	if fired == nil {
		t.Fatal("no fired arrival slice")
	}
	if fired["ts"].(float64) != 2.5e6 {
		t.Fatalf("ts = %v, want virtual time in µs (2.5e6)", fired["ts"])
	}
	if fired["dur"].(float64) != 1.8 {
		t.Fatalf("dur = %v, want wall µs (1.8)", fired["dur"])
	}

	last := records[len(records)-1]
	if last["name"] != "trace_coverage" {
		t.Fatalf("final record = %v, want trace_coverage metadata", last)
	}
	args := last["args"].(map[string]any)
	if args["fired_seen"].(float64) != 2 || args["records_written"].(float64) != 3 {
		t.Fatalf("coverage = %v", args)
	}
}

func TestChromeTracerSamplingAndCap(t *testing.T) {
	var buf bytes.Buffer
	tr := NewChromeTracer(&buf, 3, 4)
	for i := 0; i < 30; i++ {
		tr.EventFired(uint64(i), "tick", float64(i), 500)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	records := parseTrace(t, buf.Bytes())
	var slices int
	for _, r := range records {
		if r["ph"] == "X" {
			slices++
		}
	}
	// 30 events sampled 1-in-3 is 10 admitted, capped at 4 written.
	if slices != 4 {
		t.Fatalf("wrote %d slices, want 4 (sampling 1/3 then cap 4)", slices)
	}
	args := records[len(records)-1]["args"].(map[string]any)
	if args["fired_seen"].(float64) != 30 || args["dropped_at_cap"].(float64) != 6 ||
		args["sample_every"].(float64) != 3 {
		t.Fatalf("coverage = %v", args)
	}
	if tr.Written() != 4 {
		t.Fatalf("Written = %d, want 4", tr.Written())
	}
}

func TestChromeTracerNilAndClosed(t *testing.T) {
	var tr *ChromeTracer
	tr.EventFired(1, "x", 0, 0)
	tr.EventScheduled(1, "x", 0, 0)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	live := NewChromeTracer(&buf, 1, 0)
	if err := live.Close(); err != nil {
		t.Fatal(err)
	}
	n := len(buf.Bytes())
	live.EventFired(1, "x", 0, 0) // after Close: ignored
	if err := live.Close(); err != nil {
		t.Fatal(err)
	}
	if len(buf.Bytes()) != n {
		t.Fatal("tracer wrote after Close")
	}
	parseTrace(t, buf.Bytes())
}

func TestProgressLogging(t *testing.T) {
	var buf bytes.Buffer
	p := NewProgress(NewLogger("test", &buf, LogInfo), time.Hour)
	p.Phase("simulate")
	p.Tick(10, 100) // first tick: admitted immediately
	p.Tick(20, 200) // inside the rate window: suppressed
	p.Stepf("cell %d", 1)
	p.Done("simulate", 30, 300)
	out := buf.String()
	if !strings.Contains(out, "phase simulate") {
		t.Fatalf("missing phase line: %q", out)
	}
	if !strings.Contains(out, "progress sim=10.0s events=100") {
		t.Fatalf("first tick suppressed: %q", out)
	}
	if strings.Contains(out, "sim=20.0s") || strings.Contains(out, "cell 1") {
		t.Fatalf("rate-limited lines leaked through: %q", out)
	}
	if !strings.Contains(out, "done simulate sim=30.0s events=300") {
		t.Fatalf("missing done line: %q", out)
	}
}

func TestProgressRateLimitAdmitsAfterInterval(t *testing.T) {
	var buf bytes.Buffer
	p := NewProgress(NewLogger("test", &buf, LogInfo), time.Nanosecond)
	time.Sleep(10 * time.Microsecond)
	p.Tick(1, 1)
	if !strings.Contains(buf.String(), "progress sim=1.0s events=1") {
		t.Fatalf("tick after interval suppressed: %q", buf.String())
	}
}

func TestNilProgressIsNoOp(t *testing.T) {
	var p *Progress
	p.Phase("x")
	p.Tick(1, 1)
	p.Stepf("y")
	p.Done("x", 1, 1)
}

func TestRecorderLifecycle(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "tel")
	rec, err := Open(Config{Dir: dir, TraceEvents: true})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Dir() != dir {
		t.Fatalf("Dir = %q, want %q", rec.Dir(), dir)
	}
	if rec.Tracer() == nil {
		t.Fatal("tracer missing with TraceEvents on")
	}
	rec.Metrics.Counter("n").Inc()
	rec.Tracer().EventFired(1, "tick", 1, 100)
	if err := rec.RecordDiskSample(DiskSample{T: 1, Disk: 0, Speed: "low"}); err != nil {
		t.Fatal(err)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}

	for _, name := range []string{"disks.ndjson", "disks.csv", "metrics.json", "trace.json"} {
		raw, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if len(raw) == 0 {
			t.Fatalf("%s is empty", name)
		}
	}

	// NDJSON lines parse individually.
	f, err := os.Open(filepath.Join(dir, "disks.ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s DiskSample
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("ndjson line %q: %v", sc.Text(), err)
		}
	}

	raw, err := os.ReadFile(filepath.Join(dir, "metrics.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Counters map[string]uint64 `json:"counters"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Counters["n"] != 1 {
		t.Fatalf("metrics.json counters = %v", doc.Counters)
	}

	traceRaw, err := os.ReadFile(filepath.Join(dir, "trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	parseTrace(t, traceRaw)
}

func TestRecorderWithoutTraceEvents(t *testing.T) {
	dir := t.TempDir()
	rec, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Tracer() != nil {
		t.Fatal("tracer present without TraceEvents")
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "trace.json")); !os.IsNotExist(err) {
		t.Fatal("trace.json written without TraceEvents")
	}
}

func TestRecorderNilAndZeroValue(t *testing.T) {
	var nilRec *Recorder
	if nilRec.Dir() != "" || nilRec.Tracer() != nil {
		t.Fatal("nil recorder not inert")
	}
	if err := nilRec.RecordDiskSample(DiskSample{}); err != nil {
		t.Fatal(err)
	}
	if err := nilRec.Close(); err != nil {
		t.Fatal(err)
	}

	var zero Recorder // in-memory recorder: no files, no panic
	if err := zero.RecordDiskSample(DiskSample{}); err != nil {
		t.Fatal(err)
	}
	if err := zero.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestOpenRejectsEmptyDir(t *testing.T) {
	if _, err := Open(Config{}); err == nil {
		t.Fatal("empty Dir accepted")
	}
}

package array

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"

	"repro/internal/des"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// telemetryRun executes the reference workload with the given recorder. The
// spin-down policy exercises transitions, idle timers, and both speeds.
func telemetryRun(t *testing.T, rec *telemetry.Recorder) *Result {
	t.Helper()
	tr := tinyTrace(t, 40, 3000, 0.02) // ~60 s
	res, err := Run(Config{
		Disks:        4,
		Trace:        tr,
		Policy:       &spinDownPolicy{h: 2},
		EpochSeconds: 10,
		Telemetry:    rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// The central telemetry invariant: recording changes nothing. A run with a
// full file-backed recorder, and one with an in-memory recorder, must each
// produce a Result identical — every float — to the same run with telemetry
// disabled, and the two recorders must hold the same timeline.
func TestTelemetryOnOffResultsIdentical(t *testing.T) {
	off := telemetryRun(t, nil)
	mem := &telemetry.Recorder{}
	if inMem := telemetryRun(t, mem); !reflect.DeepEqual(off, inMem) {
		t.Fatalf("an in-memory recorder changed the result:\noff: %+v\non:  %+v", off, inMem)
	}

	dir := filepath.Join(t.TempDir(), "tel")
	rec, err := telemetry.Open(telemetry.Config{Dir: dir, TraceEvents: true})
	if err != nil {
		t.Fatal(err)
	}
	on := telemetryRun(t, rec)
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(off, on) {
		t.Fatalf("telemetry changed the result:\noff: %+v\non:  %+v", off, on)
	}

	// Golden timeline compare: the exported per-epoch rows are identical
	// byte-for-byte whichever sinks the recorder carries; the files add
	// outputs next to the run, not columns to it.
	if len(mem.Timeline()) != off.Epochs+2 {
		t.Fatalf("%d timeline rows, want %d (epochs + post-trace + final)", len(mem.Timeline()), off.Epochs+2)
	}
	var memCSV, onCSV bytes.Buffer
	if err := telemetry.WriteTimelineCSV(&memCSV, mem.Timeline()); err != nil {
		t.Fatal(err)
	}
	if err := telemetry.WriteTimelineCSV(&onCSV, rec.Timeline()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(memCSV.Bytes(), onCSV.Bytes()) {
		t.Fatalf("timeline CSV diverged:\nin memory:\n%s\nfile-backed:\n%s", memCSV.String(), onCSV.String())
	}
}

func TestTelemetryDiskSeriesContents(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "tel")
	rec, err := telemetry.Open(telemetry.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	res := telemetryRun(t, rec)
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}

	f, err := os.Open(filepath.Join(dir, "disks.ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var rows []telemetry.DiskSample
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s telemetry.DiskSample
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		rows = append(rows, s)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	// One row per disk per epoch boundary (epochs 0..E-1), one per disk at
	// the post-trace epoch event (E), and one per disk at run end (E+1).
	want := 4 * (res.Epochs + 2)
	if len(rows) != want {
		t.Fatalf("rows = %d, want %d (4 disks x (%d epochs + post-trace + final))",
			len(rows), want, res.Epochs)
	}
	lastT, lastEpoch := 0.0, 0
	perDisk := map[int]telemetry.DiskSample{}
	for i, r := range rows {
		if r.Disk < 0 || r.Disk >= 4 {
			t.Fatalf("row %d disk %d out of range", i, r.Disk)
		}
		if r.T < lastT || r.Epoch < lastEpoch {
			t.Fatalf("row %d goes backwards (t %v->%v, epoch %d->%d)", i, lastT, r.T, lastEpoch, r.Epoch)
		}
		lastT, lastEpoch = r.T, r.Epoch
		if r.Speed != "low" && r.Speed != "high" {
			t.Fatalf("row %d speed %q", i, r.Speed)
		}
		if r.Utilization < 0 || r.Utilization > 1 {
			t.Fatalf("row %d utilization %v", i, r.Utilization)
		}
		if prev, ok := perDisk[r.Disk]; ok && (r.EnergyJ < prev.EnergyJ || r.Transitions < prev.Transitions) {
			t.Fatalf("row %d disk %d cumulative fields decreased: %+v -> %+v", i, r.Disk, prev, r)
		}
		if r.AFRPct <= 0 {
			t.Fatalf("row %d AFR %v, want positive", i, r.AFRPct)
		}
		perDisk[r.Disk] = r
	}
	// The run-final rows agree with the Result's per-disk report.
	for d, last := range perDisk {
		if last.Epoch != res.Epochs+1 {
			t.Fatalf("disk %d final row epoch %d, want %d", d, last.Epoch, res.Epochs+1)
		}
		if last.Transitions != res.PerDisk[d].Transitions {
			t.Fatalf("disk %d final transitions %d, result says %d",
				d, last.Transitions, res.PerDisk[d].Transitions)
		}
	}
}

// The ops plane and -progress inherit the central telemetry invariant:
// attaching a Live publisher and an engine Watch — and reading them from
// another goroutine while the run goes, as the ops server and the progress
// ticker do — changes nothing about the result, and the handles end the run
// agreeing with it.
func TestOpsPlaneOnOffResultsIdentical(t *testing.T) {
	off := telemetryRun(t, nil)

	live := telemetry.NewLive(0)
	watch := des.NewWatch()
	started, stop, stopped := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		for first := true; ; first = false {
			_, _ = live.Snapshot(), watch.Snapshot()
			if first {
				close(started)
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	<-started
	tr := tinyTrace(t, 40, 3000, 0.02)
	on, err := Run(Config{
		Disks:        4,
		Trace:        tr,
		Policy:       &spinDownPolicy{h: 2},
		EpochSeconds: 10,
		Telemetry:    &telemetry.Recorder{Live: live},
		Watch:        watch,
	})
	close(stop)
	<-stopped
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(off, on) {
		t.Fatalf("ops plane changed the result:\noff: %+v\non:  %+v", off, on)
	}

	ws := watch.Snapshot()
	if ws.Fired != on.EventsFired {
		t.Errorf("watch fired = %d, want %d", ws.Fired, on.EventsFired)
	}
	if !ws.Done {
		t.Error("watch not marked done after a successful run")
	}
	ls := live.Snapshot()
	if ls.Requests != uint64(on.Requests) {
		t.Errorf("live requests = %d, want %d", ls.Requests, on.Requests)
	}
	if ls.DisksHigh+ls.DisksLow != 4 {
		t.Errorf("live spin-state counts %d+%d, want 4 disks", ls.DisksHigh, ls.DisksLow)
	}
	if ls.EnergyJ <= 0 || ls.SimSeconds <= 0 {
		t.Errorf("live aggregates not published: energy %v, sim time %v", ls.EnergyJ, ls.SimSeconds)
	}
}

// A disabled telemetry sink must add no allocations to the whole run: the
// same simulation allocates exactly as much with a zero-value (all-sinks-nil)
// Recorder attached as with Config.Telemetry == nil.
func TestTelemetryOffAddsNoAllocs(t *testing.T) {
	tr := tinyTrace(t, 20, 800, 0.02)
	run := func(rec *telemetry.Recorder) func() {
		return func() {
			_, err := Run(Config{Disks: 2, Trace: tr, Policy: &staticPolicy{}, Telemetry: rec})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	base := testing.AllocsPerRun(5, run(nil))
	// A zero-value Recorder has nil series/tracer/decisions/live: every sink
	// the sim reaches is a nil no-op. What remains is the sampleDisks walk,
	// which must not allocate, and the timeline row it keeps per walk (one
	// here, the run having no epochs), appended to the recorder's one list,
	// which grows geometrically across these runs.
	withSink := testing.AllocsPerRun(5, run(&telemetry.Recorder{}))
	if withSink > base {
		t.Fatalf("disabled sink added allocations: %v with, %v without", withSink, base)
	}
}

// benchTrace builds the workload once per benchmark binary.
func benchTrace(b *testing.B) *workload.Trace {
	b.Helper()
	cfg := workload.DefaultGenConfig()
	cfg.NumFiles = 40
	cfg.NumRequests = 5000
	cfg.MeanInterarrival = 0.01
	tr, err := workload.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return tr
}

func benchRun(b *testing.B, rec func() *telemetry.Recorder) {
	tr := benchTrace(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := rec()
		if _, err := Run(Config{Disks: 4, Trace: tr, Policy: &staticPolicy{},
			EpochSeconds: 10, Telemetry: r}); err != nil {
			b.Fatal(err)
		}
		if err := r.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// The three telemetry regimes over an identical run: disabled, attached but
// all sinks nil (the pure dispatch overhead), and fully recording to disk.
func BenchmarkRunTelemetryOff(b *testing.B) {
	benchRun(b, func() *telemetry.Recorder { return nil })
}

func BenchmarkRunTelemetryNilSinks(b *testing.B) {
	benchRun(b, func() *telemetry.Recorder { return &telemetry.Recorder{} })
}

func BenchmarkRunTelemetryFull(b *testing.B) {
	dir := b.TempDir()
	i := 0
	benchRun(b, func() *telemetry.Recorder {
		i++
		rec, err := telemetry.Open(telemetry.Config{
			Dir:         filepath.Join(dir, strconv.Itoa(i)),
			TraceEvents: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		return rec
	})
}

package array

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/diskmodel"
	"repro/internal/telemetry"
)

// TestTimelineSampling checks the rows an always-on run's epoch walks
// record: one per epoch boundary plus the post-trace and run-final rows, in
// time order, inside the physical power envelope, and ending on the
// Result's energy and completions.
func TestTimelineSampling(t *testing.T) {
	tr := tinyTrace(t, 40, 3000, 0.02) // ~60 s
	rec := &telemetry.Recorder{}
	res, err := Run(Config{Disks: 4, Trace: tr, Policy: &staticPolicy{}, EpochSeconds: 5, Telemetry: rec})
	if err != nil {
		t.Fatal(err)
	}
	rows := rec.Timeline()
	if len(rows) != res.Epochs+2 || len(rows) < 10 {
		t.Fatalf("timeline rows = %d, want %d epochs + 2 and >= 10 over ~60 s", len(rows), res.Epochs)
	}
	p := diskmodel.DefaultParams()
	prevT, prevE := 0.0, 0.0
	var lastCompleted uint64
	for i, s := range rows {
		if s.T < prevT || (s.T == prevT && i != len(rows)-1) {
			t.Fatalf("row %d time %v not increasing", i, s.T)
		}
		// Mean power since the previous row bounded by the physical envelope.
		if s.T > prevT {
			w := (s.EnergyJ - prevE) / (s.T - prevT)
			if w < 4*p.PowerIdleLow-1e-9 || w > 4*p.PowerActiveHigh+50 {
				t.Fatalf("row %d power %v outside envelope", i, w)
			}
		}
		prevT, prevE = s.T, s.EnergyJ
		if s.HighDisks != 4 {
			t.Fatalf("always-on run: %d high disks at row %d", s.HighDisks, i)
		}
		if s.Completed < lastCompleted {
			t.Fatalf("completions decreased at row %d", i)
		}
		lastCompleted = s.Completed
		if s.Queued < 0 || s.InService < 0 || s.InService > 4 {
			t.Fatalf("row %d occupancy out of range: %+v", i, s)
		}
	}
	// The run-final row is taken at the Result's end, before its accruals.
	if last := rows[len(rows)-1]; last.T != res.Duration || last.EnergyJ != res.EnergyJ ||
		last.Completed != uint64(res.Requests) {
		t.Fatalf("final row %+v, result duration %v energy %v requests %d",
			last, res.Duration, res.EnergyJ, res.Requests)
	}
}

func TestRenderTimeline(t *testing.T) {
	tr := tinyTrace(t, 40, 2000, 0.02)
	rec := &telemetry.Recorder{}
	if _, err := Run(Config{Disks: 4, Trace: tr, Policy: &spinDownPolicy{h: 2}, EpochSeconds: 2, Telemetry: rec}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	telemetry.RenderTimeline(&buf, rec.Timeline(), 10)
	out := buf.String()
	if !strings.Contains(out, "power(W)") {
		t.Fatalf("missing header:\n%s", out)
	}
	rows := strings.Count(out, "\n") - 1
	if rows < 1 || rows > 11 {
		t.Fatalf("rendered %d rows, want <= 10 + header", rows)
	}
	// Empty timeline message.
	buf.Reset()
	telemetry.RenderTimeline(&buf, nil, 10)
	if !strings.Contains(buf.String(), "no timeline samples") {
		t.Fatal("empty-timeline message missing")
	}
}

package experiment

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/reliability"
)

func tinyAblation() AblationConfig {
	return AblationConfig{Disks: 6, TraceSpec: TraceSpec{Scale: 0.004}}
}

func TestTransitionCapAblation(t *testing.T) {
	res, err := TransitionCapAblation(tinyAblation(), []int{5, 1600})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("variants = %d", len(res))
	}
	if res[0].Label != "S=5" || res[1].Label != "S=1600" {
		t.Fatalf("labels: %v, %v", res[0].Label, res[1].Label)
	}
	// A looser cap can never yield fewer transitions than a tight one on
	// the same trace.
	trans := func(v VariantResult) int {
		total := 0
		for _, d := range v.Result.PerDisk {
			total += d.Transitions
		}
		return total
	}
	if trans(res[1]) < trans(res[0]) {
		t.Fatalf("S=1600 made fewer transitions (%d) than S=5 (%d)",
			trans(res[1]), trans(res[0]))
	}
	// Defaults path.
	if _, err := TransitionCapAblation(tinyAblation(), nil); err != nil {
		t.Fatal(err)
	}
}

func TestREADDesignAblation(t *testing.T) {
	res, err := READDesignAblation(tinyAblation())
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 4 {
		t.Fatalf("variants = %d", len(res))
	}
	byLabel := map[string]VariantResult{}
	for _, v := range res {
		byLabel[v.Label] = v
	}
	full := byLabel["read (full)"].Result
	noMig := byLabel["no migration"].Result
	if noMig.Migrations != 0 {
		t.Fatalf("no-migration variant migrated %d times", noMig.Migrations)
	}
	if full.Requests != noMig.Requests {
		t.Fatal("variants served different request counts")
	}
	drpm := byLabel["no cap (DRPM-like)"].Result
	if drpm.ArrayAFR < full.ArrayAFR {
		t.Fatalf("uncapped DRPM AFR %.2f below capped READ %.2f", drpm.ArrayAFR, full.ArrayAFR)
	}
}

func TestBaselinePanelAblation(t *testing.T) {
	res, err := BaselinePanelAblation(tinyAblation())
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 6 {
		t.Fatalf("variants = %d", len(res))
	}
	var buf bytes.Buffer
	RenderVariants(&buf, res, "panel")
	out := buf.String()
	for _, want := range []string{"panel", "read-replica", "drpm", "AFR%"} {
		if !strings.Contains(out, want) {
			t.Fatalf("panel output missing %q:\n%s", want, out)
		}
	}
}

// TestEq3ReadingRobustness verifies the reproduction's central orderings
// survive the alternative (literal OCR) reading of the paper's scrambled
// Equation 3: READ must still have the lowest array AFR under both
// frequency functions — only the magnitudes may move.
func TestEq3ReadingRobustness(t *testing.T) {
	base := DefaultSweepConfig()
	base.Scale = 0.01
	base.DiskCounts = []int{10, 16}

	for _, variant := range []struct {
		name  string
		press *reliability.Model
	}{
		{"reconstructed", reliability.NewModel()},
		{"ocr-literal", reliability.NewModel(
			reliability.WithFreqFunction(reliability.PaperEq3OCRQuadratic()))},
	} {
		cfg := base
		cfg.Press = variant.press
		res, err := RunSweep(cfg)
		if err != nil {
			t.Fatalf("%s: %v", variant.name, err)
		}
		series, _, err := res.Series(MetricAFR)
		if err != nil {
			t.Fatal(err)
		}
		for i := range series[KindREAD] {
			if series[KindREAD][i] > series[KindMAID][i]+1e-9 {
				t.Errorf("%s: READ AFR %.3f above MAID %.3f at index %d",
					variant.name, series[KindREAD][i], series[KindMAID][i], i)
			}
			if series[KindREAD][i] > series[KindPDC][i]+1e-9 {
				t.Errorf("%s: READ AFR %.3f above PDC %.3f at index %d",
					variant.name, series[KindREAD][i], series[KindPDC][i], i)
			}
		}
	}
}

func TestIntensityScan(t *testing.T) {
	pts, err := IntensityScan(AblationConfig{Disks: 4, TraceSpec: TraceSpec{Scale: 0.003}},
		[]float64{1, 4}, []PolicyKind{KindREAD, KindPDC})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 4 {
		t.Fatalf("points = %d, want 4", len(pts))
	}
	// Higher intensity must raise the worst-disk utilization for the same
	// policy.
	byKey := map[string]IntensityPoint{}
	for _, p := range pts {
		byKey[string(p.Policy)+"@"+trimFloat(p.Intensity)] = p
	}
	if byKey["pdc@4"].WorstUtil <= byKey["pdc@1"].WorstUtil {
		t.Fatalf("PDC worst util did not grow with intensity: %v vs %v",
			byKey["pdc@4"].WorstUtil, byKey["pdc@1"].WorstUtil)
	}
	var buf bytes.Buffer
	RenderIntensityScan(&buf, pts, "calibration")
	if !strings.Contains(buf.String(), "worst util") {
		t.Fatal("render missing header")
	}
	// Defaults path.
	if _, err := IntensityScan(AblationConfig{Disks: 4, TraceSpec: TraceSpec{Scale: 0.002}}, nil, nil); err != nil {
		t.Fatal(err)
	}
}

func trimFloat(v float64) string {
	if v == float64(int(v)) {
		return fmt.Sprintf("%d", int(v))
	}
	return fmt.Sprintf("%g", v)
}

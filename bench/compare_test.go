package main

import (
	"strings"
	"testing"
)

func TestSummarizeMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
	for _, tc := range []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{4}, 4, 4, 4},
	} {
		s := summarize("u", tc.xs)
		if s.Q1 != tc.q1 || s.Median != tc.m || s.Q3 != tc.q3 || s.N != len(tc.xs) || s.Value != tc.m {
			t.Errorf("summarize(%v) = %+v, want q1 %v median and value %v q3 %v", tc.xs, s, tc.q1, tc.m, tc.q3)
		}
	}
}

func TestFastestThird(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 6, 3, 7}
	if s := fastestThird("u", xs, true); s.Value != 6.5 || s.Median != 4 || s.N != 7 {
		t.Errorf("higher is better: %+v, want value 6.5 (mean of 7 and 6), median 4", s)
	}
	if s := fastestThird("u", xs, false); s.Value != 1.5 || s.Median != 4 {
		t.Errorf("lower is better: %+v, want value 1.5 (mean of 1 and 2), median 4", s)
	}
	if s := fastestThird("u", []float64{3, 9}, false); s.Value != 3 {
		t.Errorf("two samples: %+v, want value 3 (the best one)", s)
	}
}

// around returns n values alternating ±spread around center.
func around(center, spread float64, n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		d := spread * float64(i%5-2) / 2
		xs[i] = center + d
	}
	return xs
}

func TestJudge(t *testing.T) {
	for _, tc := range []struct {
		name   string
		better string
		a, b   []float64
		bound  float64
		want   string
	}{
		{"clear gain", "higher", around(100, 1, 10), around(110, 1, 10), 0.08, "gain"},
		{"gain on a lower-is-better metric", "lower", around(100, 1, 10), around(90, 1, 10), 0.08, "gain"},
		{"within noise", "higher", around(100, 1, 10), around(100.2, 1, 10), 0.08, "same"},
		{"worse within bound", "higher", around(100, 1, 10), around(97, 1, 10), 0.08, "same"},
		{"regression beyond bound", "higher", around(100, 1, 10), around(90, 1, 10), 0.08, "regression"},
		{"regression on a lower-is-better metric", "lower", around(100, 1, 10), around(103, 1, 10), 0.01, "regression"},
		{"spread wider than bound", "higher", around(100, 20, 10), around(101, 20, 10), 0.08, "unresolved"},
		{"wide spread but every change run better", "higher", around(100, 20, 10), around(150, 20, 10), 0.08, "gain"},
	} {
		v := judge("m", tc.better, tc.a, tc.b, tc.bound)
		if v.Verdict != tc.want {
			t.Errorf("%s: verdict %q (wins %d/%d, change %+.3f), want %q", tc.name, v.Verdict, v.Wins, v.Pairs, v.Change, tc.want)
		}
	}
}

func TestJudgeNeedsNineInTenWins(t *testing.T) {
	a := around(100, 0.1, 10)
	b := make([]float64, 10)
	for i := range b {
		b[i] = a[i] + 5 // the change wins every pair by far more than the IQR
	}
	if v := judge("m", "higher", a, b, 0.08); v.Verdict != "gain" {
		t.Fatalf("10/10 wins: %q, want gain", v.Verdict)
	}
	b[0], b[1] = a[0]-1, a[1]-1 // 8/10 wins: no claim, however large the gap
	if v := judge("m", "higher", a, b, 0.08); v.Verdict != "same" {
		t.Fatalf("8/10 wins: %q, want same", v.Verdict)
	}
}

func runsOf(workload string, values []float64, failed int) []runFile {
	var out []runFile
	for _, v := range values {
		out = append(out, runFile{Workloads: []wlResult{{
			Workload: workload, Failed: failed,
			Metrics: map[string]stat{"sim_req_per_s": {Value: v}},
		}}})
	}
	return out
}

func TestCompareRuns(t *testing.T) {
	bounds := []bound{{Name: "sim_req_per_s", Better: "higher", Bound: 0.08}}
	a := runsOf("w", around(100, 1, 10), 0)
	rows, err := compareRuns(a, runsOf("w", around(100, 1, 10), 0), bounds)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || !rows[0].ok() || rows[0].Verdicts[0].Verdict != "same" {
		t.Fatalf("same-commit comparison: %+v", rows)
	}
	rows, err = compareRuns(a, runsOf("w", around(100, 1, 10), 1), bounds)
	if err != nil || rows[0].ok() {
		t.Fatalf("failed units must fail the row: %+v, %v", rows, err)
	}
	if _, err := compareRuns(a[:9], runsOf("w", around(100, 1, 9), 0), bounds); err == nil ||
		!strings.Contains(err.Error(), "at least 10") {
		t.Fatalf("9 pairs: %v, want an error", err)
	}
	if _, err := compareRuns(a, runsOf("w", around(100, 1, 11), 0), bounds); err == nil {
		t.Fatal("unequal run counts: want an error")
	}
	if _, err := compareRuns(a, append(runsOf("w", around(100, 1, 10), 0), runsOf("v", around(100, 1, 10), 0)...), bounds); err == nil {
		t.Fatal("a workload with change runs only: want an error")
	}
}

// TestCompareRunsGroupsByWorkload pairs one-workload result files, as a
// per-workload run writes them, by workload and run order.
func TestCompareRunsGroupsByWorkload(t *testing.T) {
	bounds := []bound{{Name: "sim_req_per_s", Better: "higher", Bound: 0.08}}
	a := append(runsOf("w", around(100, 1, 10), 0), runsOf("v", around(50, 1, 10), 0)...)
	b := append(runsOf("v", around(40, 1, 10), 0), runsOf("w", around(100, 1, 10), 0)...)
	rows, err := compareRuns(a, b, bounds)
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[string]string)
	for _, r := range rows {
		if r.Pairs != 10 {
			t.Errorf("%s: %d pairs, want 10", r.Workload, r.Pairs)
		}
		got[r.Workload] = r.Verdicts[0].Verdict
	}
	if len(rows) != 2 || got["w"] != "same" || got["v"] != "regression" {
		t.Fatalf("verdicts %v, want w same and v regression", got)
	}
}

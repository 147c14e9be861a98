package main

import (
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// minPairs is the fewest parent/change run pairs compare accepts.
const minPairs = 10

// benchmarkJSON is the part of BENCHMARK.json the benchmark and its tests
// read.
type benchmarkJSON struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []bound `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// bound is one end-to-end metric with the share of the parent's median by
// which it may worsen.
type bound struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// loadBenchmarkJSON reads BENCHMARK.json from the repository root, which is
// the working directory or its parent (when run from bench/).
func loadBenchmarkJSON() (benchmarkJSON, error) {
	var b benchmarkJSON
	for _, p := range []string{"BENCHMARK.json", filepath.Join("..", "BENCHMARK.json")} {
		err := readJSON(p, &b)
		if !errors.Is(err, os.ErrNotExist) {
			return b, err
		}
	}
	return b, errors.New("BENCHMARK.json not found in . or ..")
}

// verdict compares one metric on one workload.
type verdict struct {
	Metric  string
	A, B    stat // the parent's and the change's per-run medians
	Wins    int  // pairs in which the change read better
	Pairs   int
	Change  float64 // (median B - median A) / |median A|
	Verdict string  // "gain", "regression", "unresolved" or "same"
}

// judge applies the pairing rule to per-run values a (parent) and b
// (change), run in alternating pairs a[i], b[i]:
//
//   - regression: the change's median is worse than the parent's by more
//     than bound times the parent's median;
//   - gain: the change wins at least 9 in 10 pairs (ties count for neither)
//     and the medians differ by more than the parent's interquartile range;
//   - unresolved: either side's interquartile range exceeds bound times its
//     median, unless every change run reads better than every parent run;
//   - same: otherwise.
func judge(name, better string, a, b []float64, bnd float64) verdict {
	sign := 1.0
	if better == "lower" {
		sign = -1
	}
	sa, sb := summarize("", a), summarize("", b)
	v := verdict{Metric: name, A: sa, B: sb, Pairs: len(a)}
	for i := range a {
		if sign*(b[i]-a[i]) > 0 {
			v.Wins++
		}
	}
	scale := math.Abs(sa.Median)
	if scale > 0 {
		v.Change = (sb.Median - sa.Median) / scale
	}
	gap := sign * (sb.Median - sa.Median) // positive when the change is better
	worstB, bestA := math.Inf(1), math.Inf(-1)
	for i := range a {
		worstB = math.Min(worstB, sign*b[i])
		bestA = math.Max(bestA, sign*a[i])
	}
	spread := func(s stat) float64 {
		if s.Median == 0 {
			return 0
		}
		return (s.Q3 - s.Q1) / math.Abs(s.Median)
	}
	switch {
	case -gap > bnd*scale:
		v.Verdict = "regression"
	case 10*v.Wins >= 9*v.Pairs && gap > sa.Q3-sa.Q1:
		v.Verdict = "gain"
	case (spread(sa) > bnd || spread(sb) > bnd) && worstB <= bestA:
		v.Verdict = "unresolved"
	default:
		v.Verdict = "same"
	}
	return v
}

// compareRow is one workload's comparison.
type compareRow struct {
	Workload string
	Pairs    int
	Failed   int // failed units in the change's runs
	Verdicts []verdict
}

// ok reports whether the row shows no failure, regression or unresolved
// metric.
func (r compareRow) ok() bool {
	if r.Failed > 0 {
		return false
	}
	for _, v := range r.Verdicts {
		if v.Verdict == "regression" || v.Verdict == "unresolved" {
			return false
		}
	}
	return true
}

// compareRuns pairs, for each workload, its i-th run in a (the parent) with
// its i-th run in b (the change). A run file may hold one workload or all.
func compareRuns(a, b []runFile, bounds []bound) ([]compareRow, error) {
	names, ra := byWorkload(a)
	_, rb := byWorkload(b)
	for name := range rb {
		if ra[name] == nil {
			return nil, fmt.Errorf("%s: change runs but no parent runs", name)
		}
	}
	var rows []compareRow
	for _, name := range names {
		wa, wb := ra[name], rb[name]
		if len(wa) != len(wb) {
			return nil, fmt.Errorf("%s: %d parent runs but %d change runs; want alternating pairs", name, len(wa), len(wb))
		}
		if len(wa) < minPairs {
			return nil, fmt.Errorf("%s: %d pairs; want at least %d", name, len(wa), minPairs)
		}
		row := compareRow{Workload: name, Pairs: len(wa)}
		va := make(map[string][]float64)
		vb := make(map[string][]float64)
		for i := range wa {
			row.Failed += wb[i].Failed
			for _, bd := range bounds {
				ma, okA := wa[i].Metrics[bd.Name]
				mb, okB := wb[i].Metrics[bd.Name]
				if !okA || !okB {
					return nil, fmt.Errorf("pair %d, %s: no %s", i+1, name, bd.Name)
				}
				va[bd.Name] = append(va[bd.Name], ma.Value)
				vb[bd.Name] = append(vb[bd.Name], mb.Value)
			}
		}
		for _, bd := range bounds {
			row.Verdicts = append(row.Verdicts, judge(bd.Name, bd.Better, va[bd.Name], vb[bd.Name], bd.Bound))
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// byWorkload groups the runs' results by workload, in run order, and lists
// the workloads in the order they first appear.
func byWorkload(runs []runFile) ([]string, map[string][]wlResult) {
	var names []string
	m := make(map[string][]wlResult)
	for _, rf := range runs {
		for _, w := range rf.Workloads {
			if m[w.Workload] == nil {
				names = append(names, w.Workload)
			}
			m[w.Workload] = append(m[w.Workload], w)
		}
	}
	return names, m
}

// loadRuns reads a directory of runs: every *.json file in it, and every
// */result.json below it, in name order.
func loadRuns(dir string) ([]runFile, error) {
	top, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	nested, err := filepath.Glob(filepath.Join(dir, "*", "result.json"))
	if err != nil {
		return nil, err
	}
	paths := append(top, nested...)
	sort.Strings(paths)
	runs := make([]runFile, 0, len(paths))
	for _, p := range paths {
		var rf runFile
		if err := readJSON(p, &rf); err != nil {
			return nil, err
		}
		if rf.Traced {
			continue
		}
		runs = append(runs, rf)
	}
	return runs, nil
}

func printCompare(w io.Writer, rows []compareRow) {
	if len(rows) == 0 {
		return
	}
	fmt.Fprintln(w, "verdict and change of the median per metric")
	fmt.Fprintf(w, "%-20s %5s", "workload", "pairs")
	for _, v := range rows[0].Verdicts {
		fmt.Fprintf(w, " %-22s", v.Metric)
	}
	fmt.Fprintln(w, " failed")
	for _, r := range rows {
		fmt.Fprintf(w, "%-20s %5d", r.Workload, r.Pairs)
		for _, v := range r.Verdicts {
			fmt.Fprintf(w, " %-22s", fmt.Sprintf("%s %+.2f%%", v.Verdict, 100*v.Change))
		}
		fmt.Fprintf(w, " %d\n", r.Failed)
	}
	fmt.Fprintln(w)
	for _, r := range rows {
		for _, v := range r.Verdicts {
			fmt.Fprintf(w, "%-20s %-22s A %.6g [%.6g, %.6g]  B %.6g [%.6g, %.6g]  B better in %d/%d\n",
				r.Workload, v.Metric, v.A.Median, v.A.Q1, v.A.Q3, v.B.Median, v.B.Q1, v.B.Q3, v.Wins, v.Pairs)
		}
	}
}

// compareMain implements `bench compare <dirA> <dirB>`: dirA holds the
// parent commit's runs and dirB the change's, made in alternation. It exits
// 1 when any workload shows a regression, an unresolved metric or a failed
// unit.
func compareMain(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: bench compare <parent-runs-dir> <change-runs-dir>")
		return 2
	}
	b, err := loadBenchmarkJSON()
	if err != nil {
		fmt.Fprintln(stderr, "bench compare:", err)
		return 1
	}
	var sides [2][]runFile
	for i, dir := range args {
		if sides[i], err = loadRuns(dir); err != nil {
			fmt.Fprintln(stderr, "bench compare:", err)
			return 1
		}
	}
	rows, err := compareRuns(sides[0], sides[1], b.EndToEnd)
	if err != nil {
		fmt.Fprintln(stderr, "bench compare:", err)
		return 1
	}
	printCompare(stdout, rows)
	var bad []string
	for _, r := range rows {
		if !r.ok() {
			bad = append(bad, r.Workload)
		}
	}
	if len(bad) > 0 {
		fmt.Fprintf(stdout, "\nnot shown to be free of regressions: %s\n", strings.Join(bad, ", "))
		return 1
	}
	return 0
}

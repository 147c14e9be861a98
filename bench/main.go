// Command bench is the repository's end-to-end benchmark. It times the
// simulator on four workloads, checks that every unit's simulated output is
// unchanged, and, in a traced run, breaks the cost down by layer.
//
//	go run .                      every workload, each in its own process
//	go run . -trace 1             the traced run of every workload
//	go run . -workload <name>     one workload in this process
//	go run . compare <dirA> <dirB>
//
// A run of one workload prints a table on standard error and, as the last
// line of standard output, one JSON object: {"correct", "attempted",
// "failed", "metrics"}. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// defaultSeconds is how long a run measures each workload; BENCHMARK.json's
// run_seconds gives the same value to the runs it makes. A 20-s run holds 10
// to 15 units, and all four workloads run in about 92 s (README.md).
const defaultSeconds = 20

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "run only this workload, in this process")
	seed := fs.Int64("seed", 1, "seed of every trace generator, fault and shock schedule")
	seconds := fs.Float64("seconds", defaultSeconds, "how long to measure each workload, in seconds")
	trace := fs.Int("trace", 0, "1 for the traced run: CPU profile, spans and per-layer metrics")
	out := fs.String("out", "bench-out", "directory for result files")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	switch {
	case fs.NArg() > 0:
		fmt.Fprintf(os.Stderr, "bench: unexpected arguments %q\n", fs.Args())
		os.Exit(2)
	case *trace != 0 && *trace != 1:
		fmt.Fprintf(os.Stderr, "bench: -trace %d must be 0 or 1\n", *trace)
		os.Exit(2)
	case !(*seconds > 0):
		fmt.Fprintf(os.Stderr, "bench: -seconds %v must be positive\n", *seconds)
		os.Exit(2)
	}
	dir := *out
	if *trace == 1 {
		dir = filepath.Join(dir, "trace")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if *name == "" {
		os.Exit(runAll(*seed, *seconds, *trace == 1, *out, dir))
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q; want one of %s\n", *name, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	os.Exit(runOne(w, *seed, *seconds, *trace == 1, dir))
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// runOne runs one workload in this process, writes <dir>/<workload>.json and
// prints the result line. It exits non-zero when a unit failed.
func runOne(w workloadDef, seed int64, seconds float64, traced bool, dir string) int {
	facts := host()
	// Every workload simulates on one goroutine, and the garbage collector
	// shares its processor, as it does when a sweep fills every core. On a
	// shared 2-vCPU VM, leaving the collector the idle vCPU doubled the
	// run-to-run spread of the host-time metrics (README.md).
	runtime.GOMAXPROCS(1)
	var res wlResult
	var err error
	if traced {
		res, err = runTraced(w, seed, seconds, dir)
	} else {
		res, err = runWorkload(w, seed, seconds)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	rf := runFile{Seed: seed, Seconds: seconds, Traced: traced, Host: facts, Workloads: []wlResult{res}}
	if err := writeJSON(filepath.Join(dir, w.name+".json"), rf); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	printTable(os.Stderr, rf)
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value)
	for _, d := range defs {
		if s, ok := res.Metrics[d.name]; ok && d.everywhere {
			metrics[d.name] = value{s.Value, s.Unit}
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Failed == 0, res.Attempted, res.Failed, metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(line))
	if res.Failed > 0 {
		return 1
	}
	return 0
}

// runAll runs every workload in its own child process, one after another,
// and merges their files into <dir>/result.json.
func runAll(seed int64, seconds float64, traced bool, out, dir string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	rf := runFile{Seed: seed, Seconds: seconds, Traced: traced, Host: host()}
	trace := "0"
	if traced {
		trace = "1"
	}
	code := 0
	for _, w := range workloads {
		fmt.Fprintf(os.Stderr, "bench: %s\n", w.name)
		cmd := exec.Command(self, "-workload", w.name, "-seed", strconv.FormatInt(seed, 10),
			"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", trace, "-out", out)
		cmd.Stdout = io.Discard
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			code = 1
		}
		var child runFile
		if err := readJSON(filepath.Join(dir, w.name+".json"), &child); err != nil || len(child.Workloads) != 1 {
			fmt.Fprintf(os.Stderr, "bench: %s: no result file\n", w.name)
			code = 1
			continue
		}
		rf.Workloads = append(rf.Workloads, child.Workloads[0])
	}
	if err := writeJSON(filepath.Join(dir, "result.json"), rf); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	printTable(os.Stdout, rf)
	return code
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// printTable writes every metric of every workload with its value, unit,
// sample count, median and quartiles.
func printTable(w io.Writer, rf runFile) {
	kind := "end-to-end"
	if rf.Traced {
		kind = "per-layer"
	}
	fmt.Fprintf(w, "seed %d, %gs per workload, %s metrics; host: %d CPUs, GOMAXPROCS %d, %s, %s\n",
		rf.Seed, rf.Seconds, kind, rf.Host.NProc, rf.Host.GOMAXPROCS, rf.Host.CPUModel, rf.Host.GoVersion)
	for _, r := range rf.Workloads {
		fmt.Fprintf(w, "\n%s  sim_digest %s  GOMAXPROCS %d  units %d  attempted %d  failed %d\n",
			r.Workload, r.Digest, r.GOMAXPROCS, r.Units, r.Attempted, r.Failed)
		for _, e := range r.Errors {
			fmt.Fprintf(w, "  error: %s\n", e)
		}
		names := make([]string, 0, len(r.Metrics))
		for n := range r.Metrics {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			s := r.Metrics[n]
			fmt.Fprintf(w, "  %-32s %14.6g %-12s n=%-3d median=%-12.6g q1=%-12.6g q3=%.6g\n",
				n, s.Value, s.Unit, s.N, s.Median, s.Q1, s.Q3)
		}
	}
}

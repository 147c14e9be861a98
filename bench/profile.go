package main

import (
	"bufio"
	"fmt"
	"io"
	"os/exec"
	"strings"
	"time"
)

// The profile folder turns a CPU profile into per-layer shares. Each sample
// goes to one bucket:
//
//   - runtime.gc when any frame is a GC worker or a GC assist;
//   - otherwise the innermost frame that is encoding/json ("encoding_json"),
//     a repro/internal/<pkg> package ("<pkg>"), or this benchmark ("bench");
//   - otherwise "unattributed" (scheduler, idle and profiler threads).

const (
	bucketGC           = "runtime.gc"
	bucketJSON         = "encoding_json"
	bucketBench        = "bench"
	bucketUnattributed = "unattributed"
)

var gcFrames = []string{
	"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep", "runtime.bgscavenge",
}

// profileFold is a folded CPU profile.
type profileFold struct {
	// Total is the summed CPU time of every sample.
	Total time.Duration `json:"total_ns"`
	// Buckets is each bucket's CPU time.
	Buckets map[string]time.Duration `json:"buckets_ns"`
}

// share is bucket b's fraction of the profile.
func (p profileFold) share(b string) float64 {
	if p.Total == 0 {
		return 0
	}
	return float64(p.Buckets[b]) / float64(p.Total)
}

// samples is the sample count at the default 100 Hz profiling rate.
func (p profileFold) samples() float64 { return float64(p.Total / (10 * time.Millisecond)) }

// foldTraces folds the output of `go tool pprof -traces`: blocks separated by
// "-----------+---" rules, each a sample value followed by its stack, leaf
// first, one frame per line.
func foldTraces(r io.Reader) (profileFold, error) {
	p := profileFold{Buckets: make(map[string]time.Duration)}
	var value time.Duration
	var frames []string
	flush := func() {
		if frames != nil {
			p.Total += value
			p.Buckets[bucketOf(frames)] += value
		}
		frames = nil
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "-----------+"):
			flush()
			continue
		case strings.TrimSpace(line) == "" || !strings.HasPrefix(line, " "):
			continue // header lines (File:, Type:, Duration: ...)
		}
		fields := strings.Fields(line)
		if frames == nil {
			// The first line of a block: value, then the leaf frame.
			if len(fields) < 2 {
				return p, fmt.Errorf("pprof traces: malformed sample line %q", line)
			}
			d, err := time.ParseDuration(fields[0])
			if err != nil {
				return p, fmt.Errorf("pprof traces: sample value %q: %w", fields[0], err)
			}
			value = d
			frames = append(frames, fields[1])
			continue
		}
		frames = append(frames, fields[0])
	}
	if err := sc.Err(); err != nil {
		return p, err
	}
	flush()
	return p, nil
}

// bucketOf attributes one stack, leaf first.
func bucketOf(frames []string) string {
	for _, f := range frames {
		for _, g := range gcFrames {
			if strings.HasPrefix(f, g) {
				return bucketGC
			}
		}
	}
	for _, f := range frames {
		switch {
		case strings.HasPrefix(f, "encoding/json."):
			return bucketJSON
		case strings.HasPrefix(f, "repro/internal/"):
			pkg := strings.TrimPrefix(f, "repro/internal/")
			if i := strings.IndexAny(pkg, "./"); i >= 0 {
				pkg = pkg[:i]
			}
			return pkg
		case strings.HasPrefix(f, "main."):
			return bucketBench
		}
	}
	return bucketUnattributed
}

// foldProfile runs `go tool pprof -traces` on CPU profiles, which pprof
// merges, and folds the result.
func foldProfile(paths ...string) (profileFold, error) {
	cmd := exec.Command("go", append([]string{"tool", "pprof", "-traces"}, paths...)...)
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return profileFold{}, fmt.Errorf("go tool pprof -traces: %w: %s", err, strings.TrimSpace(stderr.String()))
	}
	return foldTraces(strings.NewReader(string(out)))
}

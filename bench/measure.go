package main

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// stat summarizes one metric's samples in a run.
type stat struct {
	Unit string `json:"unit"`
	// Value is the run's reading of the metric, as printed on the result
	// line and compared between commits: the median, except where
	// fastestThird replaced it.
	Value  float64 `json:"value"`
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
}

// summarize returns the median and quartiles of xs, computed as Python's
// statistics.quantiles(xs, n=4) computes them (the "exclusive" method), so
// that they match a spread measured by that function.
func summarize(unit string, xs []float64) stat {
	s := stat{Unit: unit, N: len(xs)}
	if len(xs) == 0 {
		return s
	}
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	if len(d) == 1 {
		s.Q1, s.Median, s.Q3 = d[0], d[0], d[0]
	} else {
		q := func(i int) float64 {
			m := len(d) + 1
			j := min(max(i*m/4, 1), len(d)-1)
			delta := i*m - j*4
			return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
		}
		s.Q1, s.Median, s.Q3 = q(1), q(2), q(3)
	}
	s.Value = s.Median
	return s
}

// fastestThird summarizes the per-unit samples of a host-time metric and
// reads it as the mean of the best third of them, at least one: the highest
// if higher is better, else the lowest. The reference (ref.go) rescales away
// the slow spells that cover a whole run, but not the shorter ones that slow
// some units of a run by up to 2x and the reference by far less; the best
// third are the units they touched least.
func fastestThird(unit string, xs []float64, higherIsBetter bool) stat {
	s := summarize(unit, xs)
	if len(xs) == 0 {
		return s
	}
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	if higherIsBetter {
		slices.Reverse(d)
	}
	best := d[:max(1, len(d)/3)]
	s.Value = 0
	for _, x := range best {
		s.Value += x
	}
	s.Value /= float64(len(best))
	return s
}

// one is a metric measured once in a run.
func one(unit string, v float64) stat { return summarize(unit, []float64{v}) }

// sample is what timeUnit measured around one unit.
type sample struct {
	wall, cpu             float64 // seconds
	mallocs, bytes, gcRun float64
}

// timeUnit runs one unit after a full collection, so that units start from
// the same heap, and measures its wall time, process CPU time (user + system,
// all threads, so garbage collection counts) and allocations. A panic in the
// unit is returned as an error.
func timeUnit(unit func() (unitOut, error)) (out unitOut, s sample, err error) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0, err := cpuSeconds()
	if err != nil {
		return out, s, err
	}
	start := time.Now()
	func() {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("panic: %v", r)
			}
		}()
		out, err = unit()
	}()
	s.wall = time.Since(start).Seconds()
	c1, cerr := cpuSeconds()
	runtime.ReadMemStats(&m1)
	if err == nil {
		err = cerr
	}
	s.cpu = c1 - c0
	s.mallocs = float64(m1.Mallocs - m0.Mallocs)
	s.bytes = float64(m1.TotalAlloc - m0.TotalAlloc)
	s.gcRun = float64(m1.NumGC - m0.NumGC)
	return out, s, err
}

func cpuSeconds() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9, nil
}

// peakRSSMiB is the process's peak resident set size (VmHWM).
func peakRSSMiB() (float64, error) {
	v, err := procStatus("VmHWM")
	if err != nil {
		return 0, err
	}
	kb, err := strconv.ParseFloat(strings.TrimSuffix(v, " kB"), 64)
	if err != nil {
		return 0, fmt.Errorf("parse VmHWM %q: %w", v, err)
	}
	return kb / 1024, nil
}

func procStatus(key string) (string, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return "", err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && k == key {
			return strings.TrimSpace(v), nil
		}
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	return "", errors.New("/proc/self/status has no " + key)
}

// hostFacts identify the machine a result was measured on. GOMAXPROCS is the
// runtime's default there; each workload's own value is in its result.
type hostFacts struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
}

func host() hostFacts {
	h := hostFacts{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

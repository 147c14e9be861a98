package main

import (
	"math"
	"strings"
	"testing"
	"time"
)

// tracesFixture is `go tool pprof -traces` output in the toolchain's format.
const tracesFixture = `File: bench
Type: cpu
Time: 2026-01-01 00:00:00 UTC
Duration: 2.50s, Total samples = 1.50s (60.00%)
-----------+-------------------------------------------------------
     500ms   repro/internal/des.(*Engine).Run
             repro/internal/array.(*sim).finish
             repro/internal/array.Run
             main.runArray
             main.main
             runtime.main
-----------+-------------------------------------------------------
     200ms   runtime.mallocgc
             repro/internal/array.(*sim).enqueue (inline)
             repro/internal/des.(*Engine).Run
             runtime.main
-----------+-------------------------------------------------------
     100ms   encoding/json.(*encodeState).marshal
             encoding/json.Marshal
             repro/internal/checkpoint.Encode
             repro/internal/array.(*sim).writeCheckpoint
-----------+-------------------------------------------------------
      1.20s   crypto/sha256.block
             repro/internal/checkpoint.stateDigest
             repro/internal/checkpoint.Decode
             main.setupCkpt.func1
-----------+-------------------------------------------------------
     100ms   runtime.scanobject
             runtime.gcDrain
             runtime.gcBgMarkWorker.func2
             runtime.systemstack
             runtime.gcBgMarkWorker
-----------+-------------------------------------------------------
      50ms   runtime.scanobject
             runtime.gcDrainN
             runtime.gcAssistAlloc1
             runtime.gcAssistAlloc.func1
             runtime.systemstack
             runtime.gcAssistAlloc
             runtime.mallocgc
             repro/internal/policy.(*READ).OnEpoch
-----------+-------------------------------------------------------
      30ms   time.now
             main.(*tracer).now (inline)
             main.(*spanPolicy).TargetDisk
             repro/internal/array.(*sim).onArrival
-----------+-------------------------------------------------------
      20ms   runtime.futex
             runtime.futexsleep
             runtime.notesleep
             runtime.stopm
             runtime.findRunnable
             runtime.schedule
             runtime.park_m
             runtime.mcall
-----------+-------------------------------------------------------
`

func TestFoldTraces(t *testing.T) {
	p, err := foldTraces(strings.NewReader(tracesFixture))
	if err != nil {
		t.Fatal(err)
	}
	ms := time.Millisecond
	want := map[string]time.Duration{
		"des":              500 * ms, // innermost repro frame is the leaf
		"array":            200 * ms, // runtime leaf, innermost repro frame
		bucketJSON:         100 * ms, // encoding/json beats the calling package
		"checkpoint":       1200 * ms,
		bucketGC:           150 * ms, // the background worker and an assist
		bucketBench:        30 * ms,  // the wrapper's own clock read
		bucketUnattributed: 20 * ms,
	}
	for b, d := range want {
		if p.Buckets[b] != d {
			t.Errorf("bucket %s = %v, want %v", b, p.Buckets[b], d)
		}
	}
	if len(p.Buckets) != len(want) {
		t.Errorf("buckets %v, want exactly %v", p.Buckets, want)
	}
	if p.Total != 2200*ms {
		t.Errorf("total %v, want 2.2s", p.Total)
	}
	var sum float64
	for b := range p.Buckets {
		sum += p.share(b)
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("shares sum to %v, want 1", sum)
	}
	if got := p.samples(); got != 220 {
		t.Errorf("samples %v, want 220", got)
	}
}

func TestFoldTracesRejectsMalformedValue(t *testing.T) {
	in := "-----------+----\n     12parsecs   main.main\n"
	if _, err := foldTraces(strings.NewReader(in)); err == nil {
		t.Fatal("want an error for an unparsable sample value")
	}
}

package main

import (
	"math"
	"testing"
)

// TestReferenceRepeatsWithoutAllocating checks the two properties that let
// the reference gauge the host: every run does the same work, and no run
// allocates, so the simulator's heap cannot change its garbage collection.
func TestReferenceRepeatsWithoutAllocating(t *testing.T) {
	const n = 20_000
	s := newRefSim()
	want := s.run(n)
	if want <= 0 {
		t.Fatalf("summed latency %v, want > 0", want)
	}
	allocs := testing.AllocsPerRun(3, func() {
		if got := s.run(n); got != want {
			t.Fatalf("first run %v, then %v", want, got)
		}
	})
	if allocs != 0 {
		t.Errorf("%v allocations per run, want 0", allocs)
	}
}

func TestSpeedFactors(t *testing.T) {
	const r = refNominalSeconds
	// One slow reference run among nominal ones rescales no unit.
	for i, k := range speedFactors([]float64{r, r, 10 * r, r, r}) {
		if k != 1 {
			t.Errorf("unit %d beside one slow reference run: %v, want 1", i, k)
		}
	}
	// A reference twice as slow as nominal means units ran 2^refExponent
	// times slower, so their times shrink by that much.
	want := 1 / math.Pow(2, refExponent)
	for i, k := range speedFactors([]float64{2 * r, 2 * r, 2 * r}) {
		if math.Abs(k-want) > 1e-12 {
			t.Errorf("unit %d at half speed: %v, want %v", i, k, want)
		}
	}
}

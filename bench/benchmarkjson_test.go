package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
)

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json, which the runs are
// judged by, in step with what the code measures and prints.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(data, &keys); err != nil {
		t.Fatal(err)
	}
	var got []string
	for k := range keys {
		got = append(got, k)
	}
	sort.Strings(got)
	if want := []string{"command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("keys %v, want %v", got, want)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if b.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, code default %d", b.RunSeconds, defaultSeconds)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, code has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: %q %q, code has %q %q", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end_to_end metrics, code has %d", len(b.EndToEnd), len(endToEnd))
	}
	// BENCHMARK.json's format caps every bound at 0.25 and gives setup_s the
	// largest, so that work moved into set-up shows (README.md, Bounds).
	var setupBound, maxBound float64
	for i, m := range b.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("end_to_end %d: %+v, code has %+v", i, m, d)
		}
		if !(m.Bound > 0 && m.Bound <= 0.25) {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setupBound = m.Bound
		}
		maxBound = max(maxBound, m.Bound)
	}
	if setupBound != maxBound {
		t.Errorf("setup_s bound %v is not the largest (%v)", setupBound, maxBound)
	}
	var want []metricDef
	for _, d := range perLayer {
		if d.everywhere {
			want = append(want, d)
		}
	}
	if len(b.PerLayer) != len(want) {
		t.Fatalf("%d per_layer metrics, code reports %d on every workload", len(b.PerLayer), len(want))
	}
	for i, m := range b.PerLayer {
		if d := want[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer %d: %+v, code has %+v", i, m, d)
		}
	}
}

func TestDigestsCoverEveryWorkload(t *testing.T) {
	for _, w := range workloads {
		d, err := expectedDigest(w.name, 1)
		if err != nil || len(d) != 64 {
			t.Errorf("%s: seed-1 digest %q, %v", w.name, d, err)
		}
	}
}

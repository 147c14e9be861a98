package array_test

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/array"
	"repro/internal/array/arraytest"
	"repro/internal/policy"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// timelineCases are the runs the timeline tests record: READ on a RAID-6
// array with failures, latent errors and rebuilds, and MAID with its cache
// fills.
var timelineCases = []struct {
	name string
	cfg  func(t testing.TB) array.Config
}{
	{"read-faults", arraytest.FixtureConfig},
	{"maid", func(t testing.TB) array.Config {
		wl := workload.DefaultGenConfig()
		wl.NumFiles = 200
		wl.NumRequests = 3000
		wl.MeanInterarrival = 0.02
		wl.Seed = 5
		trace, err := workload.Generate(wl)
		if err != nil {
			t.Fatal(err)
		}
		return array.Config{Disks: 6, Trace: trace, EpochSeconds: 6,
			Policy: policy.NewMAID(policy.MAIDConfig{CacheDisks: 1})}
	}},
}

// TestTimelineLeavesResultUnchanged requires a run whose recorder collects
// the timeline to equal the same run without a recorder, every float and
// the event count included.
func TestTimelineLeavesResultUnchanged(t *testing.T) {
	for _, tc := range timelineCases {
		t.Run(tc.name, func(t *testing.T) {
			off, err := array.Run(tc.cfg(t))
			if err != nil {
				t.Fatal(err)
			}
			rec := &telemetry.Recorder{}
			cfg := tc.cfg(t)
			cfg.Telemetry = rec
			on, err := array.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(rec.Timeline()) == 0 {
				t.Fatal("no timeline rows")
			}
			if !reflect.DeepEqual(off, on) {
				t.Errorf("the timeline changed the result: energy %v vs %v, events %d vs %d",
					off.EnergyJ, on.EnergyJ, off.EventsFired, on.EventsFired)
			}
		})
	}
}

// TestTimelineRowsSumDiskSamples requires each timeline row to be the sums
// over the DiskSamples of the same walk: time, disks at high speed, queued
// operations and energy (summed in disk order, so exactly).
func TestTimelineRowsSumDiskSamples(t *testing.T) {
	for _, tc := range timelineCases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			rec, err := telemetry.Open(telemetry.Config{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			cfg := tc.cfg(t)
			cfg.Telemetry = rec
			if _, err := array.Run(cfg); err != nil {
				t.Fatal(err)
			}
			if err := rec.Close(); err != nil {
				t.Fatal(err)
			}
			f, err := os.Open(filepath.Join(dir, "disks.ndjson"))
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			var samples []telemetry.DiskSample
			sc := bufio.NewScanner(f)
			for sc.Scan() {
				var s telemetry.DiskSample
				if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
					t.Fatal(err)
				}
				samples = append(samples, s)
			}
			if err := sc.Err(); err != nil {
				t.Fatal(err)
			}
			rows := rec.Timeline()
			if len(samples) != len(rows)*cfg.Disks {
				t.Fatalf("%d timeline rows for %d disk samples of %d disks", len(rows), len(samples), cfg.Disks)
			}
			for i, r := range rows {
				walk := samples[i*cfg.Disks : (i+1)*cfg.Disks]
				high, queued, energy := 0, 0, 0.0
				for _, s := range walk {
					if s.T != walk[0].T || s.Epoch != walk[0].Epoch {
						t.Fatalf("row %d: walk spans %+v and %+v", i, walk[0], s)
					}
					if s.Speed == "high" {
						high++
					}
					queued += s.QueueDepth
					energy += s.EnergyJ
				}
				if r.T != walk[0].T || r.HighDisks != high || r.Queued != queued || r.EnergyJ != energy {
					t.Errorf("row %d %+v, epoch %d walk: t=%v high=%d queued=%d energy=%v",
						i, r, walk[0].Epoch, walk[0].T, high, queued, energy)
				}
			}
		})
	}
}

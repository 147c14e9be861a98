package array

import (
	"testing"

	"repro/internal/diskmodel"
	"repro/internal/thermal"
	"repro/internal/workload"
)

// BenchmarkArrayDispatch is the array layer's cost per request with the
// workload generator and the policy out of the way: enqueue a user op on
// an idle disk, which kicks it into service, then fire its service-end
// event, which completes it (response-time statistics, the policy hook)
// and kicks the disk again onto an empty queue. The disks have no idle
// timeout, so nothing else is ever scheduled.
func BenchmarkArrayDispatch(b *testing.B) {
	wl := workload.DefaultGenConfig()
	wl.NumFiles = 64
	wl.NumRequests = 1
	trace, err := workload.Generate(wl)
	if err != nil {
		b.Fatal(err)
	}
	cfg := Config{Disks: 4, Trace: trace, Policy: &staticPolicy{}}
	cfg.setDefaults()
	s, err := newSim(cfg, nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	for i, ds := range s.disks {
		ds.disk = diskmodel.New(i, cfg.DiskParams, diskmodel.High)
		ds.temp = thermal.NewTracker(cfg.Thermal, diskmodel.High)
	}
	files := trace.Files
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := files[i%len(files)]
		s.enqueue(i%len(s.disks), op{kind: opUser, fileID: f.ID, sizeMB: f.SizeMB, arrival: s.eng.Now()})
		if !s.eng.Step() {
			b.Fatal("no service event pending")
		}
	}
	b.StopTimer()
	if s.failure != nil {
		b.Fatal(s.failure)
	}
	if got := s.respHist.N(); got != uint64(b.N) {
		b.Fatalf("completed %d of %d requests", got, b.N)
	}
}

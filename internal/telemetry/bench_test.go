package telemetry

import (
	"io"
	"testing"
)

func BenchmarkChromeTracerEventFired(b *testing.B) {
	tr := NewChromeTracer(io.Discard, 1, b.N+1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.EventFired(uint64(i), "service", float64(i)*1e-3, 1500)
	}
}

func BenchmarkSeriesWrite(b *testing.B) {
	w := NewSeriesWriter(io.Discard, io.Discard)
	s := DiskSample{T: 1.5, Epoch: 3, Disk: 2, Utilization: 0.4, TempC: 47.2,
		Speed: "high", Transitions: 9, AFRPct: 11.5, QueueDepth: 3, EnergyJ: 1234.5}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := w.Write(s); err != nil {
			b.Fatal(err)
		}
	}
}

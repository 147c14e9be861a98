package telemetry

import (
	"bytes"
	"testing"
)

// TestWriteTimelineCSV pins the CSV layout and the power column derived
// from consecutive rows: the first row's mean since time zero, and a row at
// its predecessor's time repeating that power.
func TestWriteTimelineCSV(t *testing.T) {
	rows := []Sample{
		{T: 2.5, EnergyJ: 257.65625, HighDisks: 4, Queued: 1, InService: 2, Completed: 10},
		{T: 5, EnergyJ: 503.90625, HighDisks: 3, Queued: 0, InService: 1, Completed: 25},
		{T: 5, EnergyJ: 503.90625, HighDisks: 3, Queued: 0, InService: 0, Completed: 26},
	}
	var buf bytes.Buffer
	if err := WriteTimelineCSV(&buf, rows); err != nil {
		t.Fatal(err)
	}
	want := "t,power_w,high_disks,queued,in_service,completed\n" +
		"2.5,103.0625,4,1,2,10\n" +
		"5,98.5,3,0,1,25\n" +
		"5,98.5,3,0,0,26\n"
	if buf.String() != want {
		t.Fatalf("CSV = %q, want %q", buf.String(), want)
	}
	// A row at time zero has no interval behind it: its power is 0.
	buf.Reset()
	if err := WriteTimelineCSV(&buf, []Sample{{Completed: 3}}); err != nil {
		t.Fatal(err)
	}
	if want := "t,power_w,high_disks,queued,in_service,completed\n0,0,0,0,0,3\n"; buf.String() != want {
		t.Fatalf("CSV = %q, want %q", buf.String(), want)
	}
	// Empty timeline still writes the header so the file is self-describing.
	buf.Reset()
	if err := WriteTimelineCSV(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if buf.String() != "t,power_w,high_disks,queued,in_service,completed\n" {
		t.Fatalf("empty CSV = %q", buf.String())
	}
}

package telemetry

import (
	"bytes"
	"fmt"
	"strings"
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

// TestRenderTimelineRows pins which rows the compact view prints: every
// stride-th row and always the run-final one, each time once, as its later
// row, and never more than maxRows.
func TestRenderTimelineRows(t *testing.T) {
	series := func(n int) []Sample {
		rows := make([]Sample, n)
		for i := range rows {
			rows[i] = Sample{T: float64(10 * (i + 1)), EnergyJ: float64(1000 * (i + 1)), Completed: uint64(i)}
		}
		return rows
	}
	sameTime := series(3)
	sameTime[2].T = sameTime[1].T
	cases := []struct {
		name    string
		rows    []Sample
		maxRows int
		done    []int // the done column of each printed row
	}{
		{"26 rows into 24 end on row 25", series(26), 24, []int{0, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24, 25}},
		{"25 rows into 24", series(25), 24, []int{0, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24}},
		{"5 rows into 2", series(5), 2, []int{0, 4}},
		{"5 rows into 3", series(5), 3, []int{0, 2, 4}},
		{"5 rows into 1", series(5), 1, []int{0, 4}},
		{"one row", series(1), 24, []int{0}},
		{"rows at one time print once", sameTime, 24, []int{0, 2}},
	}
	for _, tc := range cases {
		var buf bytes.Buffer
		RenderTimeline(&buf, tc.rows, tc.maxRows)
		lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")[1:]
		var done []int
		for _, line := range lines {
			var d int
			if _, err := fmt.Sscan(strings.Fields(line)[5], &d); err != nil {
				t.Fatalf("%s: row %q: %v", tc.name, line, err)
			}
			done = append(done, d)
		}
		if fmt.Sprint(done) != fmt.Sprint(tc.done) {
			t.Errorf("%s: printed rows %v, want %v", tc.name, done, tc.done)
		}
	}
}

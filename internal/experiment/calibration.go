package experiment

import (
	"fmt"
	"io"
)

// IntensityPoint is one cell of the calibration scan: a policy's outcome at
// one arrival-intensity multiplier.
type IntensityPoint struct {
	Intensity float64
	Policy    PolicyKind
	AFR       float64
	EnergyJ   float64
	Response  float64
	WorstUtil float64
}

// IntensityScan reproduces the calibration behind the Light/Heavy intensity
// constants: it sweeps arrival-intensity multipliers at a fixed array size
// and reports, per policy, the three headline metrics plus the busiest
// disk's utilization (which must sit inside the PRESS utilization band for
// the model's utilization axis to mean anything).
func IntensityScan(cfg AblationConfig, intensities []float64, kinds []PolicyKind) ([]IntensityPoint, error) {
	cfg.setDefaults()
	if len(intensities) == 0 {
		intensities = []float64{1, 2, 4, 6, 8}
	}
	if len(kinds) == 0 {
		kinds = []PolicyKind{KindREAD, KindMAID, KindPDC}
	}
	var out []IntensityPoint
	for _, intensity := range intensities {
		c := cfg
		c.Intensity = intensity
		sweep := SweepConfig{
			DiskCounts: []int{c.Disks},
			Policies:   kinds,
			TraceSpec:  c.TraceSpec,
		}
		res, err := RunSweep(sweep)
		if err != nil {
			return nil, fmt.Errorf("experiment: intensity %gx: %w", intensity, err)
		}
		for _, cell := range res.Cells {
			var worst float64
			for _, d := range cell.Result.PerDisk {
				if d.Utilization > worst {
					worst = d.Utilization
				}
			}
			out = append(out, IntensityPoint{
				Intensity: intensity,
				Policy:    cell.Policy,
				AFR:       cell.Result.ArrayAFR,
				EnergyJ:   cell.Result.EnergyJ,
				Response:  cell.Result.MeanResponse,
				WorstUtil: worst,
			})
		}
	}
	return out, nil
}

// RenderIntensityScan writes the calibration scan as an aligned table.
func RenderIntensityScan(w io.Writer, pts []IntensityPoint, title string) {
	fmt.Fprintln(w, title)
	rows := [][]string{{"intensity", "policy", "AFR%", "energy", "mean resp", "worst util"}}
	for _, p := range pts {
		rows = append(rows, []string{
			fmt.Sprintf("%gx", p.Intensity),
			string(p.Policy),
			fmt.Sprintf("%.3f", p.AFR),
			formatMetric(MetricEnergy, p.EnergyJ),
			formatMetric(MetricResponse, p.Response),
			fmt.Sprintf("%.1f%%", p.WorstUtil*100),
		})
	}
	writeAligned(w, rows)
}

package experiment

import (
	"fmt"
	"io"

	"repro/internal/array"
	"repro/internal/policy"
	"repro/internal/workload"
)

// AblationConfig parameterizes the single-workload ablation runs.
type AblationConfig struct {
	// Disks is the array size. Zero means 10.
	Disks int
	// Workload is the base generator configuration (churn and diurnal
	// profile from DefaultSweepConfig if zero-valued).
	Workload workload.GenConfig
	// Scale and Intensity as in SweepConfig. Zero means 0.05 / light.
	Scale     float64
	Intensity float64
	// EpochsPerTrace as in SweepConfig; zero means 24.
	EpochsPerTrace int
}

func (c *AblationConfig) setDefaults() {
	if c.Disks == 0 {
		c.Disks = 10
	}
	if c.Workload.NumFiles == 0 {
		c.Workload = DefaultSweepConfig().Workload
	}
	if c.Scale == 0 {
		c.Scale = 0.05
	}
	if c.Intensity == 0 {
		// The ablations probe transition behaviour, which needs idle
		// gaps to exist: run at the trace's native arrival rate, where
		// the diurnal valley leaves disks genuinely idle.
		c.Intensity = 1
	}
	if c.EpochsPerTrace <= 0 {
		c.EpochsPerTrace = 24
	}
}

// VariantResult is one ablation cell: a named policy variant's outcome.
type VariantResult struct {
	Label  string
	Result *array.Result
}

// runVariants replays one trace through a list of policy variants.
func runVariants(cfg AblationConfig, variants []struct {
	label string
	make  func() array.Policy
}) ([]VariantResult, error) {
	cfg.setDefaults()
	trace, epoch, err := sweepTrace(cfg.Workload, cfg.Intensity, cfg.Scale, 0, cfg.EpochsPerTrace)
	if err != nil {
		return nil, err
	}
	out := make([]VariantResult, 0, len(variants))
	for _, v := range variants {
		res, err := array.Run(array.Config{
			Disks:        cfg.Disks,
			Trace:        trace,
			Policy:       v.make(),
			EpochSeconds: epoch,
		})
		if err != nil {
			return nil, fmt.Errorf("experiment: ablation %q: %w", v.label, err)
		}
		out = append(out, VariantResult{Label: v.label, Result: res})
	}
	return out, nil
}

// TransitionCapAblation sweeps READ's daily transition cap S — the
// in-simulator version of the paper's "is it worthwhile above 65/day?"
// question.
func TransitionCapAblation(cfg AblationConfig, caps []int) ([]VariantResult, error) {
	if len(caps) == 0 {
		caps = []int{5, 20, 40, 65, 200, 1600}
	}
	variants := make([]struct {
		label string
		make  func() array.Policy
	}, 0, len(caps))
	for _, s := range caps {
		s := s
		variants = append(variants, struct {
			label string
			make  func() array.Policy
		}{
			label: fmt.Sprintf("S=%d", s),
			make: func() array.Policy {
				return policy.NewREAD(policy.READConfig{MaxTransitionsPerDay: s})
			},
		})
	}
	return runVariants(cfg, variants)
}

// READDesignAblation removes READ's design elements one at a time:
// the adaptive idleness threshold and the epoch migration.
func READDesignAblation(cfg AblationConfig) ([]VariantResult, error) {
	return runVariants(cfg, []struct {
		label string
		make  func() array.Policy
	}{
		{"read (full)", func() array.Policy {
			return policy.NewREAD(policy.READConfig{})
		}},
		{"no adaptive H", func() array.Policy {
			return policy.NewREAD(policy.READConfig{DisableAdaptiveThreshold: true})
		}},
		{"no migration", func() array.Policy {
			return policy.NewREAD(policy.READConfig{MaxMigrationsPerEpoch: -1})
		}},
		{"no cap (DRPM-like)", func() array.Policy {
			return policy.NewDRPM(policy.DRPMConfig{})
		}},
	})
}

// BaselinePanelAblation runs every implemented policy, including the
// extensions, on one workload for a side-by-side panel.
func BaselinePanelAblation(cfg AblationConfig) ([]VariantResult, error) {
	return runVariants(cfg, []struct {
		label string
		make  func() array.Policy
	}{
		{"always-on", func() array.Policy { return policy.NewAlwaysOn() }},
		{"read", func() array.Policy { return policy.NewREAD(policy.READConfig{}) }},
		{"read-replica", func() array.Policy {
			return policy.NewREADReplica(policy.READReplicaConfig{})
		}},
		{"maid", func() array.Policy { return policy.NewMAID(policy.MAIDConfig{}) }},
		{"pdc", func() array.Policy { return policy.NewPDC(policy.PDCConfig{}) }},
		{"drpm", func() array.Policy { return policy.NewDRPM(policy.DRPMConfig{}) }},
	})
}

// RenderVariants writes an ablation panel as an aligned table.
func RenderVariants(w io.Writer, vs []VariantResult, title string) {
	fmt.Fprintln(w, title)
	rows := [][]string{{"variant", "AFR%", "energy", "mean resp", "transitions", "migrations"}}
	for _, v := range vs {
		var trans int
		for _, d := range v.Result.PerDisk {
			trans += d.Transitions
		}
		rows = append(rows, []string{
			v.Label,
			fmt.Sprintf("%.3f", v.Result.ArrayAFR),
			formatMetric(MetricEnergy, v.Result.EnergyJ),
			formatMetric(MetricResponse, v.Result.MeanResponse),
			fmt.Sprintf("%d", trans),
			fmt.Sprintf("%d", v.Result.Migrations),
		})
	}
	writeAligned(w, rows)
}

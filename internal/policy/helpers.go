// Package policy implements the energy-saving strategies the paper
// evaluates on the two-speed disk-array simulator:
//
//   - READ — the paper's contribution (§4): reliability- and energy-aware
//     distribution with hot/cold zones, epoch migration, and a capped
//     speed-transition budget.
//   - MAID — Colarelli & Grunwald's massive array of idle disks, adapted to
//     two-speed drives as the paper does: cache disks absorb popular data,
//     storage disks drop to low speed when idle.
//   - PDC — Pinheiro & Bianchini's popular data concentration: popularity-
//     sorted placement skews load onto the first disks so the rest idle.
//   - AlwaysOn — the no-power-management baseline.
//   - DRPM — an aggressive per-disk dynamic speed policy used as an
//     ablation for the paper's "is frequent switching worthwhile?" question.
package policy

import (
	"sort"

	"repro/internal/array"
	"repro/internal/workload"
)

// byLoadDesc returns the files ordered by static load hi = λi·si,
// heaviest first, with ID tie-breaking for determinism.
func byLoadDesc(files workload.FileSet) workload.FileSet {
	out := files.Clone()
	sort.Slice(out, func(i, j int) bool {
		li, lj := out[i].Load(), out[j].Load()
		if li != lj {
			return li > lj
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// rankByEpochAccess returns the files ordered by counts, this epoch's
// accesses (ctx.AccessCounts), most accessed first, with ties broken by
// static access rate (so quiet epochs do not randomize the tail) and then by
// ID. READ, READ-Replica and PDC all re-rank through it. The caller takes
// the counts, so the map does not outlive its epoch on the heap.
func rankByEpochAccess(ctx *array.Context, counts map[int]int) workload.FileSet {
	files := ctx.Files().Clone()
	sort.Slice(files, func(i, j int) bool {
		ci, cj := counts[files[i].ID], counts[files[j].ID]
		if ci != cj {
			return ci > cj
		}
		if files[i].AccessRate != files[j].AccessRate {
			return files[i].AccessRate > files[j].AccessRate
		}
		return files[i].ID < files[j].ID
	})
	return files
}

// placeLeastLoaded assigns each file (in the given order) to the disk in
// `disks` with the least accumulated load so far (greedy LPT balancing).
func placeLeastLoaded(ctx *array.Context, files workload.FileSet, disks []int) error {
	load := make(map[int]float64, len(disks))
	for _, f := range files {
		best, bestLoad := disks[0], load[disks[0]]
		for _, d := range disks[1:] {
			if load[d] < bestLoad {
				best, bestLoad = d, load[d]
			}
		}
		if err := ctx.SetPlacement(f.ID, best); err != nil {
			return err
		}
		load[best] += f.Load()
	}
	return nil
}

// placeRoundRobin assigns files (in the given order) cyclically over disks,
// the paper's §4 assignment rule for both zones.
func placeRoundRobin(ctx *array.Context, files workload.FileSet, disks []int) error {
	for i, f := range files {
		if err := ctx.SetPlacement(f.ID, disks[i%len(disks)]); err != nil {
			return err
		}
	}
	return nil
}

// diskRange returns [lo, hi) as a slice of disk indices.
func diskRange(lo, hi int) []int {
	out := make([]int, 0, hi-lo)
	for d := lo; d < hi; d++ {
		out = append(out, d)
	}
	return out
}

// estimateTheta derives the workload skew parameter from per-file access
// rates (Init time) by treating rates as expected counts.
func estimateTheta(files workload.FileSet) float64 {
	counts := make([]int, len(files))
	for i, f := range files {
		// Scale to integers; resolution of 1e-6 req/s is ample.
		counts[i] = int(f.AccessRate * 1e6)
	}
	th, err := workload.MeasureTheta(counts)
	if err != nil || th <= 0 {
		return 0.5
	}
	if th >= 1 {
		return 0.999
	}
	return th
}

package policy

import (
	"sort"

	"repro/internal/array"
	"repro/internal/diskmodel"
	"repro/internal/workload"
)

// READConfig parameterizes the READ policy (paper Figure 6).
type READConfig struct {
	// MaxTransitionsPerDay is S: the per-disk daily speed-transition cap
	// (paper evaluation: 40).
	MaxTransitionsPerDay int
	// InitialIdleThreshold is H in seconds. Zero picks 2× the drive's
	// break-even idle time.
	InitialIdleThreshold float64
	// Theta overrides the initial skew parameter θ; zero estimates it
	// from the file set's access rates.
	Theta float64
	// MaxMigrationsPerEpoch bounds migration churn per epoch. Zero means
	// 256; a negative value disables epoch migration entirely (ablation).
	MaxMigrationsPerEpoch int
	// MaxIdleThreshold caps the adaptive doubling of H. Default 4 hours.
	MaxIdleThreshold float64
	// DisableAdaptiveThreshold turns off Figure 6's steps 20-24 (the
	// doubling of H under transition-budget pressure). Ablation only.
	DisableAdaptiveThreshold bool
}

func (c *READConfig) setDefaults() {
	if c.MaxTransitionsPerDay <= 0 {
		c.MaxTransitionsPerDay = 40
	}
	if c.MaxMigrationsPerEpoch == 0 {
		c.MaxMigrationsPerEpoch = 256
	}
	if c.MaxIdleThreshold <= 0 {
		c.MaxIdleThreshold = 4 * 3600
	}
}

// READ implements Reliability and Energy Aware Distribution (paper §4):
//
//  1. Estimate the workload skew θ and split files into popular/unpopular
//     sets (Eq. 4).
//  2. Size a hot zone (high-speed disks) and cold zone (low-speed disks)
//     from the load ratio γ (Eq. 5) and place popular files round-robin on
//     the hot zone, unpopular files round-robin on the cold zone.
//  3. Each epoch, re-rank files by observed accesses, re-derive θ, migrate
//     reclassified files between the (fixed) zones, and double any disk's
//     idleness threshold H once its transition count reaches half its
//     budget — keeping every disk under the daily transition rate cap S.
type READ struct {
	cfg READConfig

	theta    float64
	hotCount int
	popular  map[int]bool
	// popularIDs memoizes sortedKeys(popular) for snapshots; setPopular
	// clears it, and popular is only ever replaced, never edited.
	popularIDs []int
	rrHot      int
	rrCold     int

	migrations int
}

// NewREAD builds a READ policy.
func NewREAD(cfg READConfig) *READ {
	cfg.setDefaults()
	return &READ{cfg: cfg}
}

// Name implements array.Policy.
func (r *READ) Name() string { return "read" }

// HotDisks returns the current hot-zone size.
func (r *READ) HotDisks() int { return r.hotCount }

// Theta returns the current skew estimate.
func (r *READ) Theta() float64 { return r.theta }

// MigrationsRequested returns the number of epoch migrations READ issued.
func (r *READ) MigrationsRequested() int { return r.migrations }

// classify splits the (already popularity-ordered, most popular first) files
// into popular/unpopular per Eq. 4 and returns the per-class loads for
// Eq. 5, using the paper's load definition hi = λi·si (§4: service time
// proportional to size). The byte-weighted load keeps the hot zone compact
// — popular web objects are small, so a small high-speed zone absorbs them
// and the cold majority of disks stays parked at low speed; this is where
// READ's energy savings come from. loadOf supplies each file's hi (static
// rates at init, observed per-epoch rates afterwards).
func classify(sorted workload.FileSet, theta float64, loadOf func(workload.File) float64) (popular map[int]bool, popLoad, unpopLoad float64) {
	np, _, err := workload.PopularSplit(theta, len(sorted))
	if err != nil {
		np = len(sorted) / 2
		if np == 0 {
			np = 1
		}
	}
	popular = make(map[int]bool, np)
	for i, f := range sorted {
		h := loadOf(f)
		if i < np {
			popular[f.ID] = true
			popLoad += h
		} else {
			unpopLoad += h
		}
	}
	return popular, popLoad, unpopLoad
}

// zoneSize derives the hot-disk count from the class loads (Eq. 5 +
// Figure 6 step 3).
func zoneSize(popLoad, unpopLoad float64, n int) int {
	gamma, err := workload.GammaRatio(popLoad, unpopLoad)
	if err != nil {
		gamma = 1
	}
	hd, err := workload.HotDiskCount(gamma, n)
	if err != nil {
		hd = n / 2
		if hd < 1 {
			hd = 1
		}
	}
	return hd
}

// Init runs Figure 6 steps 1-7.
func (r *READ) Init(ctx *array.Context) error {
	files := ctx.Files().Clone()
	// Original round: popularity proxied by size (smallest = hottest).
	files.SortBySizeAscending()

	r.theta = r.cfg.Theta
	if r.theta <= 0 || r.theta >= 1 {
		r.theta = estimateTheta(files)
	}
	popular, popLoad, unpopLoad := classify(files, r.theta,
		func(f workload.File) float64 { return f.Load() })
	r.setPopular(popular)
	n := ctx.NumDisks()
	r.hotCount = zoneSize(popLoad, unpopLoad, n)

	// Step 4: hot zone high speed, cold zone low speed (free at init).
	for d := 0; d < n; d++ {
		if d < r.hotCount {
			ctx.RequestTransition(d, diskmodel.High)
		} else {
			ctx.RequestTransition(d, diskmodel.Low)
		}
	}

	// Steps 5-7: round-robin placement per zone.
	var pop, unpop workload.FileSet
	for _, f := range files {
		if r.popular[f.ID] {
			pop = append(pop, f)
		} else {
			unpop = append(unpop, f)
		}
	}
	if err := placeRoundRobin(ctx, pop, diskRange(0, r.hotCount)); err != nil {
		return err
	}
	if err := placeRoundRobin(ctx, unpop, diskRange(r.hotCount, n)); err != nil {
		return err
	}

	h := r.cfg.InitialIdleThreshold
	if h <= 0 {
		dp := ctx.DiskParams()
		h = 2 * dp.BreakEvenIdle()
	}
	for d := 0; d < n; d++ {
		ctx.SetIdleTimeout(d, h)
	}
	return nil
}

// setPopular replaces the popular set.
func (r *READ) setPopular(popular map[int]bool) {
	r.popular = popular
	r.popularIDs = nil
}

// sortedPopular returns the popular file IDs in ascending order.
func (r *READ) sortedPopular() []int {
	if r.popularIDs == nil {
		r.popularIDs = sortedKeys(r.popular)
	}
	return r.popularIDs
}

// budget returns the transition allowance accumulated so far. S is a daily
// RATE cap, so the allowance accrues fractionally with elapsed time (with a
// small floor so the very start of a run is not frozen); a count-per-day
// interpretation would let a short run burn a full day's budget in minutes.
func (r *READ) budget(ctx *array.Context) int {
	accrued := int(float64(r.cfg.MaxTransitionsPerDay)*ctx.Now()/86400) + 1
	if accrued < 2 {
		return 2
	}
	return accrued
}

// TargetDisk serves from the placement disk; a hot-zone disk that idled down
// is spun back up (this transition is demanded by correctness — hot files
// must be served fast — and is what the S cap protects against).
func (r *READ) TargetDisk(ctx *array.Context, fileID int) int {
	d := ctx.Placement(fileID)
	if d < r.hotCount && ctx.DiskSpeed(d) == diskmodel.Low {
		ctx.SetDecisionCause("demand")
		ctx.RequestTransition(d, diskmodel.High)
	}
	return d
}

// OnRequestComplete implements array.Policy.
func (r *READ) OnRequestComplete(*array.Context, int, int) {}

// OnIdleTimeout lets a hot-zone disk sink to low speed only while its
// transition budget (with room for the return trip) is intact.
func (r *READ) OnIdleTimeout(ctx *array.Context, d int) {
	if d >= r.hotCount {
		return // cold zone is already low
	}
	if ctx.DiskSpeed(d) != diskmodel.High {
		return
	}
	if ctx.DiskTransitions(d)+2 > r.budget(ctx) {
		return // budget exhausted: stay at high speed
	}
	ctx.RequestTransition(d, diskmodel.Low)
}

// OnEpoch runs Figure 6 steps 9-24.
func (r *READ) OnEpoch(ctx *array.Context) {
	files := ctx.Files().Clone()
	counts := ctx.AccessCounts()

	// Step 10: re-sort by accesses during the current epoch.
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

	// Step 11: re-calculate θ and re-categorize. A sparse epoch window
	// (fewer observations than files) cannot support a skew estimate —
	// zero-count files would masquerade as extreme skew — so θ is only
	// refreshed from a reasonably dense window.
	countVec := make([]int, len(files))
	total := 0
	for i, f := range files {
		countVec[i] = counts[f.ID]
		total += counts[f.ID]
	}
	if total >= len(files) {
		if th, err := workload.MeasureTheta(countVec); err == nil && th > 0 && th < 1 {
			r.theta = th
		}
	}
	// Re-categorize with the refreshed θ. Zone sizes stay as Figure 6
	// step 3 set them: the paper's epoch loop (steps 8-25) migrates files
	// between the zones but never moves the hot/cold boundary — and an
	// epoch window cannot support Eq. 5 anyway, because the unpopular
	// class's observed load is near zero by construction (they are
	// unpopular precisely because the window barely touched them).
	newPopular, _, _ := classify(files, r.theta,
		func(f workload.File) float64 { return float64(counts[f.ID]) * f.SizeMB })
	n := ctx.NumDisks()

	// Steps 12-19: migrate reclassified files, round-robin per zone.
	moved := 0
	for _, f := range files {
		if moved >= r.cfg.MaxMigrationsPerEpoch {
			break
		}
		wasPopular := r.popular[f.ID]
		isPopular := newPopular[f.ID]
		cur := ctx.Placement(f.ID)
		switch {
		case wasPopular && !isPopular && cur < r.hotCount:
			target := r.hotCount + r.rrCold%(n-r.hotCount)
			r.rrCold++
			ctx.SetDecisionCause("popularity")
			if ctx.Migrate(f.ID, target) {
				r.migrations++
				moved++
			}
		case !wasPopular && isPopular && cur >= r.hotCount:
			target := r.rrHot % r.hotCount
			r.rrHot++
			ctx.SetDecisionCause("popularity")
			if ctx.Migrate(f.ID, target) {
				r.migrations++
				moved++
			}
		}
	}
	r.setPopular(newPopular)

	// Steps 20-24: adaptive idleness threshold. Once a disk has spent half
	// its budget, double its H to slow future transitions.
	if r.cfg.DisableAdaptiveThreshold {
		return
	}
	for d := 0; d < n; d++ {
		if 2*ctx.DiskTransitions(d) >= r.budget(ctx) {
			h := ctx.IdleTimeout(d) * 2
			if h > r.cfg.MaxIdleThreshold {
				h = r.cfg.MaxIdleThreshold
			}
			ctx.SetIdleTimeout(d, h)
		}
	}
}

var _ array.Policy = (*READ)(nil)

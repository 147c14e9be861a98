package policy

import (
	"sort"

	"repro/internal/array"
	"repro/internal/workload"
)

// READReplicaConfig parameterizes the replication variant of READ.
type READReplicaConfig struct {
	// READ carries the base policy's parameters.
	READ READConfig
	// ReplicaBudgetMB bounds the replica bytes held per hot disk. Zero
	// means 10% of the drive capacity.
	ReplicaBudgetMB float64
}

// READReplica is the paper's §6 future-work variant of READ: in a highly
// dynamic environment the epoch migrations become expensive, so instead of
// MOVING a newly-popular file into the hot zone, the policy COPIES it there
// and serves from the replica. When the file cools again the replica is
// simply dropped — reclassification back and forth costs one transfer
// instead of two, and a popularity flap after the copy costs nothing.
//
// The base READ placement, zoning, transition budget, and adaptive idleness
// threshold are unchanged; only the promotion path differs.
type READReplica struct {
	READ

	cfg READReplicaConfig

	// replica maps fileID -> hot disk serving its copy.
	replica map[int]int
	// replMB tracks replica bytes per hot disk.
	replMB map[int]float64
	// copying guards in-flight replica transfers (fileID -> target hot
	// disk), so a hot-disk failure can void the transfers headed its way.
	copying map[int]int

	replicasMade    int
	replicasDropped int
}

// NewREADReplica builds the replication variant.
func NewREADReplica(cfg READReplicaConfig) *READReplica {
	cfg.READ.setDefaults()
	base := NewREAD(cfg.READ)
	return &READReplica{
		READ:    *base,
		cfg:     cfg,
		replica: make(map[int]int),
		replMB:  make(map[int]float64),
		copying: make(map[int]int),
	}
}

// Name implements array.Policy.
func (r *READReplica) Name() string { return "read-replica" }

// ReplicasMade returns the number of replicas created.
func (r *READReplica) ReplicasMade() int { return r.replicasMade }

// ReplicasDropped returns the number of replicas discarded.
func (r *READReplica) ReplicasDropped() int { return r.replicasDropped }

// Init delegates to READ and sizes the replica budget.
func (r *READReplica) Init(ctx *array.Context) error {
	if err := r.READ.Init(ctx); err != nil {
		return err
	}
	if r.cfg.ReplicaBudgetMB <= 0 {
		r.cfg.ReplicaBudgetMB = ctx.DiskParams().CapacityMB * 0.10
	}
	return nil
}

// TargetDisk prefers a hot replica when one exists.
func (r *READReplica) TargetDisk(ctx *array.Context, fileID int) int {
	if d, ok := r.replica[fileID]; ok {
		return d
	}
	return r.READ.TargetDisk(ctx, fileID)
}

// OnEpoch re-ranks files like READ but promotes by replication and demotes
// by dropping replicas. Files whose primary already sits in the hot zone
// are left to the base policy's bookkeeping.
func (r *READReplica) OnEpoch(ctx *array.Context) {
	files := ctx.Files().Clone()
	counts := ctx.AccessCounts()
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
	newPopular, _, _ := classify(files, r.theta,
		func(f workload.File) float64 { return float64(counts[f.ID]) * f.SizeMB })

	hot := r.HotDisks()
	promoted := 0
	for _, f := range files {
		id := f.ID
		primary := ctx.Placement(id)
		_, hasReplica := r.replica[id]
		_, inflight := r.copying[id]
		isPopular := newPopular[id]
		switch {
		case isPopular && primary >= hot && !hasReplica && !inflight:
			if promoted >= r.cfg.READ.MaxMigrationsPerEpoch {
				continue
			}
			r.promote(ctx, f, hot)
			promoted++
		case !isPopular && hasReplica:
			// Cooled off: drop the replica, primary still lives in the
			// cold zone. No transfer needed.
			d := r.replica[id]
			delete(r.replica, id)
			r.replMB[d] -= f.SizeMB
			r.replicasDropped++
		}
	}
	r.popular = newPopular

	// Base policy's adaptive threshold maintenance (Figure 6 steps 20-24).
	for d := 0; d < ctx.NumDisks(); d++ {
		if 2*ctx.DiskTransitions(d) >= r.budget(ctx) {
			h := ctx.IdleTimeout(d) * 2
			if h > r.cfg.READ.MaxIdleThreshold {
				h = r.cfg.READ.MaxIdleThreshold
			}
			ctx.SetIdleTimeout(d, h)
		}
	}
}

// promote copies the file onto the least replica-loaded hot disk.
func (r *READReplica) promote(ctx *array.Context, f workload.File, hot int) {
	best, bestMB := -1, 0.0
	for d := 0; d < hot; d++ {
		if best == -1 || r.replMB[d] < bestMB {
			best, bestMB = d, r.replMB[d]
		}
	}
	if best < 0 || bestMB+f.SizeMB > r.cfg.ReplicaBudgetMB {
		return
	}
	id := f.ID
	r.copying[id] = best
	r.replMB[best] += f.SizeMB
	if err := ctx.EnqueueWrite(r, best, id, f.SizeMB); err != nil {
		delete(r.copying, id)
		r.replMB[best] -= f.SizeMB
	}
}

// OnWriteDone completes the promotion of file id onto hot disk target.
func (r *READReplica) OnWriteDone(_ *array.Context, id, target int) {
	delete(r.copying, id)
	r.replica[id] = target
	r.replicasMade++
}

var _ array.WritePolicy = (*READReplica)(nil)

package policy

import (
	"container/list"
	"errors"
	"fmt"

	"repro/internal/array"
	"repro/internal/diskmodel"
)

// MAIDConfig parameterizes the MAID policy.
type MAIDConfig struct {
	// CacheDisks is the number of always-on cache disks at the front of
	// the array (MAID's workhorses). Must leave at least one storage disk.
	CacheDisks int
	// CacheCapacityMB bounds the data cached per cache disk; LRU
	// replacement beyond it. Zero sizes the total cache region at 60% of
	// the dataset (split across cache disks): big enough that the steady
	// hot set fits, small enough that popularity drift keeps evicting —
	// so storage disks keep being disturbed, the dynamic the paper's
	// reliability analysis prices in.
	CacheCapacityMB float64
	// IdleThreshold is the storage-disk idleness threshold H in seconds
	// before dropping to low speed. Zero picks 15 s — aggressive (at the
	// drive's energy break-even point), maximizing nominal idle-time
	// capture at the cost of oscillation, which is exactly the behaviour
	// PRESS prices in.
	IdleThreshold float64
}

// MAID implements the Massive Array of Idle Disks scheme adapted to
// two-speed drives: requested data is copied to cache disks so storage
// disks can idle at low speed; a miss spins the storage disk back up.
type MAID struct {
	cfg MAIDConfig

	cacheDisks int
	// cache state
	entries  map[int]*list.Element // fileID -> LRU element
	lru      *list.List            // front = most recent; values are cacheEntry
	usedMB   []float64             // per cache disk
	capPerMB float64
	nextCD   int // round-robin cache-disk chooser
	// copying tracks in-flight cache admissions (fileID -> target cache
	// disk) so a burst of misses on one file admits it once — and so a
	// cache-disk failure can void the admissions headed its way.
	copying map[int]int

	copies int
	hits   int
	misses int
}

type cacheEntry struct {
	fileID    int
	cacheDisk int
	sizeMB    float64
}

// NewMAID builds a MAID policy.
func NewMAID(cfg MAIDConfig) *MAID {
	return &MAID{cfg: cfg}
}

// Name implements array.Policy.
func (m *MAID) Name() string { return "maid" }

// Hits and misses expose cache effectiveness for reports.
func (m *MAID) Hits() int { return m.hits }

// Misses returns the number of cache misses.
func (m *MAID) Misses() int { return m.misses }

// Copies returns the number of cache admissions performed.
func (m *MAID) Copies() int { return m.copies }

// Init places all files on the storage disks and configures cache disks.
func (m *MAID) Init(ctx *array.Context) error {
	n := ctx.NumDisks()
	m.cacheDisks = m.cfg.CacheDisks
	if m.cacheDisks <= 0 {
		// Default: one cache disk per 4 disks, at least 1 — raised when
		// the aggregate service demand would overload that many
		// workhorses (a two-speed adaptation: cache disks must be able
		// to absorb nearly the whole request stream).
		m.cacheDisks = n / 4
		if m.cacheDisks < 1 {
			m.cacheDisks = 1
		}
		params := ctx.DiskParams()
		var demand float64 // expected busy seconds per second
		for _, f := range ctx.Files() {
			demand += f.AccessRate * params.ServiceTime(f.SizeMB, diskmodel.High)
		}
		need := int(demand/0.5) + 1
		if need > m.cacheDisks {
			m.cacheDisks = need
		}
		if m.cacheDisks > n-1 {
			m.cacheDisks = n - 1
		}
	}
	if m.cacheDisks >= n {
		return fmt.Errorf("policy: maid needs a storage disk: %d cache disks of %d total", m.cacheDisks, n)
	}
	m.capPerMB = m.cfg.CacheCapacityMB
	if m.capPerMB <= 0 {
		m.capPerMB = 0.60 * ctx.Files().TotalSizeMB() / float64(m.cacheDisks)
	}
	if m.capPerMB <= 0 {
		return errors.New("policy: maid cache capacity must be positive")
	}
	m.entries = make(map[int]*list.Element)
	m.lru = list.New()
	m.usedMB = make([]float64, m.cacheDisks)
	m.copying = make(map[int]int)

	// Storage disks hold everything, load-balanced.
	storage := diskRange(m.cacheDisks, n)
	if err := placeLeastLoaded(ctx, byLoadDesc(ctx.Files()), storage); err != nil {
		return err
	}

	h := m.cfg.IdleThreshold
	if h <= 0 {
		h = 15
	}
	for _, d := range storage {
		ctx.SetIdleTimeout(d, h)
	}
	// Cache disks always on at high speed; no idle timers.
	return nil
}

// TargetDisk serves cache hits from the cache disk and misses from the
// storage disk. A miss activates the storage disk — the defining MAID
// dynamic: in the original MAID the drive is powered down and MUST spin up
// to serve; in the paper's two-speed "hybrid" form the access drives the
// disk to full speed. This demand-driven spin-up (and the spin-down that
// follows the next idle period) is exactly the transition churn PRESS
// prices in, and what READ's budget avoids.
func (m *MAID) TargetDisk(ctx *array.Context, fileID int) int {
	if el, ok := m.entries[fileID]; ok {
		m.hits++
		m.lru.MoveToFront(el)
		return el.Value.(cacheEntry).cacheDisk
	}
	m.misses++
	d := ctx.Placement(fileID)
	if ctx.DiskSpeed(d) == diskmodel.Low {
		ctx.SetDecisionCause("cache-miss")
		ctx.RequestTransition(d, diskmodel.High)
	}
	m.admit(ctx, fileID)
	return d
}

// admit copies fileID onto a cache disk chosen round-robin, evicting LRU
// entries from that disk until the copy fits.
func (m *MAID) admit(ctx *array.Context, fileID int) {
	if _, inflight := m.copying[fileID]; inflight {
		return
	}
	f, ok := ctx.File(fileID)
	if !ok || f.SizeMB > m.capPerMB {
		return // uncacheable
	}
	cd := m.nextCD
	m.nextCD = (m.nextCD + 1) % m.cacheDisks

	// Evict from the back of the global LRU, restricted to entries on cd,
	// until the file fits.
	for m.usedMB[cd]+f.SizeMB > m.capPerMB {
		victim := m.oldestOn(cd)
		if victim == nil {
			return // nothing evictable on this disk; skip admission
		}
		e := victim.Value.(cacheEntry)
		m.lru.Remove(victim)
		delete(m.entries, e.fileID)
		m.usedMB[cd] -= e.sizeMB
	}

	m.copying[fileID] = cd
	m.usedMB[cd] += f.SizeMB
	if err := ctx.EnqueueWrite(m, cd, fileID, f.SizeMB); err != nil {
		delete(m.copying, fileID)
		m.usedMB[cd] -= f.SizeMB
	}
}

// OnWriteDone completes the cache admission of fileID onto cache disk cd.
func (m *MAID) OnWriteDone(ctx *array.Context, fileID, cd int) {
	f, _ := ctx.File(fileID)
	delete(m.copying, fileID)
	// Admission may have been superseded by eviction bookkeeping;
	// only insert if still absent.
	if _, ok := m.entries[fileID]; !ok {
		el := m.lru.PushFront(cacheEntry{fileID: fileID, cacheDisk: cd, sizeMB: f.SizeMB})
		m.entries[fileID] = el
	}
	m.copies++
}

func (m *MAID) oldestOn(cd int) *list.Element {
	for el := m.lru.Back(); el != nil; el = el.Prev() {
		if el.Value.(cacheEntry).cacheDisk == cd {
			return el
		}
	}
	return nil
}

// OnRequestComplete implements array.Policy.
func (m *MAID) OnRequestComplete(*array.Context, int, int) {}

// OnEpoch implements array.Policy. MAID is reactive; nothing to do.
func (m *MAID) OnEpoch(*array.Context) {}

// OnIdleTimeout drops idle storage disks to low speed.
func (m *MAID) OnIdleTimeout(ctx *array.Context, d int) {
	if d < m.cacheDisks {
		return // cache disks stay hot
	}
	if ctx.DiskSpeed(d) == diskmodel.High {
		ctx.RequestTransition(d, diskmodel.Low)
	}
}

var _ array.WritePolicy = (*MAID)(nil)

package policy

// Checkpoint state for the shipped policies (array.CheckpointablePolicy).
//
// Each SaveState captures only what the policy accumulated since Init —
// configuration is NOT serialized, because a resume constructs the policy
// fresh from the same configuration and then calls LoadState. Map-shaped
// state is serialized to JSON objects (deterministic: encoding/json sorts
// object keys), and MAID's LRU list is flattened front-to-back so recency
// order survives the round trip.

import (
	"container/list"
	"encoding/json"
	"fmt"
	"sort"

	"repro/internal/array"
)

// --- READ ---

type readState struct {
	Theta      float64 `json:"theta"`
	HotCount   int     `json:"hot_count"`
	Popular    []int   `json:"popular,omitempty"`
	RRHot      int     `json:"rr_hot"`
	RRCold     int     `json:"rr_cold"`
	Migrations int     `json:"migrations"`
}

func (r *READ) saveState() readState {
	return readState{
		Theta:      r.theta,
		HotCount:   r.hotCount,
		Popular:    r.sortedPopular(),
		RRHot:      r.rrHot,
		RRCold:     r.rrCold,
		Migrations: r.migrations,
	}
}

func (r *READ) loadState(st readState) {
	r.theta = st.Theta
	r.hotCount = st.HotCount
	popular := make(map[int]bool, len(st.Popular))
	for _, id := range st.Popular {
		popular[id] = true
	}
	r.setPopular(popular)
	r.rrHot = st.RRHot
	r.rrCold = st.RRCold
	r.migrations = st.Migrations
}

// SaveState implements array.CheckpointablePolicy.
func (r *READ) SaveState() ([]byte, error) { return json.Marshal(r.saveState()) }

// LoadState implements array.CheckpointablePolicy.
func (r *READ) LoadState(data []byte) error {
	var st readState
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("policy: read state: %w", err)
	}
	r.loadState(st)
	return nil
}

var _ array.CheckpointablePolicy = (*READ)(nil)

// --- MAID ---

type maidCacheEntry struct {
	FileID    int     `json:"file_id"`
	CacheDisk int     `json:"cache_disk"`
	SizeMB    float64 `json:"size_mb"`
}

type maidState struct {
	CacheDisks int       `json:"cache_disks"`
	CapPerMB   float64   `json:"cap_per_mb"`
	UsedMB     []float64 `json:"used_mb"`
	NextCD     int       `json:"next_cd"`
	// LRU lists the cache contents most-recent first.
	LRU     []maidCacheEntry `json:"lru,omitempty"`
	Copying map[int]int      `json:"copying,omitempty"`
	Copies  int              `json:"copies"`
	Hits    int              `json:"hits"`
	Misses  int              `json:"misses"`
}

// SaveState implements array.CheckpointablePolicy.
func (m *MAID) SaveState() ([]byte, error) {
	st := maidState{
		CacheDisks: m.cacheDisks,
		CapPerMB:   m.capPerMB,
		UsedMB:     append([]float64(nil), m.usedMB...),
		NextCD:     m.nextCD,
		Copying:    m.copying,
		Copies:     m.copies,
		Hits:       m.hits,
		Misses:     m.misses,
	}
	if m.lru != nil {
		for el := m.lru.Front(); el != nil; el = el.Next() {
			e := el.Value.(cacheEntry)
			st.LRU = append(st.LRU, maidCacheEntry{
				FileID: e.fileID, CacheDisk: e.cacheDisk, SizeMB: e.sizeMB,
			})
		}
	}
	return json.Marshal(st)
}

// LoadState implements array.CheckpointablePolicy. It overwrites the
// Init-derived cache geometry too (cache-disk count and capacity can be
// config-defaulted from the file set, which Init recomputes identically, but
// restoring them from the snapshot keeps LoadState self-contained).
func (m *MAID) LoadState(data []byte) error {
	var st maidState
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("policy: maid state: %w", err)
	}
	m.cacheDisks = st.CacheDisks
	m.capPerMB = st.CapPerMB
	m.usedMB = append([]float64(nil), st.UsedMB...)
	m.nextCD = st.NextCD
	m.copying = st.Copying
	if m.copying == nil {
		m.copying = make(map[int]int)
	}
	m.copies = st.Copies
	m.hits = st.Hits
	m.misses = st.Misses
	m.entries = make(map[int]*list.Element, len(st.LRU))
	m.lru = list.New()
	for _, e := range st.LRU {
		el := m.lru.PushBack(cacheEntry{fileID: e.FileID, cacheDisk: e.CacheDisk, sizeMB: e.SizeMB})
		m.entries[e.FileID] = el
	}
	return nil
}

var _ array.CheckpointablePolicy = (*MAID)(nil)

// --- PDC ---

type pdcState struct {
	Migrations int `json:"migrations"`
}

// SaveState implements array.CheckpointablePolicy.
func (p *PDC) SaveState() ([]byte, error) {
	return json.Marshal(pdcState{Migrations: p.migrations})
}

// LoadState implements array.CheckpointablePolicy.
func (p *PDC) LoadState(data []byte) error {
	var st pdcState
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("policy: pdc state: %w", err)
	}
	p.migrations = st.Migrations
	return nil
}

var _ array.CheckpointablePolicy = (*PDC)(nil)

// --- AlwaysOn / DRPM (stateless) ---

// SaveState implements array.CheckpointablePolicy.
func (*AlwaysOn) SaveState() ([]byte, error) { return []byte("{}"), nil }

// LoadState implements array.CheckpointablePolicy.
func (*AlwaysOn) LoadState([]byte) error { return nil }

var _ array.CheckpointablePolicy = (*AlwaysOn)(nil)

// SaveState implements array.CheckpointablePolicy.
func (*DRPM) SaveState() ([]byte, error) { return []byte("{}"), nil }

// LoadState implements array.CheckpointablePolicy.
func (*DRPM) LoadState([]byte) error { return nil }

var _ array.CheckpointablePolicy = (*DRPM)(nil)

// --- READReplica ---

type readReplicaState struct {
	READ readState `json:"read"`
	// ReplicaBudgetMB is Init-derived (sized from drive capacity when the
	// config leaves it zero), so it must ride along.
	ReplicaBudgetMB float64         `json:"replica_budget_mb"`
	Replica         map[int]int     `json:"replica,omitempty"`
	ReplMB          map[int]float64 `json:"repl_mb,omitempty"`
	Copying         map[int]int     `json:"copying,omitempty"`
	ReplicasMade    int             `json:"replicas_made"`
	ReplicasDropped int             `json:"replicas_dropped"`
}

// SaveState implements array.CheckpointablePolicy.
func (r *READReplica) SaveState() ([]byte, error) {
	return json.Marshal(readReplicaState{
		READ:            r.READ.saveState(),
		ReplicaBudgetMB: r.cfg.ReplicaBudgetMB,
		Replica:         r.replica,
		ReplMB:          r.replMB,
		Copying:         r.copying,
		ReplicasMade:    r.replicasMade,
		ReplicasDropped: r.replicasDropped,
	})
}

// LoadState implements array.CheckpointablePolicy.
func (r *READReplica) LoadState(data []byte) error {
	var st readReplicaState
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("policy: read-replica state: %w", err)
	}
	r.READ.loadState(st.READ)
	r.cfg.ReplicaBudgetMB = st.ReplicaBudgetMB
	r.replica = st.Replica
	if r.replica == nil {
		r.replica = make(map[int]int)
	}
	r.replMB = st.ReplMB
	if r.replMB == nil {
		r.replMB = make(map[int]float64)
	}
	r.copying = st.Copying
	if r.copying == nil {
		r.copying = make(map[int]int)
	}
	r.replicasMade = st.ReplicasMade
	r.replicasDropped = st.ReplicasDropped
	return nil
}

var _ array.CheckpointablePolicy = (*READReplica)(nil)

// --- StripedAlwaysOn ---

type stripedState struct {
	Stripes map[int][]int `json:"stripes,omitempty"`
}

// SaveState implements array.CheckpointablePolicy.
func (p *StripedAlwaysOn) SaveState() ([]byte, error) {
	return json.Marshal(stripedState{Stripes: p.stripes})
}

// LoadState implements array.CheckpointablePolicy.
func (p *StripedAlwaysOn) LoadState(data []byte) error {
	var st stripedState
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("policy: striped state: %w", err)
	}
	p.stripes = st.Stripes
	if p.stripes == nil {
		p.stripes = make(map[int][]int)
	}
	return nil
}

var _ array.CheckpointablePolicy = (*StripedAlwaysOn)(nil)

// sortedKeys returns the map's keys in ascending order. Policies iterate
// their maps through it whenever the loop body touches shared state, so map
// iteration order can never leak into simulation results.
func sortedKeys[V any](m map[int]V) []int {
	if len(m) == 0 {
		return nil
	}
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

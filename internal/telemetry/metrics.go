// Package telemetry is the simulator's observability layer: a lightweight
// metrics registry (counters, gauges, fixed-bucket histograms), per-disk
// time-series export (NDJSON and CSV), a Chrome trace_event writer for the
// DES event stream, the policy decision log, and the lock-free live views
// the ops plane and the -progress log line read.
//
// The package is built around one invariant: instrumentation must cost
// nothing when it is off. Every handle type (*Counter, *Gauge, *Histogram,
// *Recorder, *Live) treats the nil pointer as a fully valid no-op sink —
// a hot path updates its pre-bound handles unconditionally and pays exactly
// one nil check and zero allocations per update when telemetry is disabled.
// Telemetry is also observationally pure: it only reads simulation state
// through snapshot accessors and never schedules events, so enabling it
// cannot change simulation results.
package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// Counter is a monotonically increasing event count. The zero value is ready
// to use; a nil *Counter is a valid no-op sink.
type Counter struct {
	name string
	v    uint64
}

// Inc adds one to the counter. It is a no-op on a nil receiver.
func (c *Counter) Inc() {
	if c != nil {
		c.v++
	}
}

// Add adds n to the counter. It is a no-op on a nil receiver.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v += n
	}
}

// Value returns the current count (0 for a nil receiver).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Gauge is a last-value-wins instantaneous measurement. A nil *Gauge is a
// valid no-op sink.
type Gauge struct {
	name string
	v    float64
}

// Set records the gauge's current value. It is a no-op on a nil receiver.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.v = v
	}
}

// Value returns the last value set (0 for a nil receiver).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return g.v
}

// Histogram is a fixed-bucket distribution. Bucket i counts observations
// v <= Bounds[i]; one implicit overflow bucket counts the rest. Fixed bounds
// keep Observe allocation-free and O(log buckets). A nil *Histogram is a
// valid no-op sink.
type Histogram struct {
	name   string
	bounds []float64 // strictly increasing upper bounds
	counts []uint64  // len(bounds)+1; last is the overflow bucket
	count  uint64
	sum    float64
	min    float64
	max    float64
}

// Observe records one value. It is a no-op on a nil receiver.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Binary search for the first bound >= v.
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if h.bounds[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	h.counts[lo]++
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
}

// Count returns the number of observations (0 for a nil receiver).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count
}

// Sum returns the sum of all observations (0 for a nil receiver).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum
}

// Mean returns the mean observation (0 when empty or nil).
func (h *Histogram) Mean() float64 {
	if h == nil || h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Max returns the largest observation (0 when empty or nil).
func (h *Histogram) Max() float64 {
	if h == nil || h.count == 0 {
		return 0
	}
	return h.max
}

// Quantile estimates the q-th quantile (q in [0,1]) by linear interpolation
// within the bucket holding the target rank. The first bucket's lower edge is
// the observed minimum and the overflow bucket's upper edge the observed
// maximum, so estimates never leave the observed range; q <= 0 returns the
// minimum and q >= 1 the maximum exactly. Empty and nil histograms return 0.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil || h.count == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	target := q * float64(h.count)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if next >= target {
			lo, hi := h.bucketEdges(i)
			v := lo + (hi-lo)*(target-cum)/float64(c)
			return math.Max(h.min, math.Min(h.max, v))
		}
		cum = next
	}
	return h.max
}

// bucketEdges returns bucket i's value range, clamped to the observed
// min/max at the two open ends.
func (h *Histogram) bucketEdges(i int) (lo, hi float64) {
	switch {
	case i == 0:
		return h.min, math.Max(h.min, math.Min(h.bounds[0], h.max))
	case i == len(h.bounds):
		return math.Max(h.bounds[i-1], h.min), h.max
	default:
		return math.Max(h.bounds[i-1], h.min), math.Min(h.bounds[i], h.max)
	}
}

// LatencyBounds returns the fixed bucket bounds used for response-time
// histograms: a 1-2.5-5 decade ladder from 100 µs to 100 s.
func LatencyBounds() []float64 {
	return []float64{
		1e-4, 2.5e-4, 5e-4,
		1e-3, 2.5e-3, 5e-3,
		1e-2, 2.5e-2, 5e-2,
		1e-1, 2.5e-1, 5e-1,
		1, 2.5, 5, 10, 25, 50, 100,
	}
}

// QueueDepthBounds returns the fixed bucket bounds used for queue-depth
// histograms: 0 plus powers of two up to 16384.
func QueueDepthBounds() []float64 {
	return []float64{0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096, 16384}
}

// Registry holds named metrics. Look up a handle once outside the hot loop
// and update it directly; lookups on a nil *Registry return nil handles, so
// the same binding code serves both enabled and disabled telemetry.
//
// A Registry is not goroutine-safe: the simulator is single-threaded and
// parallel sweep cells each get their own registry.
type Registry struct {
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use. A nil
// registry returns a nil (no-op) handle.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	if c, ok := r.counters[name]; ok {
		return c
	}
	c := &Counter{name: name}
	r.counters[name] = c
	return c
}

// Gauge returns the named gauge, creating it on first use. A nil registry
// returns a nil (no-op) handle.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	if g, ok := r.gauges[name]; ok {
		return g
	}
	g := &Gauge{name: name}
	r.gauges[name] = g
	return g
}

// Histogram returns the named histogram, creating it with the given bounds
// on first use. Bounds must be strictly increasing; they are ignored when
// the histogram already exists. A nil registry returns a nil (no-op) handle.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	if h, ok := r.hists[name]; ok {
		return h
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("telemetry: histogram %q bounds not strictly increasing at %d", name, i))
		}
	}
	h := &Histogram{
		name:   name,
		bounds: append([]float64(nil), bounds...),
		counts: make([]uint64, len(bounds)+1),
	}
	r.hists[name] = h
	return h
}

// histogramJSON is the dump schema of one histogram: counts[i] pairs with
// bounds[i]; the final extra count is the overflow bucket. P50/P95/P99/P999
// are interpolated quantile estimates (see Histogram.Quantile); Max is the
// exact observed maximum.
type histogramJSON struct {
	Count  uint64    `json:"count"`
	Sum    float64   `json:"sum"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	P50    float64   `json:"p50"`
	P95    float64   `json:"p95"`
	P99    float64   `json:"p99"`
	P999   float64   `json:"p999"`
	Bounds []float64 `json:"bounds"`
	Counts []uint64  `json:"counts"`
}

// WriteJSON dumps the registry as a single indented JSON object with
// deterministic (sorted) key order. A nil registry writes an empty object.
func (r *Registry) WriteJSON(w io.Writer) error {
	doc := struct {
		Counters   map[string]uint64        `json:"counters"`
		Gauges     map[string]float64       `json:"gauges"`
		Histograms map[string]histogramJSON `json:"histograms"`
	}{
		Counters:   map[string]uint64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]histogramJSON{},
	}
	if r != nil {
		for name, c := range r.counters {
			doc.Counters[name] = c.v
		}
		for name, g := range r.gauges {
			doc.Gauges[name] = g.v
		}
		for _, name := range sortedKeys(r.hists) {
			h := r.hists[name]
			doc.Histograms[name] = histogramJSON{
				Count:  h.count,
				Sum:    h.sum,
				Min:    h.min,
				Max:    h.max,
				P50:    h.Quantile(0.50),
				P95:    h.Quantile(0.95),
				P99:    h.Quantile(0.99),
				P999:   h.Quantile(0.999),
				Bounds: h.bounds,
				Counts: h.counts,
			}
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc) // encoding/json sorts map keys
}

// HistogramState is the serializable form of one fixed-bucket histogram.
type HistogramState struct {
	Bounds []float64 `json:"bounds"`
	Counts []uint64  `json:"counts"`
	Count  uint64    `json:"count"`
	Sum    float64   `json:"sum"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
}

// RegistryState is the serializable form of a Registry, for checkpointing.
//
//simlint:checkpoint-for Registry alias=hists:Histograms
type RegistryState struct {
	Counters   map[string]uint64         `json:"counters,omitempty"`
	Gauges     map[string]float64        `json:"gauges,omitempty"`
	Histograms map[string]HistogramState `json:"histograms,omitempty"`
}

// State exports every registered metric's current value. A nil registry
// exports nil.
func (r *Registry) State() *RegistryState {
	if r == nil {
		return nil
	}
	st := &RegistryState{
		Counters:   make(map[string]uint64, len(r.counters)),
		Gauges:     make(map[string]float64, len(r.gauges)),
		Histograms: make(map[string]HistogramState, len(r.hists)),
	}
	for name, c := range r.counters {
		st.Counters[name] = c.v
	}
	for name, g := range r.gauges {
		st.Gauges[name] = g.v
	}
	for _, name := range sortedKeys(r.hists) {
		h := r.hists[name]
		st.Histograms[name] = HistogramState{
			Bounds: append([]float64(nil), h.bounds...),
			Counts: append([]uint64(nil), h.counts...),
			Count:  h.count,
			Sum:    h.sum,
			Min:    h.min,
			Max:    h.max,
		}
	}
	return st
}

// SetState overwrites (or creates) every metric named in st with its saved
// value. Metrics already registered but absent from st keep their current
// values, so pre-bound handles stay valid across a restore. A nil registry
// or nil state is a no-op.
func (r *Registry) SetState(st *RegistryState) {
	if r == nil || st == nil {
		return
	}
	// Sorted order: Counter/Gauge/Histogram lazily register missing metrics,
	// so the registry's internal registration order stays deterministic.
	for _, name := range sortedKeys(st.Counters) {
		r.Counter(name).v = st.Counters[name]
	}
	for _, name := range sortedKeys(st.Gauges) {
		r.Gauge(name).v = st.Gauges[name]
	}
	for _, name := range sortedKeys(st.Histograms) {
		hs := st.Histograms[name]
		h := r.Histogram(name, hs.Bounds)
		if len(h.counts) == len(hs.Counts) {
			copy(h.counts, hs.Counts)
		}
		h.count, h.sum, h.min, h.max = hs.Count, hs.Sum, hs.Min, hs.Max
	}
}

// sortedKeys returns m's keys in ascending order. Every loop whose body has
// effects beyond writing the ranged key iterates through it, so Go's
// randomized map order can never leak into exported artifacts or registry
// state.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Names returns the sorted names of all registered metrics, for tests and
// diagnostics.
func (r *Registry) Names() []string {
	if r == nil {
		return nil
	}
	var names []string
	for n := range r.counters {
		names = append(names, n)
	}
	for n := range r.gauges {
		names = append(names, n)
	}
	for n := range r.hists {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

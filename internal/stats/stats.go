// Package stats provides the small set of streaming statistics the
// simulator needs: Welford moments, a log-bucketed histogram for latency
// quantiles without retaining samples, and a time-weighted mean for
// piecewise-constant signals.
package stats

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sync"

	"repro/internal/checkpoint"
)

// Stream accumulates count, mean, variance (Welford), min, max, and sum in
// O(1) space. The zero value is ready to use.
type Stream struct {
	n    uint64
	mean float64
	m2   float64
	min  float64
	max  float64
	sum  float64
}

// Add records one observation.
func (s *Stream) Add(x float64) {
	s.n++
	if s.n == 1 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	s.sum += x
	delta := x - s.mean
	s.mean += delta / float64(s.n)
	s.m2 += delta * (x - s.mean)
}

// N returns the observation count.
func (s *Stream) N() uint64 { return s.n }

// Mean returns the sample mean (0 when empty).
func (s *Stream) Mean() float64 { return s.mean }

// Sum returns the sum of observations.
func (s *Stream) Sum() float64 { return s.sum }

// Min returns the smallest observation (0 when empty).
func (s *Stream) Min() float64 { return s.min }

// Max returns the largest observation (0 when empty).
func (s *Stream) Max() float64 { return s.max }

// Variance returns the unbiased sample variance (0 for fewer than two
// observations).
func (s *Stream) Variance() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// StdDev returns the unbiased sample standard deviation.
func (s *Stream) StdDev() float64 { return math.Sqrt(s.Variance()) }

// Merge folds other into s (parallel-reduction form of Welford).
func (s *Stream) Merge(other *Stream) {
	if other.n == 0 {
		return
	}
	if s.n == 0 {
		*s = *other
		return
	}
	n1, n2 := float64(s.n), float64(other.n)
	delta := other.mean - s.mean
	total := n1 + n2
	s.mean += delta * n2 / total
	s.m2 += other.m2 + delta*delta*n1*n2/total
	s.n += other.n
	s.sum += other.sum
	if other.min < s.min {
		s.min = other.min
	}
	if other.max > s.max {
		s.max = other.max
	}
}

// LatencyHistogram is a logarithmically bucketed histogram for positive
// durations, supporting approximate quantiles with bounded relative error
// set by the buckets-per-decade resolution.
//
// A value x lands in bucket floor((log10 x − loExp)·perDecade), but Add
// finds that bucket without a logarithm: it reads the geometry's start table
// and makes at most one comparison against the precomputed bucket
// boundaries (see histGeometry). The histogram also keeps a cursor on the
// position of its 0.99 quantile, so P99 needs no bucket walk.
type LatencyHistogram struct {
	loExp   int // smallest representable value is 10^loExp
	perDec  int
	buckets []uint64
	under   uint64 // values below the range (including zero/negative)
	over    uint64
	n       uint64
	stream  Stream

	geo *histGeometry // shared and read-only

	// p99At is the position of the 0.99 quantile: −1 for the under-range
	// count, 0..len(buckets)−1 for a bucket, len(buckets) for over-range.
	// p99Cum is the number of values at or below that position. Both are
	// derived from the counts and recomputed by SetState.
	p99At  int
	p99Cum uint64
}

// NewLatencyHistogram covers [10^loExp, 10^hiExp) with perDecade buckets per
// decade. For response times, NewLatencyHistogram(-6, 4, 50) spans 1 µs to
// 10,000 s with <5% relative quantile error.
func NewLatencyHistogram(loExp, hiExp, perDecade int) (*LatencyHistogram, error) {
	if hiExp <= loExp {
		return nil, errors.New("stats: histogram range empty")
	}
	if perDecade < 1 {
		return nil, errors.New("stats: need at least one bucket per decade")
	}
	decades := hiExp - loExp
	return &LatencyHistogram{
		loExp:   loExp,
		perDec:  perDecade,
		buckets: make([]uint64, decades*perDecade),
		geo:     geometryFor(loExp, perDecade, decades*perDecade),
		p99At:   -1,
	}, nil
}

// Add records a duration.
//
//simlint:hotpath
func (h *LatencyHistogram) Add(x float64) {
	h.n++
	h.stream.Add(x)
	pos := h.geo.position(x)
	*h.counter(pos)++
	if pos <= h.p99At {
		h.p99Cum++
	}
	target := quantileTarget(0.99, h.n)
	for h.p99Cum < target {
		h.p99At++
		h.p99Cum += *h.counter(h.p99At)
	}
	if pos < h.p99At {
		// The value landed below the cursor, so the positions under it may
		// now hold the target rank.
		for h.p99At >= 0 && h.p99Cum-*h.counter(h.p99At) >= target {
			h.p99Cum -= *h.counter(h.p99At)
			h.p99At--
		}
	}
}

// counter returns the count of values at position pos (see p99At).
func (h *LatencyHistogram) counter(pos int) *uint64 {
	switch {
	case pos < 0:
		return &h.under
	case pos >= len(h.buckets):
		return &h.over
	}
	return &h.buckets[pos]
}

// quantileTarget is the rank of the q-th quantile among n values: the
// smallest rank whose cumulative share reaches q, and at least 1.
func quantileTarget(q float64, n uint64) uint64 {
	target := uint64(math.Ceil(q * float64(n)))
	if target == 0 {
		target = 1
	}
	return target
}

// N returns the number of recorded durations.
func (h *LatencyHistogram) N() uint64 { return h.n }

// Mean returns the exact mean of recorded durations.
func (h *LatencyHistogram) Mean() float64 { return h.stream.Mean() }

// Max returns the exact maximum recorded duration.
func (h *LatencyHistogram) Max() float64 { return h.stream.Max() }

// Quantile returns an approximation of the q-th quantile (q in [0,1]).
// Under- and over-range mass is attributed to the range edges.
func (h *LatencyHistogram) Quantile(q float64) (float64, error) {
	if q < 0 || q > 1 || math.IsNaN(q) {
		return 0, fmt.Errorf("stats: quantile %v outside [0,1]", q)
	}
	if h.n == 0 {
		return 0, errors.New("stats: empty histogram")
	}
	target := quantileTarget(q, h.n)
	var cum uint64 = h.under
	if cum >= target {
		return h.geo.edges[0], nil
	}
	for i, c := range h.buckets {
		cum += c
		if cum >= target {
			// Upper edge of bucket i.
			return h.geo.edges[i+1], nil
		}
	}
	// Remaining mass is over-range.
	return h.geo.edges[len(h.buckets)], nil
}

// P99 returns Quantile(0.99), bit for bit, from the cursor Add maintains
// instead of a walk over the buckets.
func (h *LatencyHistogram) P99() (float64, error) {
	if h.n == 0 {
		return 0, errors.New("stats: empty histogram")
	}
	// Over-range mass reports the range ceiling, as the last bucket does.
	return h.geo.edges[min(h.p99At+1, len(h.buckets))], nil
}

// histGeometry holds the lookup tables of one histogram geometry (loExp,
// perDecade, bucket count). The tables are a pure function of the geometry,
// built once per process by geometryFor and never mutated, so histograms
// share them and a run allocates none.
type histGeometry struct {
	buckets int
	// bounds[i] is the smallest float64 whose logBucket is at least i, for
	// i in 0..buckets: values below bounds[0] are under-range, values from
	// bounds[buckets] up are over-range.
	bounds []float64
	// start maps a value's cell — its exponent and top mantissa bits, the
	// float64 bits shifted right by shift — to the position of the cell's
	// lowest value, offset by keyLo. Every cell holds at most one boundary,
	// so a lookup is one read of start and at most one comparison.
	start []int32
	keyLo uint64
	shift uint
	// edges[j] is 10^(loExp + j/perDec), the upper edge of position j−1
	// that Quantile reports.
	edges []float64
}

type geometryKey struct{ loExp, perDec, buckets int }

// geometries memoizes histGeometry by geometry. Histograms of one geometry
// are built concurrently by parallel sweep cells, hence the lock.
var geometries = struct {
	sync.Mutex
	m map[geometryKey]*histGeometry
}{m: make(map[geometryKey]*histGeometry)}

// geometryFor returns the shared lookup tables for a geometry.
func geometryFor(loExp, perDec, buckets int) *histGeometry {
	key := geometryKey{loExp, perDec, buckets}
	geometries.Lock()
	defer geometries.Unlock()
	g := geometries.m[key]
	if g == nil {
		g = newHistGeometry(loExp, perDec, buckets)
		geometries.m[key] = g
	}
	return g
}

// logBucket is the bucket definition the tables implement:
// floor((log10 x − loExp)·perDec), with −1 for a value below the range
// (zero, negative and NaN included) and buckets for one above it. +Inf is
// above the range; the formula alone would convert an infinite floor to
// int, which Go leaves to the platform (amd64 yields a negative number).
func logBucket(x float64, loExp, perDec, buckets int) int {
	if x <= 0 || math.IsNaN(x) {
		return -1
	}
	if math.IsInf(x, 1) {
		return buckets
	}
	idx := int(math.Floor((math.Log10(x) - float64(loExp)) * float64(perDec)))
	switch {
	case idx < 0:
		return -1
	case idx > buckets:
		return buckets
	}
	return idx
}

func newHistGeometry(loExp, perDec, buckets int) *histGeometry {
	g := &histGeometry{
		buckets: buckets,
		bounds:  make([]float64, buckets+1),
		edges:   make([]float64, buckets+1),
	}
	for i := range g.bounds {
		exp := float64(loExp) + float64(i)/float64(perDec)
		g.edges[i] = math.Pow(10, exp)
		// Nudge the analytic edge one ulp at a time until the formula flips.
		b := g.edges[i]
		for logBucket(b, loExp, perDec, buckets) >= i {
			b = math.Nextafter(b, 0)
		}
		for logBucket(b, loExp, perDec, buckets) < i {
			b = math.Nextafter(b, math.Inf(1))
		}
		g.bounds[i] = b
	}
	// Start from 6 mantissa bits (64 cells per octave) and refine until no
	// cell holds two boundaries; that takes more bits only above about 212
	// buckets per decade.
	g.shift = 52 - 6
	for g.shift > 0 && !g.oneBoundPerCell() {
		g.shift--
	}
	g.keyLo = math.Float64bits(g.bounds[0]) >> g.shift
	keyHi := math.Float64bits(g.bounds[buckets]) >> g.shift
	g.start = make([]int32, keyHi-g.keyLo+1)
	pos := 0
	for k := range g.start {
		low := math.Float64frombits((g.keyLo + uint64(k)) << g.shift)
		for pos < buckets && g.bounds[pos+1] <= low {
			pos++
		}
		g.start[k] = int32(pos)
	}
	return g
}

// oneBoundPerCell reports whether consecutive boundaries always fall in
// different cells at the current shift.
func (g *histGeometry) oneBoundPerCell() bool {
	for i := 1; i < len(g.bounds); i++ {
		if math.Float64bits(g.bounds[i-1])>>g.shift == math.Float64bits(g.bounds[i])>>g.shift {
			return false
		}
	}
	return true
}

// position returns logBucket(x) from the tables.
func (g *histGeometry) position(x float64) int {
	if !(x >= g.bounds[0]) { // NaN fails every comparison
		return -1
	}
	if x >= g.bounds[g.buckets] {
		return g.buckets
	}
	pos := int(g.start[math.Float64bits(x)>>g.shift-g.keyLo])
	if x >= g.bounds[pos+1] {
		pos++
	}
	return pos
}

// StreamState is the serializable form of a Stream, for checkpointing.
//
//simlint:checkpoint-for Stream
type StreamState struct {
	N    uint64  `json:"n"`
	Mean float64 `json:"mean"`
	M2   float64 `json:"m2"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
	Sum  float64 `json:"sum"`
}

// State exports the stream's raw accumulators.
func (s *Stream) State() StreamState {
	return StreamState{N: s.n, Mean: s.mean, M2: s.m2, Min: s.min, Max: s.max, Sum: s.sum}
}

// WriteJSON appends st as encoding/json encodes it.
func (st *StreamState) WriteJSON(w *checkpoint.Writer) {
	w.Raw(`{"n":`)
	w.Uint(st.N)
	w.Raw(`,"mean":`)
	w.Float(st.Mean)
	w.Raw(`,"m2":`)
	w.Float(st.M2)
	w.Raw(`,"min":`)
	w.Float(st.Min)
	w.Raw(`,"max":`)
	w.Float(st.Max)
	w.Raw(`,"sum":`)
	w.Float(st.Sum)
	w.Raw(`}`)
}

// SetState overwrites the stream with previously exported accumulators.
func (s *Stream) SetState(st StreamState) {
	s.n, s.mean, s.m2, s.min, s.max, s.sum = st.N, st.Mean, st.M2, st.Min, st.Max, st.Sum
}

// LatencyHistogramState is the serializable form of a LatencyHistogram. The
// bucket geometry (loExp, perDec, bucket count) is included so a restore
// into a histogram with different resolution fails loudly.
//
// The lookup tables (geo) and the p99 cursor are not serialized: the tables
// are rebuilt from the geometry and the cursor from the counts.
//
//simlint:checkpoint-for LatencyHistogram ignore=geo,p99At,p99Cum
type LatencyHistogramState struct {
	LoExp   int         `json:"lo_exp"`
	PerDec  int         `json:"per_dec"`
	Buckets []uint64    `json:"buckets"`
	Under   uint64      `json:"under"`
	Over    uint64      `json:"over"`
	N       uint64      `json:"n"`
	Stream  StreamState `json:"stream"`
}

// WriteJSON appends st as encoding/json encodes it.
func (st *LatencyHistogramState) WriteJSON(w *checkpoint.Writer) {
	w.Raw(`{"lo_exp":`)
	w.Int(st.LoExp)
	w.Raw(`,"per_dec":`)
	w.Int(st.PerDec)
	w.Raw(`,"buckets":`)
	w.Uints(st.Buckets)
	w.Raw(`,"under":`)
	w.Uint(st.Under)
	w.Raw(`,"over":`)
	w.Uint(st.Over)
	w.Raw(`,"n":`)
	w.Uint(st.N)
	w.Raw(`,"stream":`)
	st.Stream.WriteJSON(w)
	w.Raw(`}`)
}

// State exports the histogram's raw counters.
func (h *LatencyHistogram) State() LatencyHistogramState {
	return LatencyHistogramState{
		LoExp:   h.loExp,
		PerDec:  h.perDec,
		Buckets: append([]uint64(nil), h.buckets...),
		Under:   h.under,
		Over:    h.over,
		N:       h.n,
		Stream:  h.stream.State(),
	}
}

// Validate reports whether st can be loaded into a histogram built by
// NewLatencyHistogram(loExp, hiExp, perDecade): the geometry must match, and
// the counts must add up to N without overflowing, since SetState rebuilds
// the p99 cursor by walking them.
func (st *LatencyHistogramState) Validate(loExp, hiExp, perDecade int) error {
	if st.LoExp != loExp || st.PerDec != perDecade || len(st.Buckets) != (hiExp-loExp)*perDecade {
		return fmt.Errorf("stats: histogram geometry mismatch: state (%d,%d,%d) vs receiver (%d,%d,%d)",
			st.LoExp, st.PerDec, len(st.Buckets), loExp, perDecade, (hiExp-loExp)*perDecade)
	}
	total, overflow := bits.Add64(st.Under, st.Over, 0)
	for _, c := range st.Buckets {
		var carry uint64
		total, carry = bits.Add64(total, c, 0)
		overflow |= carry
	}
	if overflow != 0 || total != st.N {
		return fmt.Errorf("stats: histogram counts do not add up to its %d values", st.N)
	}
	return nil
}

// SetState overwrites the histogram with previously exported counters. st
// must pass Validate with the receiver's geometry.
func (h *LatencyHistogram) SetState(st LatencyHistogramState) {
	copy(h.buckets, st.Buckets)
	h.under, h.over, h.n = st.Under, st.Over, st.N
	h.stream.SetState(st.Stream)
	h.p99At, h.p99Cum = -1, h.under
	if h.n > 0 {
		for target := quantileTarget(0.99, h.n); h.p99Cum < target; {
			h.p99At++
			h.p99Cum += *h.counter(h.p99At)
		}
	}
}

// TimeWeighted tracks the time-weighted mean of a piecewise-constant signal
// observed from time zero.
type TimeWeighted struct {
	last     float64
	value    float64
	integral float64
	started  bool
}

// Set records that the signal takes value v from time now onward. Times must
// be non-decreasing.
func (tw *TimeWeighted) Set(now, v float64) error {
	if !tw.started {
		if now < 0 {
			return fmt.Errorf("stats: negative start time %v", now)
		}
		// Signal assumed to hold its first value from t=0.
		tw.integral += tw.value * now
		tw.started = true
	} else if now < tw.last {
		return fmt.Errorf("stats: time moved backwards: %v -> %v", tw.last, now)
	} else {
		tw.integral += tw.value * (now - tw.last)
	}
	tw.last = now
	tw.value = v
	return nil
}

// Mean returns the time-weighted mean over [0, now].
func (tw *TimeWeighted) Mean(now float64) (float64, error) {
	if now < tw.last {
		return 0, fmt.Errorf("stats: time moved backwards: %v -> %v", tw.last, now)
	}
	if now <= 0 {
		return tw.value, nil
	}
	total := tw.integral + tw.value*(now-tw.last)
	return total / now, nil
}

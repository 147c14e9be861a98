package stats

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

// testGeometries are the histogram geometries the simulator uses (-6,5,50),
// the ones other tests use, and a resolution fine enough (500 per decade)
// that the start table needs more than 6 mantissa bits.
var testGeometries = []struct{ lo, hi, per int }{
	{-6, 5, 50},
	{-6, 4, 50},
	{-6, 4, 30},
	{-3, 1, 10},
	{0, 2, 1},
	{-2, 1, 500},
}

// TestHistogramPositionMatchesLogFormula proves, by enumeration, that the
// table lookup puts every value where floor((log10 x − lo)·perDecade) does.
// The lookup is a step function of x by construction, and the formula is
// one up to Log10's rounding, a few ulps wide, so the two can only disagree
// next to a step: every step is checked at −2..+2 ulp, together with the
// special values and the range edges.
func TestHistogramPositionMatchesLogFormula(t *testing.T) {
	for _, geo := range testGeometries {
		h, err := NewLatencyHistogram(geo.lo, geo.hi, geo.per)
		if err != nil {
			t.Fatal(err)
		}
		g, n := h.geo, len(h.buckets)
		check := func(x float64) {
			t.Helper()
			if got, want := g.position(x), logBucket(x, geo.lo, geo.per, n); got != want {
				t.Fatalf("geometry %v: position(%v) = %d, log formula says %d", geo, x, got, want)
			}
		}
		for i, b := range g.bounds {
			check(b)
			lo, hi := b, b
			for k := 0; k < 2; k++ {
				lo = math.Nextafter(lo, 0)
				hi = math.Nextafter(hi, math.Inf(1))
				check(lo)
				check(hi)
			}
			// b is the first value of position i: its predecessor is not.
			if logBucket(b, geo.lo, geo.per, n) < i || logBucket(math.Nextafter(b, 0), geo.lo, geo.per, n) >= i {
				t.Fatalf("geometry %v: bounds[%d] = %v is not the first value of position %d", geo, i, b, i)
			}
		}
		for _, x := range []float64{
			0, math.Copysign(0, -1), -1, -math.MaxFloat64, math.Inf(-1), math.NaN(), math.Inf(1),
			math.SmallestNonzeroFloat64, math.MaxFloat64,
			math.Pow(10, float64(geo.lo)), math.Pow(10, float64(geo.hi)),
		} {
			check(x)
		}
		if g.position(math.Inf(1)) != n || g.position(math.NaN()) != -1 || g.position(-1) != -1 {
			t.Fatalf("geometry %v: special values misplaced", geo)
		}
	}
}

// TestHistogramP99CursorMatchesWalk feeds seeded streams to the histogram
// and checks after every Add that the cursor's p99 is Quantile(0.99)'s
// walk, bit for bit. The first stream mixes under- and over-range values,
// NaN and a drifting lognormal. The second keeps the 0.99 quantile on the
// boundary between two adjacent buckets, so the cursor steps back and
// forth across it, including the steps back when the target rank stays put.
func TestHistogramP99CursorMatchesWalk(t *testing.T) {
	streams := map[string]func(rng *rand.Rand, i int) float64{
		"mixed": func(rng *rand.Rand, i int) float64 {
			switch r := rng.Float64(); {
			case r < 0.03:
				return -rng.Float64() // under-range: negative
			case r < 0.05:
				return 1e-6 * rng.Float64() // under-range: too small
			case r < 0.07:
				return 10 + 100*rng.Float64() // over-range
			case r < 0.08:
				return math.NaN()
			}
			// Lognormal around 10 ms, with a slowly drifting median so the
			// cursor moves both ways.
			return math.Exp(math.Log(0.01) + math.Sin(float64(i)/2000) + rng.NormFloat64())
		},
		"boundary": func(rng *rand.Rand, _ int) float64 {
			if rng.Float64() < 0.01 {
				return 0.0135 // bucket [10^-1.9, 10^-1.8)
			}
			return 0.0105 // the bucket below it
		},
	}
	for name, next := range streams {
		h, err := NewLatencyHistogram(-3, 1, 10)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := h.P99(); err == nil {
			t.Fatal("p99 of an empty histogram accepted")
		}
		rng := rand.New(rand.NewSource(17))
		for i := 0; i < 20000; i++ {
			h.Add(next(rng, i))
			want, err := h.Quantile(0.99)
			if err != nil {
				t.Fatal(err)
			}
			got, err := h.P99()
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: after %d adds: cursor p99 %v, walk %v", name, i+1, got, want)
			}
		}
		// The cursor survives a state round trip.
		r, _ := NewLatencyHistogram(-3, 1, 10)
		st := h.State()
		if err := st.Validate(-3, 1, 10); err != nil {
			t.Fatal(err)
		}
		r.SetState(st)
		got, _ := r.P99()
		want, _ := h.P99()
		if got != want || r.p99At != h.p99At || r.p99Cum != h.p99Cum {
			t.Fatalf("%s: restored cursor (%d,%d,%v), want (%d,%d,%v)", name, r.p99At, r.p99Cum, got, h.p99At, h.p99Cum, want)
		}
	}
}

func TestHistogramSetStateRejectsInconsistentCounts(t *testing.T) {
	h, _ := NewLatencyHistogram(-3, 1, 10)
	h.Add(0.01)
	h.Add(5)
	st := h.State()
	st.N++
	if err := st.Validate(-3, 1, 10); err == nil {
		t.Fatal("state whose counts do not add up to N accepted")
	}
	st = h.State()
	st.Buckets[0] = math.MaxUint64
	st.N = st.N - 1 // the wrapped sum
	if err := st.Validate(-3, 1, 10); err == nil {
		t.Fatal("state whose counts overflow accepted")
	}
}

// TestHistogramGeometryShared builds histograms of one geometry from
// several goroutines at once, as parallel sweep cells do: they must all
// share one set of tables.
func TestHistogramGeometryShared(t *testing.T) {
	geos := make([]*histGeometry, 8)
	var wg sync.WaitGroup
	for i := range geos {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h, err := NewLatencyHistogram(-5, 3, 40)
			if err != nil {
				t.Error(err)
				return
			}
			geos[i] = h.geo
		}()
	}
	wg.Wait()
	for _, g := range geos[1:] {
		if g != geos[0] {
			t.Fatal("histograms of one geometry built separate tables")
		}
	}
}

var sinkFloat float64

func BenchmarkLatencyHistogramAdd(b *testing.B) {
	h, _ := NewLatencyHistogram(-6, 5, 50)
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 4096)
	for i := range xs {
		xs[i] = math.Exp(math.Log(0.01) + rng.NormFloat64())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Add(xs[i&(len(xs)-1)])
	}
}

func BenchmarkLatencyHistogramP99(b *testing.B) {
	h, _ := NewLatencyHistogram(-6, 5, 50)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100000; i++ {
		h.Add(math.Exp(math.Log(0.01) + rng.NormFloat64()))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, _ := h.P99()
		sinkFloat += v
	}
}

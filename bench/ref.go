package main

import (
	"fmt"
	"math"
	"runtime"
	"time"
)

// The reference is a fixed program that gauges how fast the host runs at
// the moment. On a shared VM, other tenants slow every unit by up to 2x in
// spells that last from seconds to minutes, and no statistic over one run's
// units removes a spell that covers the whole run. So a run times the
// reference between every two units, in the same process and on the same
// processor, and rescales the units' host times to the speed at which the
// reference takes refNominalSeconds (speedFactors).
//
// The reference is a small queueing simulation of its own, with the
// simulator's mix of event-heap operations, interface calls, map lookups and
// floating point. It calls nothing in the simulator, so a change to the
// simulator cannot change it, and after its first run it allocates nothing,
// so a change to the simulator's heap cannot change its garbage collection.

// refRequests is how many requests one reference run simulates: about 50 ms
// on the baseline's host.
const refRequests = 250_000

// refNominalSeconds is the reference time host-time metrics are rescaled to:
// about one run of the reference on the host the baseline was recorded on,
// when other tenants left it alone.
const refNominalSeconds = 0.05

// refExponent is how much more the simulator slows than the reference when
// other tenants load the host: a unit timed while the reference took k times
// its nominal time ran about k^refExponent times slower. On the baseline's
// host, the log-log slope of a run's unit time on its reference time was 1.3
// to 2.6, and of the exponents from 1 to 2, 1.5 left about the smallest
// run-to-run spread; a larger one magnifies the reference's own noise
// (README.md, The reference).
const refExponent = 1.5

// speedFactors returns, for each unit timed between reference runs i and
// i+1, the factor that rescales its host times to the reference's nominal
// speed. It reads the median of the reference times nearest the unit, up to
// two on each side, so that a burst from another tenant that slows one
// reference run alone does not rescale the units beside it.
func speedFactors(refs []float64) []float64 {
	k := make([]float64, len(refs)-1)
	for i := range k {
		near := summarize("s", refs[max(0, i-1):min(len(refs), i+3)])
		k[i] = math.Pow(refNominalSeconds/near.Median, refExponent)
	}
	return k
}

const (
	refFiles = 4096
	refDisks = 10
	refSeed  = 88172645463325252
)

type refEvent struct {
	t    float64
	disk int32
	done bool
}

type refRequest struct {
	file          int32
	arrival, size float64
}

// refServer is one simulated disk; the interface call stands for the
// simulator's dispatch through policies and handlers.
type refServer interface {
	serve(s *refSim, now float64, done bool)
}

// refDisk serves its FIFO queue one request at a time.
type refDisk struct {
	id    int32
	queue []refRequest
	head  int
	busy  bool
	track float64
}

// refSim is the reference simulation. Its buffers are reused from run to
// run.
type refSim struct {
	heap    []refEvent
	disks   []refServer
	home    map[int32]int32
	rng     uint64
	latency float64
	hist    [64]int
}

func newRefSim() *refSim {
	s := &refSim{home: make(map[int32]int32, refFiles)}
	for f := int32(0); f < refFiles; f++ {
		s.home[f] = (f * 7) % refDisks
	}
	for d := int32(0); d < refDisks; d++ {
		s.disks = append(s.disks, &refDisk{id: d})
	}
	return s
}

// serve finishes the request at the head of the queue when done is set, then
// starts the next one if the disk is idle.
func (d *refDisk) serve(s *refSim, now float64, done bool) {
	if done {
		r := d.queue[d.head]
		d.head++
		if d.head == len(d.queue) {
			d.queue, d.head = d.queue[:0], 0
		}
		lat := now - r.arrival
		s.latency += lat
		s.hist[min(int(math.Log1p(lat*1000)*4), len(s.hist)-1)]++
		d.busy = false
	}
	if d.busy || d.head == len(d.queue) {
		return
	}
	r := d.queue[d.head]
	track := float64(r.file % 1024)
	seek := 0.002 + math.Abs(track-d.track)*4e-6
	d.track = track
	d.busy = true
	s.push(refEvent{t: now + seek + r.size/1e9, disk: d.id, done: true})
}

func (s *refSim) uniform() float64 {
	s.rng ^= s.rng << 13
	s.rng ^= s.rng >> 7
	s.rng ^= s.rng << 17
	return float64(s.rng>>11) / (1 << 53)
}

func (s *refSim) push(e refEvent) {
	s.heap = append(s.heap, e)
	for c := len(s.heap) - 1; c > 0; {
		p := (c - 1) / 2
		if s.heap[p].t <= s.heap[c].t {
			break
		}
		s.heap[p], s.heap[c] = s.heap[c], s.heap[p]
		c = p
	}
}

func (s *refSim) pop() refEvent {
	e := s.heap[0]
	last := len(s.heap) - 1
	s.heap[0] = s.heap[last]
	s.heap = s.heap[:last]
	for c := 0; ; {
		l := 2*c + 1
		if l >= len(s.heap) {
			break
		}
		if l+1 < len(s.heap) && s.heap[l+1].t < s.heap[l].t {
			l++
		}
		if s.heap[c].t <= s.heap[l].t {
			break
		}
		s.heap[c], s.heap[l] = s.heap[l], s.heap[c]
		c = l
	}
	return e
}

// run simulates n Poisson arrivals at the disks, each about 60% busy, and
// returns the summed latency, which depends only on n.
func (s *refSim) run(n int) float64 {
	s.heap, s.rng, s.latency, s.hist = s.heap[:0], refSeed, 0, [64]int{}
	for _, d := range s.disks {
		d := d.(*refDisk)
		d.queue, d.head, d.busy, d.track = d.queue[:0], 0, false, 0
	}
	arrivals := 0
	s.push(refEvent{})
	for len(s.heap) > 0 {
		e := s.pop()
		if e.done {
			s.disks[e.disk].serve(s, e.t, true)
			continue
		}
		if arrivals == n {
			continue
		}
		arrivals++
		f := int32(s.uniform() * refFiles)
		d := s.home[f]
		disk := s.disks[d].(*refDisk)
		disk.queue = append(disk.queue, refRequest{file: f, arrival: e.t, size: 1e6 * (1 + s.uniform())})
		s.disks[d].serve(s, e.t, false)
		s.push(refEvent{t: e.t - math.Log(1-s.uniform())*0.0008})
	}
	return s.latency
}

// reference times the reference simulation.
type reference struct {
	sim  *refSim
	want float64
}

// newReference builds the simulation and runs it once untimed, which sizes
// its buffers and records the result every later run must repeat.
func newReference() *reference {
	s := newRefSim()
	return &reference{sim: s, want: s.run(refRequests)}
}

// seconds times one run, after a full collection, so that no collection the
// last unit started is still marking while it runs.
func (r *reference) seconds() (float64, error) {
	runtime.GC()
	start := time.Now()
	got := r.sim.run(refRequests)
	d := time.Since(start).Seconds()
	if got != r.want {
		return d, fmt.Errorf("reference result %v, want %v", got, r.want)
	}
	return d, nil
}

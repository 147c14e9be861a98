// Package a exercises the sharedcapture analyzer: goroutine closures
// capturing loop variables declared outside their for statement, shared
// affine pointers, maps, captured writes, and foreign-index slice writes are
// flagged; the bounded worker pool writing only its own cell index, mediated
// telemetry/watch captures, and sync/channel captures are not.
package a

import (
	"errors"
	"sync"
	"sync/atomic"

	"des"
	"telemetry"
)

type job struct{ idx int }

type cell struct{ n int }

// workerPool is the sanctioned runner shape: fixed workers draining a jobs
// channel, each writing only the cell belonging to the job it received.
func workerPool(jobs []job) []cell {
	cells := make([]cell, len(jobs))
	ch := make(chan job)
	var wg sync.WaitGroup
	var done atomic.Int64
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range ch {
				cells[j.idx] = cell{n: j.idx} // own index: legal
				done.Add(1)
			}
		}()
	}
	for _, j := range jobs {
		ch <- j
	}
	close(ch)
	wg.Wait()
	return cells
}

// loopOutside declares the loop variable before the for statement — the one
// shape Go 1.22 per-iteration variables do not fix.
func loopOutside(jobs []job, use func(job)) {
	var wg sync.WaitGroup
	var i int
	for i = 0; i < len(jobs); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			use(jobs[i]) // want `captures loop variable i declared outside its for statement`
		}()
	}
	wg.Wait()
}

// rangeAssign ranges into a pre-declared variable: same aliasing hazard.
func rangeAssign(jobs []job, use func(job)) {
	var j job
	for _, j = range jobs {
		go func() {
			use(j) // want `captures loop variable j declared outside its for statement`
		}()
	}
}

// sharedEngine leaks one cell's engine into another goroutine.
func sharedEngine(eng *des.Engine) {
	go func() {
		eng.Step() // want `captures \*des\.Engine eng`
	}()
}

// sharedRecorder leaks a telemetry recorder across the goroutine boundary.
func sharedRecorder(rec *telemetry.Recorder) {
	go func() {
		_ = rec.Close() // want `captures \*telemetry\.Recorder rec`
	}()
}

// pool is a minimal worker-pool submission surface.
type pool struct{}

// Submit runs f on a pool worker.
func (pool) Submit(f func()) { f() }

// submitLog catches the Submit form of a goroutine launch.
func submitLog(p pool, dlog *telemetry.DecisionLog) {
	p.Submit(func() {
		_ = dlog // want `captures \*telemetry\.DecisionLog dlog`
	})
}

// manifestMap shares an index map across cells.
func manifestMap(m map[string]int) {
	go func() {
		m["k"] = 1 // want `captures map m`
	}()
}

// capturedWrite races the closure against the spawning goroutine.
func capturedWrite() error {
	var lastErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		lastErr = errors.New("boom") // want `writes to captured variable lastErr`
	}()
	wg.Wait()
	return lastErr
}

// selectorWrite mutates captured state through a field.
func selectorWrite() cell {
	var c cell
	go func() {
		c.n = 1 // want `writes through captured variable c`
	}()
	return c
}

// foreignIndex writes a captured slice at an index owned by the spawner.
func foreignIndex(cells []cell, n int) {
	go func() {
		cells[n] = cell{} // want `writes to captured slice cells at an index not derived from its own work item`
	}()
}

// mediated captures are always legal: channels, sync, atomics, the watch,
// and the mutex/seqlock telemetry types.
func mediatedCaptures(w *des.Watch, lv *telemetry.Live, tr *telemetry.SweepTracker, lg *telemetry.Logger) {
	results := make(chan uint64, 1)
	var mu sync.Mutex
	go func() {
		mu.Lock()
		defer mu.Unlock()
		lv.Tick(w.Snapshot())
		tr.CellDone("cell")
		lg.Infof("done")
		results <- w.Snapshot()
	}()
}

// waived documents a deliberate single-goroutine handoff.
func waived(eng *des.Engine) {
	go func() {
		eng.Step() //simlint:allow sharedcapture -- fixture: engine handed off before the spawner ever touches it again
	}()
}

// Package a exercises the engineaffinity analyzer: cross-goroutine method
// calls on captured engines, telemetry handles, and policy state are
// flagged; calls on state constructed inside the goroutine, mediated
// watch/live/tracker/logger reads, and reasoned affinity-exempt sites are
// not. An exempt directive without a reason is itself a finding.
package a

import (
	"des"
	"policy"
	"telemetry"
)

// crossEngine reads a captured engine from another goroutine.
func crossEngine(eng *des.Engine, out chan<- float64) {
	go func() {
		out <- eng.Now() // want `cross-goroutine call to \(des\.Engine\)\.Now on captured eng`
	}()
}

// crossHandles touches captured telemetry handles off-goroutine.
func crossHandles(rec *telemetry.Recorder, dlog *telemetry.DecisionLog) {
	go func() {
		rec.RecordDiskSample(1) // want `cross-goroutine call to \(telemetry\.Recorder\)\.RecordDiskSample on captured rec`
		dlog.Append(1)          // want `cross-goroutine call to \(telemetry\.DecisionLog\)\.Append on captured dlog`
	}()
}

// crossPolicy advances captured policy state off-goroutine.
func crossPolicy(p *policy.FPT) {
	go func() {
		p.OnEpoch() // want `cross-goroutine call to \(policy\.FPT\)\.OnEpoch on captured p`
	}()
}

// cellState reaches affine state through a captured struct.
type cellState struct {
	rec *telemetry.Recorder
}

// crossField flags calls reached through a selector chain too.
func crossField(cs *cellState) {
	go func() {
		cs.rec.RecordDiskSample(1) // want `cross-goroutine call to \(telemetry\.Recorder\)\.RecordDiskSample on captured cs`
	}()
}

// pool is a minimal worker-pool submission surface.
type pool struct{}

// Go runs f on a pool worker.
func (pool) Go(f func()) { f() }

// submitted catches the Go/Submit launch form.
func submitted(p pool, eng *des.Engine) {
	p.Go(func() {
		_ = eng.Fired() // want `cross-goroutine call to \(des\.Engine\)\.Fired on captured eng`
	})
}

// ownState constructs its state inside the goroutine: every call is on the
// constructing goroutine, so nothing is flagged.
func ownState(run func(*des.Engine) uint64) {
	go func() {
		eng := &des.Engine{}
		dlog := &telemetry.DecisionLog{}
		dlog.Append(1)
		_ = run(eng)
		_ = eng.Fired()
	}()
}

// mediatedReads go through the sanctioned cross-goroutine APIs.
func mediatedReads(w *des.Watch, lv *telemetry.Live, tr *telemetry.SweepTracker, lg *telemetry.Logger) {
	go func() {
		_ = w.Snapshot()
		_ = lv.Snapshot()
		tr.CellDone("cell")
		lg.Infof("scraped")
	}()
}

// exempted documents why its cross-goroutine read is safe.
func exempted(eng *des.Engine, out chan<- float64) {
	go func() {
		//simlint:affinity-exempt -- fixture: the engine is quiescent; Run returned before this goroutine starts
		out <- eng.Now()
	}()
}

// A directive without a reason neither suppresses nor passes silently; that
// behavior is pinned by TestExemptNeedsReason in engineaffinity_test.go,
// since the directive comment and the want expectation cannot share a line.

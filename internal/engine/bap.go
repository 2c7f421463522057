package engine

import (
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"serialgraph/internal/metrics"
)

// runBAP executes the barrierless asynchronous parallel model of Giraph
// Unchained [20], which the paper's "Giraph async" builds on: each worker
// advances through its own logical supersteps with no global barriers,
// idling only when it has no active vertices and waking when messages
// arrive.
//
// Termination is global quiescence, detected exactly with the transport's
// in-flight count: a worker holds one unit of it (Transport.Hold) while it
// has work — an active vertex or a logical step running — so the count is
// zero exactly when every worker is idle and no message is in flight, and
// WaitIdle returns. keepHold and rehold carry the argument that no wake-up
// is lost. An idle worker parks on its doorbell (worker.wake), which onData
// rings when it gives the worker its hold back.
//
// The runaway guard ends a run through the same count: the worker whose
// logical step count reaches MaxSupersteps sets stopped, from which on every
// worker drops its hold instead of stepping; the messages in flight land,
// the count reaches zero, and Converged stays false.
//
// Partition-based locking composes with BAP naturally: the fork protocol
// is already barrier-free, condition C1 comes from flush-before-handoff
// plus FIFO delivery, and condition C2 from the forks themselves. Token
// techniques are rejected for BAP because their correctness argument
// (§4.2, §5.3) leans on superstep-aligned token rotation.
func (r *runner[V, M]) runBAP(res *Result) {
	var (
		stopped atomic.Bool
		wg      sync.WaitGroup
	)
	steps := make([]int, len(r.workers))
	done := make(chan struct{})
	for _, w := range r.workers {
		w.held = true
		r.tr.Hold()
	}
	for i, w := range r.workers {
		wg.Add(1)
		go func(w *worker[V, M]) {
			defer wg.Done()
			for {
				if !w.keepHold(stopped.Load()) {
					select {
					case <-w.wake:
						continue
					case <-done:
						return
					}
				}
				w.runLogicalSuperstep(steps[i])
				if steps[i]++; steps[i] >= r.cfg.MaxSupersteps {
					stopped.Store(true)
				}
			}
		}(w)
	}
	r.tr.WaitIdle()
	close(done)
	wg.Wait()
	res.Converged = !stopped.Load()
	res.Supersteps = slices.Max(steps)
}

// keepHold reports whether the worker has a logical step to run, keeping
// its hold if so; otherwise (or once the run is stopped) it releases the
// hold, and the worker parks until rehold gives it back.
//
// No wake-up is lost, because this decision and rehold's check are ordered
// by holdMu. onData stores its batch before it calls rehold, so either this
// check sees the batch's messages and the worker keeps stepping, or rehold
// runs after the release, finds held false and holds again — while the
// batch's own unit is still in flight, so the count cannot pass through zero
// in between. A worker's sends are counted before its hold goes: every
// logical step ends with a flush of its buffers.
func (w *worker[V, M]) keepHold(stop bool) bool {
	w.holdMu.Lock()
	defer w.holdMu.Unlock()
	if !stop && w.anyActiveWorker() {
		return true
	}
	w.held = false
	w.r.tr.Release()
	return false
}

// rehold gives an idle BAP worker its hold back after onData has stored a
// batch for it, and rings its doorbell. Only a release makes held false and
// only this makes it true again, so the doorbell never holds two rings.
func (w *worker[V, M]) rehold() {
	w.holdMu.Lock()
	if !w.held {
		w.held = true
		w.r.tr.Hold()
		w.wake <- struct{}{}
	}
	w.holdMu.Unlock()
}

// anyActiveWorker reports whether any owned vertex is active: not halted,
// or holding unread messages.
func (w *worker[V, M]) anyActiveWorker() bool {
	return w.stores[0].NewCount() > 0 || w.unhalted.Load() > 0
}

// runLogicalSuperstep is one pass over the worker's partitions under BAP:
// the same partition pass as the barriered engine (runPass, fork prefetch
// included), followed by a flush, but with a per-worker superstep counter
// and no rendezvous. With no master barrier to do it, the worker folds its
// own step metrics: the supersteps counter accumulates per-worker logical
// supersteps (so it exceeds Result.Supersteps, which is the max across
// workers), and barrier-wait stays zero by construction — BAP has no
// barriers.
func (w *worker[V, M]) runLogicalSuperstep(step int) {
	reg := w.r.reg
	computeStart := time.Now()
	w.runPass(step)
	flushStart := time.Now()
	reg.AddPhase(metrics.PhaseCompute, flushStart.Sub(computeStart))
	w.buf.FlushAll()
	reg.AddPhase(metrics.PhaseRemoteFlush, time.Since(flushStart))
	reg.Add(metrics.Supersteps, 1)
	reg.Observe(metrics.HistSuperstepWall, int64(time.Since(computeStart)))
}

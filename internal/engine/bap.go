package engine

import (
	"sync"
	"sync/atomic"
	"time"

	"serialgraph/internal/metrics"
)

// runBAP executes the barrierless asynchronous parallel model of Giraph
// Unchained [20], which the paper's "Giraph async" builds on: each worker
// advances through its own logical supersteps with no global barriers,
// idling only when it has no active vertices and waking when messages
// arrive. Termination is global quiescence: every worker idle, nothing in
// flight, and the execution counter stable across two observations — the
// same detector the GAS engine uses.
//
// An idle worker parks on its doorbell (worker.wake), which onData rings:
// only a remote delivery can activate a worker that has nothing to run.
// The detector polls, because a consistent view needs two observations
// some time apart; its period is a whole millisecond on the runtime timer,
// so it never keeps the transport's wire clock awake.
//
// Partition-based locking composes with BAP naturally: the fork protocol
// is already barrier-free, condition C1 comes from flush-before-handoff
// plus FIFO delivery, and condition C2 from the forks themselves. Token
// techniques are rejected for BAP because their correctness argument
// (§4.2, §5.3) leans on superstep-aligned token rotation.
func (r *runner[V, M]) runBAP(res *Result) {
	var (
		maxSteps atomic.Int64
		wg       sync.WaitGroup
	)
	done := make(chan struct{})
	for _, w := range r.workers {
		wg.Add(1)
		go func(w *worker[V, M]) {
			defer wg.Done()
			step := 0
			for {
				select {
				case <-done:
					return
				default:
				}
				if !w.anyActiveWorker() {
					select {
					case <-w.wake:
					case <-done:
					}
					continue
				}
				w.runLogicalSuperstep(step)
				step++
				for {
					m := maxSteps.Load()
					if int64(step) <= m || maxSteps.CompareAndSwap(m, int64(step)) {
						break
					}
				}
			}
		}(w)
	}

	// Quiescence detector.
	var lastExec int64 = -1
	for {
		if int(maxSteps.Load()) >= r.cfg.MaxSupersteps {
			break // runaway guard; Converged stays false
		}
		idle := r.tr.InFlight() == 0
		if idle {
			for _, w := range r.workers {
				// stepping guards the staged-message window: mid-step, a
				// local message may live only in a thread's staging buffer,
				// invisible to NewCount until the partition-end fold, and
				// the executions counter only moves at fold time. A worker
				// only starts a step after observing activity, and that
				// activity is consumed strictly inside the step, so the
				// detector can never see "no activity, not stepping" while
				// work is pending.
				if w.stepping.Load() || w.anyActiveWorker() || w.pendingBuffered() {
					idle = false
					break
				}
			}
		}
		if idle {
			if e := r.reg.Get(metrics.Executions); e == lastExec {
				res.Converged = true
				break
			} else {
				lastExec = e
			}
		} else {
			lastExec = -1
			// Release any messages stranded in idle workers' buffers.
			for _, w := range r.workers {
				if w.pendingBuffered() {
					w.buf.FlushAll()
				}
			}
		}
		time.Sleep(quiescencePoll)
	}
	close(done)
	wg.Wait()
	res.Supersteps = int(maxSteps.Load())
}

// quiescencePoll is the period of BAP's termination detector. Termination
// is declared on the second consecutive idle observation, so a run ends
// about two periods after its last message is consumed. It is a whole
// millisecond because that is what the runtime timer delivers (a
// sub-millisecond time.Sleep returns after ≈1.1 ms on Linux), the same
// period as the GAS engine's detector.
const quiescencePoll = time.Millisecond

// anyActiveWorker reports whether any owned vertex is active: not halted,
// or holding unread messages.
func (w *worker[V, M]) anyActiveWorker() bool {
	return w.stores[0].NewCount() > 0 || w.unhalted.Load() > 0
}

// pendingBuffered reports whether outgoing messages are waiting in the
// buffer cache.
func (w *worker[V, M]) pendingBuffered() bool {
	for dest := range w.r.workers {
		if dest != w.id && w.buf.Pending(dest) > 0 {
			return true
		}
	}
	return false
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
	w.stepping.Store(true)
	defer w.stepping.Store(false)
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

package engine

// barrier.go is the superstep barrier, in two halves that every deployment
// shares. The worker half (commitStep) runs on each worker once every
// message sent to it during the superstep has been applied: in-process
// after the transport went idle, in a worker process after its peer lanes'
// barrier. The master half (Master.Fold) merges the workers' reports and
// decides whether the run stops; Run feeds it the in-process reports and
// internal/dist's coordinator the ones that arrive in StepDone frames.

import (
	"fmt"

	"serialgraph/internal/model"
)

// StepReport is one worker's share of a superstep barrier.
type StepReport struct {
	// Unhalted counts the worker's vertices that have not voted to halt;
	// Pending counts the messages waiting for them.
	Unhalted, Pending int64
	// Aggs holds the worker's aggregator contributions of the superstep.
	Aggs map[string]float64
}

// commitStep is the worker half of superstep s's barrier: under BSP it
// swaps the stores, then it reports the worker's halt votes, pending
// messages and local aggregates, starting a fresh aggregate map for the
// next superstep. It fails with the first error an execution of the
// superstep made (worker.sendErr), and fails the frontier audit when the
// halt counter the run decides convergence on differs from the popcount of
// the bitset it iterates.
func (w *worker[V, M]) commitStep(s int) (StepReport, error) {
	if err := w.sendErr.Load(); err != nil {
		return StepReport{}, *err
	}
	if w.r.cfg.Mode == BSP {
		w.swapStores()
	}
	rep := StepReport{Unhalted: w.unhalted.Load(), Pending: w.pendingMessages(), Aggs: w.aggLocal}
	w.aggLocal = make(map[string]float64)
	if awake := w.awake.Count(); awake != rep.Unhalted {
		return rep, fmt.Errorf("engine: worker %d failed the frontier audit at superstep %d: %d unhalted counted, %d awake bits",
			w.id, s, rep.Unhalted, awake)
	}
	return rep, nil
}

// commitWorkers runs every worker's half of superstep s's barrier into
// r.reports.
func (r *runner[V, M]) commitWorkers(s int) error {
	for i, w := range r.workers {
		var err error
		if r.reports[i], err = w.commitStep(s); err != nil {
			return err
		}
	}
	return nil
}

// Master is the master half of the superstep barrier of one run.
type Master[V, M any] struct {
	prog model.Program[V, M]
	// window is how many supersteps' aggregates MasterHalt judges at once.
	// Token techniques execute only the token holder's vertices in any one
	// superstep, so a single superstep's aggregates cover a fraction of the
	// graph and a tolerance test on them would fire spuriously (an idle
	// worker's superstep aggregates to zero); MasterHalt is consulted once
	// per full token rotation, on the aggregates accumulated across it.
	window    int
	windowAgg map[string]float64
}

// NewMaster returns the master half of a run of prog under cfg.
func NewMaster[V, M any](prog model.Program[V, M], cfg Config) *Master[V, M] {
	cfg = cfg.withDefaults()
	m := &Master[V, M]{prog: prog, window: 1, windowAgg: make(map[string]float64)}
	switch cfg.Sync {
	case TokenSingle:
		m.window = cfg.Workers
	case TokenDual:
		m.window = cfg.Workers * cfg.PartitionsPerWorker
	}
	return m
}

// Fold merges the workers' reports of superstep s, in worker order, into
// the aggregates the next superstep reads, and reports whether the run
// stops: no vertex unhalted and no message pending (converged), or
// MasterHalt true at the end of a window.
func (m *Master[V, M]) Fold(s int, reports []StepReport) (merged map[string]float64, stop bool) {
	merged = make(map[string]float64)
	var unhalted, pending int64
	for _, rep := range reports {
		unhalted += rep.Unhalted
		pending += rep.Pending
		for k, v := range rep.Aggs {
			merged[k] += v
		}
	}
	if unhalted == 0 && pending == 0 {
		return merged, true
	}
	if m.prog.MasterHalt == nil {
		return merged, false
	}
	for k, v := range merged {
		m.windowAgg[k] += v
	}
	if (s+1)%m.window != 0 {
		return merged, false
	}
	if m.prog.MasterHalt(s, m.windowAgg) {
		return merged, true
	}
	m.windowAgg = make(map[string]float64)
	return merged, false
}

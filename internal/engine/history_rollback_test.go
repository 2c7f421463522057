package engine

// Regression tests for the Recorder/rollback interaction: a mid-run
// rollback calls history.Recorder.Reset to discard the abandoned
// timeline's transactions, and the recorder's logical clock must NOT be
// rewound with them — otherwise replayed executions would reuse ticks
// from the discarded timeline and the C2 interval sweep could pair a
// live transaction with a ghost.

import (
	"testing"

	"serialgraph/internal/algorithms"
	"serialgraph/internal/fault"
	"serialgraph/internal/history"
	"serialgraph/internal/metrics"
)

func TestRollbackHistoryTicksStayMonotone(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test")
	}
	g := undirected(chaosGraph(t))

	inj := fault.NewInjector(fault.Plan{Crashes: []fault.Crash{{Worker: 2, AtSuperstep: 1}}})
	cfg := Config{
		Workers: 4, Mode: Async, Sync: PartitionLock, Seed: 9,
		CheckpointEvery: 1, CheckpointDir: t.TempDir(),
		TrackHistory: true,
		Fault:        inj,
	}
	_, res, rec, err := Run(g, algorithms.Coloring(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Metrics.Get(metrics.Rollbacks); got < 1 {
		t.Fatalf("Rollbacks = %d, want >= 1", got)
	}

	// The rollback reset the recorder, and the reset recorded where the
	// clock stood when the discarded timeline ended.
	resetTick := rec.LastResetTick()
	if resetTick <= 0 {
		t.Fatalf("LastResetTick = %d after %d rollbacks, want > 0", resetTick, res.Metrics.Get(metrics.Rollbacks))
	}

	// Every surviving transaction was recorded after the (last) reset, so
	// its ticks must lie strictly beyond the discarded timeline's, and each
	// interval must be well-formed.
	txns := rec.Txns()
	if len(txns) == 0 {
		t.Fatal("no transactions survived the rollback")
	}
	for _, txn := range txns {
		if txn.Start <= resetTick {
			t.Fatalf("txn on v%d starts at tick %d, inside the discarded timeline (reset at %d)",
				txn.Vertex, txn.Start, resetTick)
		}
		if txn.End < txn.Start {
			t.Fatalf("txn on v%d has End %d < Start %d", txn.Vertex, txn.End, txn.Start)
		}
	}
}

func TestRecorderResetKeepsClockMonotone(t *testing.T) {
	rec := history.NewRecorder()
	for i := 0; i < 10; i++ {
		rec.Tick()
	}
	rec.Append(history.Txn{Vertex: 1, Start: 1, End: 10})

	rec.Reset()
	if got := rec.LastResetTick(); got != 10 {
		t.Fatalf("LastResetTick = %d, want 10", got)
	}
	if rec.Len() != 0 {
		t.Fatalf("Len = %d after Reset, want 0", rec.Len())
	}
	// The clock continues past the discarded timeline instead of rewinding.
	if next := rec.Tick(); next != 11 {
		t.Fatalf("first tick after Reset = %d, want 11", next)
	}

	// A second reset moves the watermark forward, never backward.
	rec.Reset()
	if got := rec.LastResetTick(); got != 11 {
		t.Fatalf("LastResetTick after second Reset = %d, want 11", got)
	}
}

package engine

// Budget equivalence matrix: every synchronization technique ×
// {SSSP, PageRank, coloring}, each run under four message-plane memory
// budgets — unbounded (zero: default credit window, spill tier absent),
// tiny (windows at the floor, BSP spill forced on nearly every
// superstep), bounded (a per-worker share above one admission, which the
// BSP peak must respect), and huge (spill tier armed but never flushing,
// so the no-runs fast path drains) — with results compared across
// budgets.
//
// The contract under test is the one DESIGN.md §12 argues for: the
// budget changes *when* a sender may proceed and *where* a batch waits
// out the barrier, never *what* is delivered or in what per-destination
// order. So:
//
//   - BSP is schedule-deterministic: every budget must produce
//     bitwise-identical values and identical superstep counts. The tiny
//     and bounded runs must actually spill (bytes_spilled > 0) or the
//     cell proves nothing; the huge run must never spill.
//   - SSSP has a unique fixed point under every technique, so its
//     converged values are bitwise-identical on every cell and budget.
//   - Async PageRank and coloring are schedule-dependent (credit-window
//     backpressure legitimately perturbs the schedule), so those cells
//     assert the algorithm-level oracle per budget: the residual bound
//     for PageRank, a proper coloring under serializable techniques.
//
// Every run additionally asserts the credit-conservation invariant the
// engine checks at each barrier surfaced zero imbalances, and that runs
// without a spill tier report zero bytes spilled.

import (
	"testing"

	"serialgraph/internal/algorithms"
	"serialgraph/internal/metrics"
)

const (
	// budgetTiny divided across 3 workers leaves well under one batch of
	// headroom, so every superstep with traffic cuts spill runs.
	budgetTiny = int64(256)
	// budgetBounded gives each of the 3 workers an 800-byte share: more
	// than any single admission (one remote batch, or one partition's
	// local messages) on the equivalence graph, less than a superstep's
	// traffic. The spill tier holds the buffer within it, so the BSP peak
	// must stay at or under the share while the run spills.
	budgetBounded = int64(2400)
	// budgetHuge arms the spill tier without ever flushing it.
	budgetHuge = int64(1) << 40
)

var budgetLevels = []struct {
	name   string
	budget int64
}{
	{"unbounded", 0},
	{"tiny", budgetTiny},
	{"bounded", budgetBounded},
	{"huge", budgetHuge},
}

func budgetConfig(mode Mode, sync Sync, budget int64) Config {
	cfg := equivConfig(mode, sync, TransportInProc)
	cfg.MsgMemoryBudget = budget
	return cfg
}

// checkBudgetRun asserts the invariants every budgeted run must hold,
// regardless of mode or algorithm, beyond the credit audit: a credit window
// that fails to reconcile at a barrier fails Run, so the callers' err == nil
// checks cover that one.
func checkBudgetRun(t *testing.T, label string, mode Mode, budget int64, res Result) {
	t.Helper()
	spilled := res.Metrics.Get(metrics.BytesSpilled)
	switch {
	case budget == 0:
		if spilled != 0 {
			t.Errorf("%s: unbounded run spilled %d bytes", label, spilled)
		}
	case budget == budgetHuge:
		if spilled != 0 {
			t.Errorf("%s: huge-budget run spilled %d bytes", label, spilled)
		}
	case mode == BSP:
		// A bounded budget under BSP must actually exercise the spill
		// path, otherwise the equality below is vacuous.
		if spilled == 0 {
			t.Errorf("%s: %d-byte BSP run never spilled", label, budget)
		}
		if peak, share := res.Metrics.Hist(metrics.HistBufferedBytes).Max, budget/3; budget == budgetBounded && peak > share {
			t.Errorf("%s: peak buffered bytes %d exceed the per-worker share %d", label, peak, share)
		}
	}
}

func TestBudgetEquivalenceMatrix(t *testing.T) {
	cells := []struct {
		name string
		mode Mode
		sync Sync
	}{
		{"bsp/none", BSP, SyncNone},
		{"async/none", Async, SyncNone},
		{"async/token-single", Async, TokenSingle},
		{"async/token-dual", Async, TokenDual},
		{"async/partition-lock", Async, PartitionLock},
		{"async/vertex-lock-giraph", Async, VertexLockGiraph},
	}
	for _, cell := range cells {
		cell := cell
		t.Run("sssp/"+cell.name, func(t *testing.T) {
			t.Parallel()
			g := equivGraph(false)
			want := algorithms.ShortestPaths(g, 0)
			for _, lvl := range budgetLevels {
				label := "sssp/" + cell.name + "/" + lvl.name
				dist, res, _, err := Run(g, algorithms.SSSP(0), budgetConfig(cell.mode, cell.sync, lvl.budget))
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if !res.Converged {
					t.Fatalf("%s: did not converge", label)
				}
				checkBudgetRun(t, label, cell.mode, lvl.budget, res)
				for v := range want {
					if dist[v] != want[v] {
						t.Fatalf("%s: dist[%d] = %v, want %v", label, v, dist[v], want[v])
					}
				}
			}
		})
		t.Run("pagerank/"+cell.name, func(t *testing.T) {
			t.Parallel()
			g := equivGraph(false)
			const eps = 0.05
			aggregated := cell.mode == BSP
			got := make([][]float64, len(budgetLevels))
			steps := make([]int, len(budgetLevels))
			for i, lvl := range budgetLevels {
				label := "pagerank/" + cell.name + "/" + lvl.name
				prog := algorithms.PageRank(eps)
				if aggregated {
					prog = algorithms.PageRankAggregated(eps)
				}
				pr, res, _, err := Run(g, prog, budgetConfig(cell.mode, cell.sync, lvl.budget))
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if !res.Converged {
					t.Fatalf("%s: did not converge", label)
				}
				checkBudgetRun(t, label, cell.mode, lvl.budget, res)
				got[i], steps[i] = pr, res.Supersteps
			}
			if cell.mode == BSP {
				// Schedule-deterministic: bitwise equality across budgets.
				for i := 1; i < len(got); i++ {
					if steps[i] != steps[0] {
						t.Fatalf("pagerank/%s: %s took %d supersteps, %s %d",
							cell.name, budgetLevels[0].name, steps[0], budgetLevels[i].name, steps[i])
					}
					for v := range got[0] {
						if got[i][v] != got[0][v] {
							t.Fatalf("pagerank/%s: budgets disagree at %d: %s %v, %s %v",
								cell.name, v, budgetLevels[0].name, got[0][v], budgetLevels[i].name, got[i][v])
						}
					}
				}
				return
			}
			// Schedule-dependent cells: each budget must satisfy the
			// residual bound on its own.
			bound := algorithms.PageRankBound(g, eps) * 4
			for i, lvl := range budgetLevels {
				if r := equivPagerankResidual(g, got[i], true); r > bound {
					t.Errorf("pagerank/%s/%s: residual %v exceeds bound %v",
						cell.name, lvl.name, r, bound)
				}
			}
		})
		t.Run("coloring/"+cell.name, func(t *testing.T) {
			t.Parallel()
			g := equivGraph(true)
			got := make([][]int32, len(budgetLevels))
			converged := make([]bool, len(budgetLevels))
			for i, lvl := range budgetLevels {
				label := "coloring/" + cell.name + "/" + lvl.name
				cfg := budgetConfig(cell.mode, cell.sync, lvl.budget)
				if cell.mode == BSP {
					// BSP coloring oscillates (Figure 2); bound it and
					// compare the deterministic non-converged state.
					cfg.MaxSupersteps = 30
				}
				colors, res, _, err := Run(g, algorithms.Coloring(), cfg)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				checkBudgetRun(t, label, cell.mode, lvl.budget, res)
				got[i], converged[i] = colors, res.Converged
				if cell.mode != BSP && !res.Converged {
					t.Fatalf("%s: did not converge", label)
				}
				if res.Converged && cell.sync.Serializable() {
					if err := algorithms.ValidateColoring(g, colors); err != nil {
						t.Errorf("%s: %v", label, err)
					}
				}
			}
			if cell.mode == BSP {
				for i := 1; i < len(got); i++ {
					if converged[i] != converged[0] {
						t.Fatalf("coloring/%s: convergence differs across budgets", cell.name)
					}
					for v := range got[0] {
						if got[i][v] != got[0][v] {
							t.Fatalf("coloring/%s: budgets disagree at %d: %s %d, %s %d",
								cell.name, v, budgetLevels[0].name, got[0][v], budgetLevels[i].name, got[i][v])
						}
					}
				}
			}
		})
	}
}

// TestBudgetTinyOverTCP runs the most adversarial combination — tiny
// budget, real sockets, credit grant frames riding the reverse lanes,
// spill runs cut every superstep — and demands the result still matches
// an unbounded in-process run bitwise.
func TestBudgetTinyOverTCP(t *testing.T) {
	equivRequireLoopback(t)
	g := equivGraph(false)
	const eps = 0.05

	ref, refRes, _, err := Run(g, algorithms.PageRankAggregated(eps), budgetConfig(BSP, SyncNone, 0))
	if err != nil {
		t.Fatalf("unbounded reference: %v", err)
	}
	if !refRes.Converged {
		t.Fatal("unbounded reference did not converge")
	}

	cfg := equivConfig(BSP, SyncNone, TransportTCP)
	cfg.MsgMemoryBudget = budgetTiny
	pr, res, _, err := Run(g, algorithms.PageRankAggregated(eps), cfg)
	if err != nil {
		t.Fatalf("tiny/tcp: %v", err)
	}
	if !res.Converged {
		t.Fatal("tiny/tcp: did not converge")
	}
	checkBudgetRun(t, "tiny/tcp", BSP, budgetTiny, res)
	if res.Supersteps != refRes.Supersteps {
		t.Fatalf("tiny/tcp took %d supersteps, unbounded in-proc %d", res.Supersteps, refRes.Supersteps)
	}
	for v := range ref {
		if pr[v] != ref[v] {
			t.Fatalf("tiny/tcp disagrees with unbounded at %d: %v vs %v", v, pr[v], ref[v])
		}
	}
}

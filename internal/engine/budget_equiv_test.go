package engine

// Budget equivalence matrix: every synchronization technique ×
// {SSSP, PageRank, coloring}, each run unbounded (zero: the default
// credit window) and with a tiny message-plane budget (every credit
// window at its floor), with results compared across budgets.
//
// The contract under test is the one DESIGN.md §12 argues for: the
// budget changes *when* a sender may proceed, never *what* is delivered
// or in what per-destination order. So:
//
//   - BSP is schedule-deterministic: every budget must produce
//     bitwise-identical values and identical superstep counts.
//   - SSSP has a unique fixed point under every technique, so its
//     converged values are bitwise-identical on every cell and budget.
//   - Async PageRank and coloring are schedule-dependent (credit-window
//     backpressure legitimately perturbs the schedule), so those cells
//     assert the algorithm-level oracle per budget: the residual bound
//     for PageRank, a proper coloring under serializable techniques.
//
// A credit window that fails to reconcile at a barrier fails Run, so every
// run's err == nil check also covers the credit-conservation audit.

import (
	"math"
	"runtime"
	"runtime/debug"
	"testing"

	"serialgraph/internal/algorithms"
	"serialgraph/internal/generate"
)

// budgetTiny puts every credit window at its floor (cluster.WindowForBudget).
const budgetTiny = int64(256)

var budgetLevels = []struct {
	name   string
	budget int64
}{
	{"unbounded", 0},
	{"tiny", budgetTiny},
}

func budgetConfig(mode Mode, sync Sync, budget int64) Config {
	cfg := equivConfig(mode, sync, TransportInProc)
	cfg.MsgMemoryBudget = budget
	return cfg
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

// TestBudgetTinyOverTCP runs the most adversarial combination — credit
// windows at their floor over real sockets, credit grant frames riding the
// reverse lanes — and demands the result still matches an unbounded
// in-process run bitwise.
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
	if res.Supersteps != refRes.Supersteps {
		t.Fatalf("tiny/tcp took %d supersteps, unbounded in-proc %d", res.Supersteps, refRes.Supersteps)
	}
	for v := range ref {
		if pr[v] != ref[v] {
			t.Fatalf("tiny/tcp disagrees with unbounded at %d: %v vs %v", v, pr[v], ref[v])
		}
	}
}

// TestBudgetAddsNoMemory pins what a budget costs: nothing but credit
// windows, which bound bytes in flight without buffering any. BSP
// PageRank under the tiny budget must allocate no more than 1.2× the
// unbounded run. It calls no t.Parallel, so it runs alone and the
// process-wide allocation counter sees only its own runs. The collector
// is off so the batch pools keep what they recycle; the share they
// recycle still varies from run to run (most under -race, where
// sync.Pool drops at random), so each side's least of five interleaved
// runs is compared.
func TestBudgetAddsNoMemory(t *testing.T) {
	g := generate.PowerLaw(generate.PowerLawConfig{N: 2000, AvgDegree: 8, Exponent: 2.2, Seed: 41})
	prog := algorithms.PageRankAggregated(0.01)
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	alloc := func(budget int64) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, _, _, err := Run(g, prog, budgetConfig(BSP, SyncNone, budget)); err != nil {
			t.Fatalf("budget %d: %v", budget, err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	alloc(0) // warm-up: one-time allocations count against neither side
	var base, tiny uint64 = math.MaxUint64, math.MaxUint64
	for range 5 {
		if a := alloc(0); a < base {
			base = a
		}
		if a := alloc(budgetTiny); a < tiny {
			tiny = a
		}
	}
	if float64(tiny) > 1.2*float64(base) {
		t.Fatalf("budget %d allocated %d bytes, unbounded %d (> 1.2×)", budgetTiny, tiny, base)
	}
	t.Logf("allocated: unbounded %d bytes, budget %d %d bytes", base, budgetTiny, tiny)
}

package engine

// The partition scheduler (sched.go) is the one pass BSP, Async and BAP
// make over a worker's partitions. It decides the order in which one
// worker's partitions execute — never what they compute — so every cell of
// the matrix below must agree with the serial oracles of
// internal/algorithms:
//
//   - SSSP has a unique fixed point under every technique: converged
//     distances equal the serial reference exactly.
//   - PageRank is schedule-dependent outside BSP; the converged ranks must
//     satisfy the PageRank equations to within the tolerance the eps
//     threshold leaves (see pagerankBound).
//   - Coloring converges outside BSP and is proper under every
//     serializable technique.
//
// BSP cells are also pinned bitwise (executions, supersteps, value hash)
// by TestFrontierMatrix. Every cell reconciles the scheduler ledger:
// forks_prefetched is a subset of lock_acquires, and both prefetch
// counters stay zero without PartitionLock.

import (
	"testing"

	"serialgraph/internal/algorithms"
	"serialgraph/internal/graph"
	"serialgraph/internal/history"
	"serialgraph/internal/metrics"
)

func schedConfig(mode Mode, sync Sync) Config {
	return Config{
		Workers: 3, PartitionsPerWorker: 4, ThreadsPerWorker: 2,
		Mode: mode, Sync: sync,
		Seed: 1131, MaxSupersteps: 200, Metrics: metrics.New(),
	}
}

// checkSchedCounters enforces the scheduler-counter contract on any run.
func checkSchedCounters(t *testing.T, label string, cfg Config, res Result) {
	t.Helper()
	m := res.Metrics
	pref := m.Get(metrics.ForksPrefetched)
	if pref > m.Get(metrics.LockAcquires) {
		t.Errorf("%s: forks_prefetched %d exceeds lock_acquires %d",
			label, pref, m.Get(metrics.LockAcquires))
	}
	if cfg.Sync != PartitionLock && (pref != 0 || m.Get(metrics.OverlapComputeNs) != 0) {
		t.Errorf("%s: fork prefetch counters moved without PartitionLock: prefetched=%d overlap_ns=%d",
			label, pref, m.Get(metrics.OverlapComputeNs))
	}
}

// pagerankBound is how far a converged eps-thresholded PageRank may sit
// from its equations: every vertex stopped propagating once its delta fell
// below eps, so each in-neighbor can owe it up to eps of unsent rank.
func pagerankBound(g *graph.Graph, eps float64) float64 {
	maxIn := 0
	for v := 0; v < g.NumVertices(); v++ {
		maxIn = max(maxIn, g.InDegree(graph.VertexID(v)))
	}
	return eps * float64(1+maxIn)
}

func TestSchedulerEquivalenceMatrix(t *testing.T) {
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
		{"bap/none", BAP, SyncNone},
		{"bap/partition-lock", BAP, PartitionLock},
	}
	for _, cell := range cells {
		t.Run("sssp/"+cell.name, func(t *testing.T) {
			t.Parallel()
			g := equivGraph(false)
			cfg := schedConfig(cell.mode, cell.sync)
			dist, res, _, err := Run(g, algorithms.SSSP(0), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Converged {
				t.Fatal("did not converge")
			}
			checkSchedCounters(t, cell.name, cfg, res)
			for v, want := range algorithms.ShortestPaths(g, 0) {
				if dist[v] != want {
					t.Fatalf("dist[%d] = %v, want %v", v, dist[v], want)
				}
			}
		})
		t.Run("pagerank/"+cell.name, func(t *testing.T) {
			t.Parallel()
			g := equivGraph(false)
			const eps = 0.05
			prog := algorithms.PageRank(eps)
			if cell.mode == BSP {
				prog = algorithms.PageRankAggregated(eps)
			}
			cfg := schedConfig(cell.mode, cell.sync)
			pr, res, _, err := Run(g, prog, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Converged {
				t.Fatal("did not converge")
			}
			checkSchedCounters(t, cell.name, cfg, res)
			if r, bound := algorithms.PageRankResidual(g, pr), pagerankBound(g, eps); r > bound {
				t.Errorf("residual %v exceeds bound %v", r, bound)
			}
		})
		t.Run("coloring/"+cell.name, func(t *testing.T) {
			t.Parallel()
			g := equivGraph(true)
			cfg := schedConfig(cell.mode, cell.sync)
			if cell.mode == BSP {
				cfg.MaxSupersteps = 30 // BSP coloring may oscillate (Figure 2)
			}
			colors, res, _, err := Run(g, algorithms.Coloring(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			checkSchedCounters(t, cell.name, cfg, res)
			if cell.mode != BSP && !res.Converged {
				t.Fatal("did not converge")
			}
			if res.Converged && cell.sync.Serializable() {
				if err := algorithms.ValidateColoring(g, colors); err != nil {
					t.Error(err)
				}
			}
		})
	}
}

// TestOverlapPrefetchesForks pins that the scheduler actually exercises the
// asynchronous acquisition path: a partition-lock run on a graph with
// cross-worker edges must issue fork prefetches, and every prefetch is one
// of the run's lock acquires.
func TestOverlapPrefetchesForks(t *testing.T) {
	g := equivGraph(true)
	cfg := schedConfig(Async, PartitionLock)
	_, res, _, err := Run(g, algorithms.Coloring(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Get(metrics.ForksPrefetched) == 0 {
		t.Error("partition-lock run issued no fork prefetches")
	}
	checkSchedCounters(t, "async/partition-lock", cfg, res)
}

// TestBAPPartitionLockPrefetches: BAP reaches the partition pass through
// the same function as the barriered modes, so a BAP + PartitionLock
// coloring prefetches its forks — and its recorded history still passes
// the C1/C2/1SR oracle with a proper coloring.
func TestBAPPartitionLockPrefetches(t *testing.T) {
	g := equivGraph(true)
	cfg := schedConfig(BAP, PartitionLock)
	cfg.TrackHistory = true
	colors, res, rec, err := Run(g, algorithms.Coloring(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("did not converge")
	}
	if err := algorithms.ValidateColoring(g, colors); err != nil {
		t.Error(err)
	}
	if vs := history.CheckAll(rec.Txns(), g); len(vs) > 0 {
		t.Errorf("%d serializability violations, first: %v", len(vs), vs[0])
	}
	if res.Metrics.Get(metrics.ForksPrefetched) == 0 {
		t.Error("BAP partition-lock run issued no fork prefetches")
	}
	checkSchedCounters(t, "bap/partition-lock", cfg, res)
}

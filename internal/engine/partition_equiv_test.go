package engine

// Cross-partitioner equivalence matrix: every synchronization technique ×
// {SSSP, PageRank, coloring} × {hash, range, ldg, fennel}, with hash as
// the baseline each other partitioner is compared against. A partitioner
// decides *where* vertices execute, never *what* they compute, so:
//
//   - BSP is schedule-deterministic given Overwrite/combining semantics:
//     per-superstep folds happen in fixed in-slot order, which depends
//     only on the graph — not the placement. BSP cells therefore demand
//     bitwise-identical values and superstep counts across partitioners.
//   - SSSP has a unique fixed point under every technique, so converged
//     distances must match the reference exactly on every cell.
//   - Async PageRank and coloring are schedule-dependent (two runs with
//     the same partitioner already differ), so those cells assert the
//     algorithm-level contract per partitioner: residual bound, proper
//     coloring under serializable techniques — the torture oracles.
//
// Every cell also reconciles the partition-quality plumbing: the census
// in Result.Partition must sum to |V| and agree with the cut_edges /
// boundary_vertices counters the engine publishes at startup.

import (
	"testing"

	"serialgraph/internal/algorithms"
	"serialgraph/internal/generate"
	"serialgraph/internal/graph"
	"serialgraph/internal/metrics"
	"serialgraph/internal/partition"
)

func equivPartConfig(mode Mode, sync Sync, kind string) Config {
	cfg := Config{
		Workers: 3, PartitionsPerWorker: 2, ThreadsPerWorker: 2,
		Mode: mode, Sync: sync, Seed: 1131, MaxSupersteps: 200,
		Metrics: metrics.New(),
	}
	if kind != partition.KindHash {
		cfg.Partitioner = func(g *graph.Graph, p, w int) *partition.Map {
			m, err := partition.New(kind, g, p, w, 1131)
			if err != nil {
				panic(err)
			}
			return m
		}
	}
	return cfg
}

// reconcileQuality checks the quality plumbing on any run: census sums
// to |V|, fractions in range, and the startup counters match the report.
func reconcileQuality(t *testing.T, label string, g *graph.Graph, res Result) {
	t.Helper()
	q := res.Partition
	n := g.NumVertices()
	if sum := q.PInternal + q.LocalBoundary + q.RemoteBoundary + q.MixedBoundary; sum != n {
		t.Errorf("%s: class census sums to %d, want %d", label, sum, n)
	}
	if q.BoundaryFraction < 0 || q.BoundaryFraction > 1 || q.CutFraction < 0 || q.CutFraction > 1 {
		t.Errorf("%s: fractions out of range: %+v", label, q)
	}
	if got, want := res.Metrics.Get(metrics.CutEdges), int64(q.CutEdges); got != want {
		t.Errorf("%s: cut_edges counter = %d, report says %d", label, got, want)
	}
	if got, want := res.Metrics.Get(metrics.BoundaryVertices), int64(n-q.PInternal); got != want {
		t.Errorf("%s: boundary_vertices counter = %d, report says %d", label, got, want)
	}
}

func TestPartitionerEquivalenceMatrix(t *testing.T) {
	kinds := partition.Kinds() // hash first: the baseline slot
	if kinds[0] != partition.KindHash {
		t.Fatal("Kinds() must lead with hash")
	}
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
			base := []float64(nil)
			for _, kind := range kinds {
				label := "sssp/" + cell.name + "/" + kind
				dist, res, _, err := Run(g, algorithms.SSSP(0), equivPartConfig(cell.mode, cell.sync, kind))
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if !res.Converged {
					t.Fatalf("%s: did not converge", label)
				}
				reconcileQuality(t, label, g, res)
				for v := range want {
					if dist[v] != want[v] {
						t.Fatalf("%s: dist[%d] = %v, want %v", label, v, dist[v], want[v])
					}
				}
				if base == nil {
					base = dist
					continue
				}
				for v := range base {
					if base[v] != dist[v] {
						t.Fatalf("%s: diverges from hash baseline at %d: %v vs %v",
							label, v, dist[v], base[v])
					}
				}
			}
		})
		t.Run("pagerank/"+cell.name, func(t *testing.T) {
			t.Parallel()
			g := equivGraph(false)
			const eps = 0.05
			aggregated := cell.mode == BSP
			var basePR []float64
			baseSteps := -1
			for _, kind := range kinds {
				label := "pagerank/" + cell.name + "/" + kind
				prog := algorithms.PageRank(eps)
				if aggregated {
					prog = algorithms.PageRankAggregated(eps)
				}
				pr, res, _, err := Run(g, prog, equivPartConfig(cell.mode, cell.sync, kind))
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if !res.Converged {
					t.Fatalf("%s: did not converge", label)
				}
				reconcileQuality(t, label, g, res)
				if cell.mode == BSP {
					// Deterministic independent of placement: demand
					// bitwise equality with the hash baseline.
					if basePR == nil {
						basePR, baseSteps = pr, res.Supersteps
					} else {
						if res.Supersteps != baseSteps {
							t.Fatalf("%s: %d supersteps, hash baseline took %d",
								label, res.Supersteps, baseSteps)
						}
						for v := range basePR {
							if basePR[v] != pr[v] {
								t.Fatalf("%s: diverges from hash baseline at %d: %v vs %v",
									label, v, pr[v], basePR[v])
							}
						}
					}
				}
				// Every cell satisfies the residual bound on its own.
				bound := algorithms.PageRankBound(g, eps)
				if !aggregated {
					bound *= 4
				}
				if r := equivPagerankResidual(g, pr, !aggregated); r > bound {
					t.Errorf("%s: residual %v exceeds bound %v", label, r, bound)
				}
			}
		})
		t.Run("coloring/"+cell.name, func(t *testing.T) {
			t.Parallel()
			g := equivGraph(true)
			var baseColors []int32
			baseConverged := false
			for i, kind := range kinds {
				label := "coloring/" + cell.name + "/" + kind
				cfg := equivPartConfig(cell.mode, cell.sync, kind)
				if cell.mode == BSP {
					// BSP coloring oscillates (Figure 2); bound it and
					// compare the deterministic non-converged state.
					cfg.MaxSupersteps = 30
				}
				colors, res, _, err := Run(g, algorithms.Coloring(), cfg)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				reconcileQuality(t, label, g, res)
				if cell.mode != BSP && !res.Converged {
					t.Fatalf("%s: did not converge", label)
				}
				if res.Converged && cell.sync.Serializable() {
					if err := algorithms.ValidateColoring(g, colors); err != nil {
						t.Errorf("%s: %v", label, err)
					}
				}
				if cell.mode != BSP {
					continue
				}
				if i == 0 {
					baseColors, baseConverged = colors, res.Converged
					continue
				}
				if res.Converged != baseConverged {
					t.Fatalf("%s: convergence differs from hash baseline", label)
				}
				for v := range baseColors {
					if baseColors[v] != colors[v] {
						t.Fatalf("%s: diverges from hash baseline at %d: %d vs %d",
							label, v, colors[v], baseColors[v])
					}
				}
			}
		})
	}
	// The locality acceptance, on a graph built for it: one 24-vertex
	// community per partition, almost every edge inside one. Against hash
	// at equal P, LDG and Fennel keep every partition within the streaming
	// capacity, cut the boundary fraction and the cross-partition data
	// bytes by at least 25%, and leave BSP PageRank bitwise equal in the
	// same number of supersteps.
	t.Run("community", func(t *testing.T) {
		t.Parallel()
		const workers = 16
		p := workers * workers
		g := generate.Communities(p, 24, 20)
		capacity := partition.StreamOptions{}.Capacity(g.NumVertices(), p)
		var hashPR []float64
		var hash Result
		for _, kind := range kinds {
			if kind == partition.KindRange {
				continue
			}
			cfg := equivPartConfig(BSP, SyncNone, kind)
			cfg.Workers, cfg.PartitionsPerWorker, cfg.ThreadsPerWorker, cfg.MaxSupersteps = workers, workers, 0, 2000
			pr, res, _, err := Run(g, algorithms.PageRankAggregated(0.01), cfg)
			if err != nil {
				t.Fatalf("%s: %v", kind, err)
			}
			if !res.Converged {
				t.Fatalf("%s: did not converge", kind)
			}
			reconcileQuality(t, "community/"+kind, g, res)
			if kind == partition.KindHash {
				hashPR, hash = pr, res
				continue
			}
			q, hq := res.Partition, hash.Partition
			if q.MaxLoad > capacity {
				t.Errorf("%s: max load %d exceeds the streaming capacity %d", kind, q.MaxLoad, capacity)
			}
			if q.BoundaryFraction > 0.75*hq.BoundaryFraction {
				t.Errorf("%s: boundary fraction %.4f is not 25%% below hash's %.4f",
					kind, q.BoundaryFraction, hq.BoundaryFraction)
			}
			if float64(res.Net.DataBytes) > 0.75*float64(hash.Net.DataBytes) {
				t.Errorf("%s: cross-partition bytes %d are not 25%% below hash's %d",
					kind, res.Net.DataBytes, hash.Net.DataBytes)
			}
			if res.Supersteps != hash.Supersteps {
				t.Fatalf("%s: %d supersteps, hash took %d", kind, res.Supersteps, hash.Supersteps)
			}
			for v := range hashPR {
				if pr[v] != hashPR[v] {
					t.Fatalf("%s: diverges from hash at %d: %v vs %v", kind, v, pr[v], hashPR[v])
				}
			}
		}
	})
}

package engine

// Tests for the delivery-time frontier (DESIGN.md §9): supersteps visit the
// set bits of (unread messages ∪ not halted) instead of scanning every
// vertex, and the halt flags live only in those bits. Two things must hold:
// the iteration executes exactly what the scans executed (BSP cells are
// pinned to the executions, supersteps and value bits recorded at the
// commit before the frontier existed), and every path that rewrites
// activity wholesale leaves bits and counters in step (the frontier audit
// at every barrier, which fails Run, so each cell's err == nil covers it).

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"serialgraph/internal/algorithms"
	"serialgraph/internal/checkpoint"
	"serialgraph/internal/fault"
	"serialgraph/internal/graph"
	"serialgraph/internal/metrics"
)

func hashValues[V any](vals []V, bits func(V) uint64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range vals {
		binary.LittleEndian.PutUint64(b[:], bits(v))
		h.Write(b[:])
	}
	return h.Sum64()
}

func floatBits(v float64) uint64 { return math.Float64bits(v) }
func colorBits(v int32) uint64   { return uint64(uint32(v)) }

// seedPin is what a BSP cell of the matrix produced before the frontier
// replaced the scans (commit 1a13118, schedConfig, under either of the
// two partition schedulers that commit had).
type seedPin struct {
	executions int64
	supersteps int
	hash       uint64
}

func checkPin(t *testing.T, label string, res Result, hash uint64, want seedPin) {
	t.Helper()
	if res.Executions != want.executions || res.Supersteps != want.supersteps {
		t.Errorf("%s: %d executions in %d supersteps, seed had %d in %d",
			label, res.Executions, res.Supersteps, want.executions, want.supersteps)
	}
	if hash != want.hash {
		t.Errorf("%s: value bits hash %#x, seed had %#x", label, hash, want.hash)
	}
}

// TestFrontierMatrix runs every cell with two thread pools. "static" has
// one compute thread per worker, so a pass runs the worker's partitions
// one after another (the cursor's in ascending order); "overlap" has two,
// so a worker's partitions — and, under PartitionLock, fork prefetches and
// cursor partitions — overlap in time. BSP cells must hit the same pins
// either way.
func TestFrontierMatrix(t *testing.T) {
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
	pools := []struct {
		name    string
		threads int
	}{{"static", 1}, {"overlap", 2}}
	for _, cell := range cells {
		for _, pool := range pools {
			label := cell.name + "/" + pool.name
			config := func() Config {
				cfg := schedConfig(cell.mode, cell.sync)
				cfg.ThreadsPerWorker = pool.threads
				return cfg
			}
			t.Run("sssp/"+label, func(t *testing.T) {
				t.Parallel()
				g := equivGraph(false)
				dist, res, _, err := Run(g, algorithms.SSSP(0), config())
				if err != nil {
					t.Fatal(err)
				}
				if !res.Converged {
					t.Fatal("did not converge")
				}
				for v, want := range algorithms.ShortestPaths(g, 0) {
					if dist[v] != want {
						t.Fatalf("dist[%d] = %v, want %v", v, dist[v], want)
					}
				}
				if cell.mode == BSP {
					checkPin(t, label, res, hashValues(dist, floatBits), seedPin{273, 7, 0x912b72484d9583dc})
				}
			})
			t.Run("pagerank/"+label, func(t *testing.T) {
				t.Parallel()
				const eps = 0.05
				prog := algorithms.PageRank(eps)
				if cell.mode == BSP {
					prog = algorithms.PageRankAggregated(eps)
				}
				pr, res, _, err := Run(equivGraph(false), prog, config())
				if err != nil {
					t.Fatal(err)
				}
				if !res.Converged {
					t.Fatal("did not converge")
				}
				if cell.mode == BSP {
					checkPin(t, label, res, hashValues(pr, floatBits), seedPin{720, 9, 0xd3d2b59dabeb8b00})
				}
			})
			t.Run("coloring/"+label, func(t *testing.T) {
				t.Parallel()
				g := equivGraph(true)
				cfg := config()
				if cell.mode == BSP {
					cfg.MaxSupersteps = 30 // BSP coloring may oscillate (Figure 2)
				}
				colors, res, _, err := Run(g, algorithms.Coloring(), cfg)
				if err != nil {
					t.Fatal(err)
				}
				if cell.mode != BSP && !res.Converged {
					t.Fatal("did not converge")
				}
				if res.Converged && cell.sync.Serializable() {
					if err := algorithms.ValidateColoring(g, colors); err != nil {
						t.Error(err)
					}
				}
				if cell.mode == BSP {
					checkPin(t, label, res, hashValues(colors, colorBits), seedPin{160, 2, 0x96554ce2cfb01525})
				}
			})
		}
	}
}

// TestFrontierSurvivesRewrites drives each path that rewrites halt flags
// or message stores wholesale — checkpoint restore, full rollback, rollback
// to the initial state, confined recovery, topology mutation — and demands
// the exact answer with a frontier that reconciled at every barrier.
func TestFrontierSurvivesRewrites(t *testing.T) {
	g := chaosGraph(t)
	want := algorithms.ShortestPaths(g, 0)
	check := func(t *testing.T, dist []float64, res Result, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatal("did not converge")
		}
		for v := range want {
			if dist[v] != want[v] {
				t.Fatalf("dist[%d] = %v, want %v", v, dist[v], want[v])
			}
		}
	}
	crashAt3 := func() *fault.Injector {
		return fault.NewInjector(fault.Plan{Crashes: []fault.Crash{{Worker: 1, AtSuperstep: 3}}})
	}
	for _, mode := range []Mode{BSP, Async} {
		base := Config{Workers: 4, PartitionsPerWorker: 3, ThreadsPerWorker: 2, Mode: mode, Seed: 5}
		t.Run(mode.String()+"/rollback", func(t *testing.T) {
			cfg := base
			cfg.CheckpointEvery, cfg.CheckpointDir, cfg.Fault = 2, t.TempDir(), crashAt3()
			dist, res, _, err := Run(g, algorithms.SSSP(0), cfg)
			check(t, dist, res, err)
			if a, b := res.Metrics.Get(metrics.Rollbacks), res.Metrics.Get(metrics.ConfinedRecoveries); a != 1 || b != 0 {
				t.Errorf("rollbacks=%d confined=%d, want one full rollback", a, b)
			}
		})
		t.Run(mode.String()+"/reset-to-initial", func(t *testing.T) {
			cfg := base
			cfg.Fault = crashAt3() // no checkpoint to roll back to
			dist, res, _, err := Run(g, algorithms.SSSP(0), cfg)
			check(t, dist, res, err)
			if got := res.Metrics.Get(metrics.Rollbacks); got != 1 {
				t.Errorf("rollbacks=%d, want 1", got)
			}
		})
		t.Run(mode.String()+"/confined", func(t *testing.T) {
			cfg := base
			cfg.CheckpointEvery, cfg.CheckpointDir, cfg.Fault = 2, t.TempDir(), crashAt3()
			cfg.Recovery = RecoverConfined
			dist, res, _, err := Run(g, algorithms.SSSP(0), cfg)
			check(t, dist, res, err)
			if got := res.Metrics.Get(metrics.ConfinedRecoveries); got != 1 {
				t.Errorf("confined recoveries=%d, want 1", got)
			}
		})
		t.Run(mode.String()+"/restore", func(t *testing.T) {
			cfg := base
			cfg.CheckpointEvery, cfg.CheckpointDir = 2, t.TempDir()
			first := cfg
			first.MaxSupersteps = 4
			if _, res, _, err := Run(g, algorithms.SSSP(0), first); err != nil || res.Converged {
				t.Fatalf("first run: err=%v converged=%v, want a run cut short", err, res.Converged)
			}
			latest, err := checkpoint.Latest(cfg.CheckpointDir)
			if err != nil || latest == "" {
				t.Fatalf("no checkpoint: %v", err)
			}
			cfg.RestoreFrom = latest
			dist, res, _, err := Run(g, algorithms.SSSP(0), cfg)
			check(t, dist, res, err)
		})
	}
	t.Run("mutation", func(t *testing.T) {
		b := graph.NewBuilder(4)
		b.AddEdge(0, 1)
		b.AddEdge(0, 2)
		for _, mode := range []Mode{BSP, Async} {
			vals, res, _, err := Run(b.Build(), mutationProbe(), Config{Workers: 2, Mode: mode, MaxSupersteps: 10})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Converged {
				t.Fatalf("%v: did not converge", mode)
			}
			for v, x := range []int32{1, 0, 1, 1} {
				if vals[v] != x {
					t.Errorf("%v: vals[%d] = %d, want %d", mode, v, vals[v], x)
				}
			}
		}
	})
}

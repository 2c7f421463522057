package engine

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"serialgraph/internal/algorithms"
	"serialgraph/internal/cluster"
	"serialgraph/internal/generate"
	"serialgraph/internal/graph"
	"serialgraph/internal/history"
	"serialgraph/internal/metrics"
	"serialgraph/internal/model"
)

// testGraph is a modest power-law graph shared by the engine tests.
func testGraph(t testing.TB) *graph.Graph {
	t.Helper()
	return generate.PowerLaw(generate.PowerLawConfig{N: 400, AvgDegree: 6, Exponent: 2.2, Seed: 11})
}

func undirected(g *graph.Graph) *graph.Graph { return graph.Symmetrize(g) }

var allSyncs = []Sync{SyncNone, TokenSingle, TokenDual, PartitionLock}

func TestSSSPMatchesReferenceAllSyncs(t *testing.T) {
	g := testGraph(t)
	want := algorithms.ShortestPaths(g, 0)
	for _, sync := range allSyncs {
		sync := sync
		t.Run(sync.String(), func(t *testing.T) {
			dist, res, _, err := Run(g, algorithms.SSSP(0), Config{
				Workers: 4, Mode: Async, Sync: sync, Seed: 5,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Converged {
				t.Fatalf("did not converge in %d supersteps", res.Supersteps)
			}
			for v := range want {
				if dist[v] != want[v] {
					t.Fatalf("dist[%d] = %v, want %v", v, dist[v], want[v])
				}
			}
		})
	}
}

func TestSSSPBSP(t *testing.T) {
	g := testGraph(t)
	want := algorithms.ShortestPaths(g, 0)
	dist, res, _, err := Run(g, algorithms.SSSP(0), Config{Workers: 4, Mode: BSP, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("BSP SSSP did not converge")
	}
	for v := range want {
		if dist[v] != want[v] {
			t.Fatalf("dist[%d] = %v, want %v", v, dist[v], want[v])
		}
	}
}

func TestWCCMatchesReferenceAllSyncs(t *testing.T) {
	g := undirected(testGraph(t))
	want := algorithms.Components(g)
	for _, sync := range allSyncs {
		sync := sync
		t.Run(sync.String(), func(t *testing.T) {
			labels, res, _, err := Run(g, algorithms.WCC(), Config{
				Workers: 3, Mode: Async, Sync: sync, Seed: 7,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Converged {
				t.Fatal("did not converge")
			}
			for v := range want {
				if labels[v] != want[v] {
					t.Fatalf("label[%d] = %d, want %d", v, labels[v], want[v])
				}
			}
		})
	}
}

func TestColoringProperUnderSerializableSyncs(t *testing.T) {
	g := undirected(testGraph(t))
	for _, sync := range []Sync{TokenSingle, TokenDual, PartitionLock} {
		sync := sync
		t.Run(sync.String(), func(t *testing.T) {
			colors, res, _, err := Run(g, algorithms.Coloring(), Config{
				Workers: 4, Mode: Async, Sync: sync, Seed: 3,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Converged {
				t.Fatal("did not converge")
			}
			if err := algorithms.ValidateColoring(g, colors); err != nil {
				t.Fatal(err)
			}
			if res.Executions < int64(g.NumVertices()) {
				t.Errorf("only %d executions for %d vertices", res.Executions, g.NumVertices())
			}
		})
	}
}

func TestPageRankConvergesAllSyncs(t *testing.T) {
	g := testGraph(t)
	for _, sync := range allSyncs {
		sync := sync
		t.Run(sync.String(), func(t *testing.T) {
			pr, res, _, err := Run(g, algorithms.PageRank(0.001), Config{
				Workers: 4, Mode: Async, Sync: sync, Seed: 3,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Converged {
				t.Fatal("did not converge")
			}
			if r := algorithms.PageRankResidual(g, pr); r > 0.05 {
				t.Errorf("residual %.4f too large", r)
			}
		})
	}
}

func TestFigure2BSPOscillation(t *testing.T) {
	// The 4-vertex, 2-worker graph of §2.1 (Figure 2): under BSP the
	// recoloring algorithm oscillates between all-0 and all-1 forever.
	b := graph.NewBuilder(4)
	// v0-v2, v0-v3, v1-v2, v1-v3 (the figure's bipartite-ish square).
	for _, e := range [][2]graph.VertexID{{0, 2}, {0, 3}, {1, 2}, {1, 3}} {
		b.AddEdge(e[0], e[1])
	}
	g := b.BuildUndirected()
	colors, res, _, err := Run(g, algorithms.ColoringRecolor(), Config{
		Workers: 2, PartitionsPerWorker: 1, Mode: BSP, MaxSupersteps: 40, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged {
		t.Fatalf("BSP recoloring converged (colors %v); the paper's oscillation should persist", colors)
	}
	// After an even number of full supersteps the vertices hold identical
	// colors — the collective 0/1 oscillation of Figure 2.
	c0 := colors[0]
	for v, c := range colors {
		if c != c0 {
			t.Errorf("vertex %d color %d, want uniform %d (lockstep oscillation)", v, c, c0)
		}
	}
}

func TestFigure2ResolvedBySerializability(t *testing.T) {
	b := graph.NewBuilder(4)
	for _, e := range [][2]graph.VertexID{{0, 2}, {0, 3}, {1, 2}, {1, 3}} {
		b.AddEdge(e[0], e[1])
	}
	g := b.BuildUndirected()
	colors, res, _, err := Run(g, algorithms.ColoringRecolor(), Config{
		Workers: 2, PartitionsPerWorker: 1, Mode: Async, Sync: PartitionLock,
		MaxSupersteps: 100, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("serializable recoloring did not converge")
	}
	if err := algorithms.ValidateColoring(g, colors); err != nil {
		t.Fatal(err)
	}
}

func TestSerializabilityHistoryClean(t *testing.T) {
	// Every serializable technique must produce a history passing C1, C2,
	// and the 1SR check on the overwrite-semantics coloring workload.
	g := undirected(generate.PowerLaw(generate.PowerLawConfig{N: 150, AvgDegree: 5, Exponent: 2.2, Seed: 9}))
	for _, sync := range []Sync{TokenSingle, TokenDual, PartitionLock} {
		sync := sync
		t.Run(sync.String(), func(t *testing.T) {
			_, _, rec, err := Run(g, algorithms.Coloring(), Config{
				Workers: 4, Mode: Async, Sync: sync, Seed: 2, TrackHistory: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			if rec == nil || rec.Len() == 0 {
				t.Fatal("no history recorded")
			}
			if v := history.CheckAll(rec.Txns(), g); v != nil {
				t.Fatalf("violations under %v: %v (of %d txns)", sync, v[:min(3, len(v))], rec.Len())
			}
		})
	}
}

// TestTokenC1OnSlowLanes pins the one rule token passing rests on: a
// token moves only at a barrier (tokenState is a function of the
// superstep), and the barrier waits for the transport to go idle. Slow
// lanes keep the holder's replica updates in flight long after every
// worker has finished computing, so a barrier that did not wait for them
// would let the next holder read a stale replica, which CheckC1 reports.
// The Gibbs sampler stays active for its sweeps and broadcasts every write
// (write-all), and each execution takes a little while, so a replica slot
// fills within a token round and a later, slower update leaves it one
// version behind: the recorder only sees reads of slots holding a message.
// A token run sends no control traffic at all.
func TestTokenC1OnSlowLanes(t *testing.T) {
	g := undirected(generate.PowerLaw(generate.PowerLawConfig{N: 60, AvgDegree: 4, Exponent: 2.2, Seed: 9}))
	prog := algorithms.IsingGibbs(0.5, 4, 1)
	gibbs := prog.Compute
	prog.Compute = func(ctx model.Context[algorithms.GibbsValue, int32], msgs []int32) {
		time.Sleep(200 * time.Microsecond)
		gibbs(ctx, msgs)
	}
	for _, kind := range []TransportKind{TransportInProc, TransportTCP} {
		for _, sync := range []Sync{TokenSingle, TokenDual} {
			t.Run(kind.String()+"/"+sync.String(), func(t *testing.T) {
				if kind == TransportTCP {
					equivRequireLoopback(t)
				}
				_, res, rec, err := Run(g, prog, Config{
					Workers: 3, PartitionsPerWorker: 2, Mode: Async, Sync: sync, Seed: 4,
					Transport: kind, TrackHistory: true,
					Latency: cluster.LatencyModel{Propagation: 5 * time.Millisecond, BytesPerSec: 2e4},
				})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Converged {
					t.Fatalf("did not converge in %d supersteps", res.Supersteps)
				}
				if v := history.CheckAll(rec.Txns(), g); v != nil {
					t.Fatalf("violations: %v (of %d txns)", v[:min(3, len(v))], rec.Len())
				}
				if n := res.Net.ControlMessages; n != 0 {
					t.Errorf("token run sent %d control messages", n)
				}
			})
		}
	}
}

func TestNonSerializableEngineViolatesC2Eventually(t *testing.T) {
	// Giraph async without a synchronization technique lets neighboring
	// vertices run concurrently; on a dense graph with many workers the
	// checker must catch at least a C2 overlap. (This is the "only if"
	// direction of Theorem 1 made empirical.)
	g := generate.Complete(24)
	found := false
	for attempt := 0; attempt < 10 && !found; attempt++ {
		_, _, rec, err := Run(g, algorithms.PageRank(0.0001), Config{
			Workers: 4, Mode: Async, Sync: SyncNone, Seed: uint64(attempt),
			TrackHistory: true, MaxSupersteps: 50,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range history.CheckAll(rec.Txns(), g) {
			if v.Kind == "C2" || v.Kind == "C1" {
				found = true
				break
			}
		}
	}
	if !found {
		t.Error("no C1/C2 violation detected in 10 unsynchronized dense runs")
	}
}

func TestBSPWithSyncRejected(t *testing.T) {
	g := testGraph(t)
	for _, sync := range []Sync{TokenSingle, TokenDual, PartitionLock} {
		_, _, _, err := Run(g, algorithms.SSSP(0), Config{Workers: 2, Mode: BSP, Sync: sync})
		if err == nil {
			t.Errorf("BSP with %v was not rejected", sync)
		}
	}
}

func TestSingleWorkerAllSyncs(t *testing.T) {
	g := undirected(testGraph(t))
	for _, sync := range allSyncs {
		colors, res, _, err := Run(g, algorithms.Coloring(), Config{
			Workers: 1, Mode: Async, Sync: sync,
		})
		if err != nil {
			t.Fatalf("%v: %v", sync, err)
		}
		if !res.Converged {
			t.Fatalf("%v: did not converge", sync)
		}
		// A single worker executes partitions... coloring may still race
		// across partitions without sync; just require full color
		// assignment for SyncNone and propriety for serializable modes.
		if sync.Serializable() {
			if err := algorithms.ValidateColoring(g, colors); err != nil {
				t.Errorf("%v: %v", sync, err)
			}
		}
	}
}

func TestTokenScheduleDual(t *testing.T) {
	r := &runner[int32, int32]{cfg: Config{Workers: 3, PartitionsPerWorker: 2, Sync: TokenDual}}
	type hs struct{ h, l int }
	var got []hs
	for s := 0; s < 6; s++ {
		h, l := r.tokenState(s)
		got = append(got, hs{h, l})
	}
	want := []hs{{0, 0}, {0, 1}, {1, 0}, {1, 1}, {2, 0}, {2, 1}}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("slot %d = %+v, want %+v (schedule %v)", i, got[i], want[i], got)
		}
	}
}

func TestTokenSingleUsesOneThread(t *testing.T) {
	cfg := Config{Workers: 2, Sync: TokenSingle, ThreadsPerWorker: 8}.withDefaults()
	if cfg.ThreadsPerWorker != 1 {
		t.Errorf("TokenSingle threads = %d, want 1", cfg.ThreadsPerWorker)
	}
}

func TestAggregators(t *testing.T) {
	// A program that sums vertex count into an aggregator and reads it the
	// next superstep.
	g := generate.Ring(20)
	prog := countingProgram()
	vals, res, _, err := Run(g, prog, Config{Workers: 2, Mode: Async, MaxSupersteps: 3})
	if err != nil {
		t.Fatal(err)
	}
	_ = res
	for v, x := range vals {
		if x != 20 {
			t.Fatalf("vertex %d read aggregate %v, want 20", v, x)
		}
	}
}

func TestResultStats(t *testing.T) {
	g := undirected(testGraph(t))
	_, res, _, err := Run(g, algorithms.Coloring(), Config{
		Workers: 4, Mode: Async, Sync: PartitionLock, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Partition.Partitions != 16 {
		t.Errorf("Partitions = %d, want 16", res.Partition.Partitions)
	}
	if res.ForkSends == 0 || res.Metrics.Get(metrics.TokenSends) == 0 {
		t.Errorf("no fork/token traffic recorded: %+v", res)
	}
	if res.Net.DataMessages == 0 {
		t.Error("no data batches recorded")
	}
	if res.MaxConcurrency < 1 {
		t.Error("no concurrency recorded")
	}
	if res.ComputeTime <= 0 {
		t.Error("no compute time recorded")
	}
}

func TestPageRankSumNearN(t *testing.T) {
	g := testGraph(t)
	pr, _, _, err := Run(g, algorithms.PageRank(0.0001), Config{Workers: 2, Mode: Async})
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, x := range pr {
		sum += x
	}
	// Dangling-vertex leakage means sum <= n; it should still be within
	// range for a connected-ish graph.
	if sum < float64(g.NumVertices())/3 || sum > float64(g.NumVertices())*1.2 {
		t.Errorf("sum(pr) = %.1f for n = %d", sum, g.NumVertices())
	}
	if math.IsNaN(sum) {
		t.Error("NaN rank")
	}
}

// countingProgram aggregates 1 per vertex in superstep 0 and stores the
// aggregate in superstep 1.
func countingProgram() model.Program[float64, int32] {
	return model.Program[float64, int32]{
		Name:      "count",
		Semantics: model.Queue,
		MsgBytes:  4,
		Compute: func(ctx model.Context[float64, int32], msgs []int32) {
			switch ctx.Superstep() {
			case 0:
				ctx.Aggregate("n", 1)
			case 1:
				ctx.SetValue(ctx.Aggregated("n"))
				ctx.VoteToHalt()
			default:
				ctx.VoteToHalt()
			}
		},
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// TestSerializabilityPropertyRandomConfigs fuzzes graph shapes, cluster
// sizes, and techniques: every serializable configuration must produce a
// violation-free history and a proper coloring.
func TestSerializabilityPropertyRandomConfigs(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 20 + r.Intn(150)
		g := undirected(generate.PowerLaw(generate.PowerLawConfig{
			N: n, AvgDegree: 2 + float64(r.Intn(6)), Exponent: 2.0 + r.Float64(), Seed: seed,
		}))
		syncs := []Sync{TokenSingle, TokenDual, PartitionLock, VertexLockGiraph}
		sync := syncs[r.Intn(len(syncs))]
		cfg := Config{
			Workers:             1 + r.Intn(6),
			PartitionsPerWorker: 1 + r.Intn(5),
			ThreadsPerWorker:    1 + r.Intn(4),
			Mode:                Async,
			Sync:                sync,
			Seed:                uint64(seed),
			TrackHistory:        true,
		}
		colors, res, rec, err := Run(g, algorithms.Coloring(), cfg)
		if err != nil {
			t.Logf("seed %d %v: %v", seed, sync, err)
			return false
		}
		if !res.Converged {
			t.Logf("seed %d %v: not converged", seed, sync)
			return false
		}
		if algorithms.ValidateColoring(g, colors) != nil {
			t.Logf("seed %d %v: improper coloring", seed, sync)
			return false
		}
		if v := history.CheckAll(rec.Txns(), g); v != nil {
			t.Logf("seed %d %v: %v", seed, sync, v[0])
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

package gas

import (
	"fmt"
	"testing"
	"time"

	"serialgraph/internal/algorithms"
	"serialgraph/internal/cluster"
	"serialgraph/internal/generate"
	"serialgraph/internal/graph"
	"serialgraph/internal/history"
)

func testGraph() *graph.Graph {
	return generate.PowerLaw(generate.PowerLawConfig{N: 300, AvgDegree: 5, Exponent: 2.2, Seed: 21})
}

func undirected(g *graph.Graph) *graph.Graph {
	b := graph.NewBuilder(g.NumVertices())
	for u := graph.VertexID(0); int(u) < g.NumVertices(); u++ {
		for _, v := range g.OutNeighbors(u) {
			b.AddEdge(u, v)
		}
	}
	return b.BuildUndirected()
}

func TestColoringSerializableSinglePassProper(t *testing.T) {
	g := undirected(testGraph())
	colors, res, _, err := Run(g, algorithms.ColoringGAS(), Config{
		Workers: 4, Serializable: true, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("did not quiesce")
	}
	if err := algorithms.ValidateColoring(g, colors); err != nil {
		t.Fatal(err)
	}
	// Serializable GAS coloring completes in about one execution per
	// vertex (§7.2.1: GraphLab async completes in a single iteration);
	// allow slack for scatter re-checks.
	if res.Executions > 4*int64(g.NumVertices()) {
		t.Errorf("%d executions for %d vertices: not single-pass-ish", res.Executions, g.NumVertices())
	}
}

func TestSSSPMatchesReference(t *testing.T) {
	g := testGraph()
	want := algorithms.ShortestPaths(g, 0)
	dist, res, _, err := Run(g, algorithms.SSSPGAS(0), Config{Workers: 3, Serializable: true, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("did not quiesce")
	}
	for v := range want {
		if dist[v] != want[v] {
			t.Fatalf("dist[%d] = %v, want %v", v, dist[v], want[v])
		}
	}
}

func TestWCCMatchesReference(t *testing.T) {
	g := undirected(testGraph())
	want := algorithms.Components(g)
	labels, res, _, err := Run(g, algorithms.WCCGAS(), Config{Workers: 4, Serializable: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("did not quiesce")
	}
	for v := range want {
		if labels[v] != want[v] {
			t.Fatalf("label[%d] = %d, want %d", v, labels[v], want[v])
		}
	}
}

func TestPageRankConverges(t *testing.T) {
	g := testGraph()
	pr, res, _, err := Run(g, algorithms.PageRankGAS(g, 0.001), Config{Workers: 3, Serializable: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("did not quiesce")
	}
	if r := algorithms.PageRankResidual(g, pr); r > 0.05 {
		t.Errorf("residual %.4f", r)
	}
}

func TestNonSerializableAlsoRuns(t *testing.T) {
	// GraphLab async without locking still computes SSSP correctly
	// (monotone algorithm), just without C2 guarantees.
	g := testGraph()
	want := algorithms.ShortestPaths(g, 0)
	dist, res, _, err := Run(g, algorithms.SSSPGAS(0), Config{Workers: 3, Serializable: false})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("did not quiesce")
	}
	for v := range want {
		if dist[v] != want[v] {
			t.Fatalf("dist[%d] = %v, want %v", v, dist[v], want[v])
		}
	}
	if res.ForkSends != 0 {
		t.Error("fork traffic without serializability")
	}
}

// TestSerializableHistoryClean runs the batched lock path end to end: forks
// travel in per-destination batches behind one preHandoff flush, and the
// recorded history must still satisfy C1, C2 and 1SR. The BufferCap 2 cells
// make full-batch sends race fork flushes all the time; at the default cap
// batches average about three updates, so that race never opens.
func TestSerializableHistoryClean(t *testing.T) {
	for _, bufCap := range []int{512, 2} {
		for seed := uint64(4); seed < 7; seed++ {
			t.Run(fmt.Sprintf("cap%d/seed%d", bufCap, seed), func(t *testing.T) {
				g := undirected(generate.PowerLaw(generate.PowerLawConfig{N: 120, AvgDegree: 4, Exponent: 2.2, Seed: int64(4 + seed)}))
				colors, res, rec, err := Run(g, algorithms.ColoringGAS(), Config{
					Workers: 4, Serializable: true, TrackHistory: true, Seed: seed, BufferCap: bufCap,
					Latency: cluster.LatencyModel{Propagation: 50 * time.Microsecond},
				})
				if err != nil {
					t.Fatal(err)
				}
				if rec.Len() == 0 {
					t.Fatal("no history")
				}
				if v := history.CheckAll(rec.Txns(), g); v != nil {
					t.Fatalf("violations: %v", v[:min(3, len(v))])
				}
				if err := algorithms.ValidateColoring(g, colors); err != nil {
					t.Fatal(err)
				}
				if res.Net.ControlMessages >= res.ForkSends+res.TokenSends {
					t.Errorf("%d control messages for %d forks and %d tokens: nothing was batched",
						res.Net.ControlMessages, res.ForkSends, res.TokenSends)
				}
			})
		}
	}
}

// BenchmarkGASColoring is one serializable colouring end to end: vertex
// locks, replica updates and the scheduler, at the fixed benchmark's
// vl_coloring_gas shape scaled down.
func BenchmarkGASColoring(b *testing.B) {
	g := undirected(generate.PowerLaw(generate.PowerLawConfig{N: 2000, AvgDegree: 12, Exponent: 2.2, Seed: 5}))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, res, _, err := Run(g, algorithms.ColoringGAS(), Config{Workers: 4, FibersPerWorker: 16, Serializable: true, Seed: 1}); err != nil || !res.Converged {
			b.Fatalf("err=%v converged=%v", err, res.Converged)
		}
	}
}

func TestVertexLockGeneratesPerVertexForkTraffic(t *testing.T) {
	// The hallmark of vertex-based locking (§5.2): fork counts scale with
	// the number of vertex neighbors, far exceeding partition counts.
	g := undirected(testGraph())
	_, res, _, err := Run(g, algorithms.ColoringGAS(), Config{Workers: 4, Serializable: true, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.ForkSends < int64(g.NumVertices()) {
		t.Errorf("fork sends %d suspiciously low for %d vertices", res.ForkSends, g.NumVertices())
	}
}

func TestMaxExecutionsGuard(t *testing.T) {
	// An adversarial program that reactivates forever must hit the guard
	// and report Converged=false.
	g := generate.Ring(10)
	prog := algorithms.WCCGAS()
	prog.Apply = func(u graph.VertexID, old int32, acc int32, hasAcc bool) (int32, bool) {
		return old + 1, true // always change, always scatter
	}
	_, res, _, err := Run(g, prog, Config{Workers: 2, Serializable: true, MaxExecutions: 500})
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged {
		t.Error("runaway program reported convergence")
	}
}

func TestSingleWorker(t *testing.T) {
	g := undirected(testGraph())
	colors, res, _, err := Run(g, algorithms.ColoringGAS(), Config{Workers: 1, Serializable: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("did not quiesce")
	}
	if err := algorithms.ValidateColoring(g, colors); err != nil {
		t.Fatal(err)
	}
	if res.Net.DataMessages != 0 {
		t.Error("network traffic on one worker")
	}
}

func TestWithLatency(t *testing.T) {
	g := undirected(generate.PowerLaw(generate.PowerLawConfig{N: 100, AvgDegree: 4, Exponent: 2.2, Seed: 12}))
	colors, res, _, err := Run(g, algorithms.ColoringGAS(), Config{
		Workers: 4, Serializable: true,
		Latency: cluster.LatencyModel{Propagation: 100 * time.Microsecond, BytesPerSec: 1 << 28},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("did not quiesce under latency")
	}
	if err := algorithms.ValidateColoring(g, colors); err != nil {
		t.Fatal(err)
	}
}

func TestSingleFiberStillCorrect(t *testing.T) {
	// One fiber per worker serializes local execution but cross-worker
	// concurrency remains; locking must still produce a proper coloring.
	g := undirected(generate.PowerLaw(generate.PowerLawConfig{N: 150, AvgDegree: 4, Exponent: 2.2, Seed: 31}))
	colors, res, _, err := Run(g, algorithms.ColoringGAS(), Config{
		Workers: 4, FibersPerWorker: 1, Serializable: true, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("did not quiesce")
	}
	if err := algorithms.ValidateColoring(g, colors); err != nil {
		t.Fatal(err)
	}
}

func TestManyFibersStress(t *testing.T) {
	g := undirected(generate.PowerLaw(generate.PowerLawConfig{N: 400, AvgDegree: 6, Exponent: 2.1, Seed: 33}))
	colors, res, _, err := Run(g, algorithms.ColoringGAS(), Config{
		Workers: 2, FibersPerWorker: 256, Serializable: true, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("did not quiesce")
	}
	if err := algorithms.ValidateColoring(g, colors); err != nil {
		t.Fatal(err)
	}
}

func TestMISGreedyGASValid(t *testing.T) {
	g := undirected(testGraph())
	states, res, _, err := Run(g, algorithms.MISGreedyGAS(), Config{
		Workers: 4, Serializable: true, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("did not quiesce")
	}
	if err := algorithms.ValidateMIS(g, states); err != nil {
		t.Fatal(err)
	}
}

func TestRerunWhileRunning(t *testing.T) {
	// A program whose scatter immediately re-activates the same vertices
	// exercises the running -> runningRerun -> requeue state machine; the
	// MaxExecutions guard ends it.
	g := generate.Ring(6)
	prog := algorithms.WCCGAS()
	prog.Apply = func(u graph.VertexID, old int32, acc int32, hasAcc bool) (int32, bool) {
		return old + 1, true
	}
	_, res, _, err := Run(g, prog, Config{
		Workers: 1, FibersPerWorker: 8, Serializable: false, MaxExecutions: 300,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged {
		t.Error("self-reactivating program quiesced")
	}
	if res.Executions < 100 {
		t.Errorf("only %d executions before guard", res.Executions)
	}
}

func TestGASStatsPopulated(t *testing.T) {
	g := undirected(testGraph())
	_, res, _, err := Run(g, algorithms.ColoringGAS(), Config{Workers: 4, Serializable: true, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if res.Executions == 0 || res.ComputeTime <= 0 {
		t.Errorf("missing stats: %+v", res)
	}
	if res.ForkSends == 0 || res.TokenSends == 0 {
		t.Errorf("missing lock traffic: forks=%d tokens=%d", res.ForkSends, res.TokenSends)
	}
	if res.Net.ControlMessages == 0 {
		t.Error("no remote control traffic across 4 workers")
	}
}

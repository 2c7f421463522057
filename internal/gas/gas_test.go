package gas

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"serialgraph/internal/algorithms"
	"serialgraph/internal/cluster"
	"serialgraph/internal/generate"
	"serialgraph/internal/graph"
	"serialgraph/internal/history"
	"serialgraph/internal/metrics"
)

func testGraph() *graph.Graph {
	return generate.PowerLaw(generate.PowerLawConfig{N: 300, AvgDegree: 5, Exponent: 2.2, Seed: 21})
}

func undirected(g *graph.Graph) *graph.Graph { return graph.Symmetrize(g) }

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

// idleLatency keeps replica updates on the wire while their senders go
// idle, so a termination detector that stops counting an update before its
// handler has run (or loses an idle worker's wake-up) ends the run early.
var idleLatency = cluster.LatencyModel{Propagation: 200 * time.Microsecond}

func TestSSSPMatchesReference(t *testing.T) {
	g := testGraph()
	want := algorithms.ShortestPaths(g, 0)
	for _, lat := range []cluster.LatencyModel{{}, idleLatency} {
		dist, res, _, err := Run(g, algorithms.SSSPGAS(0), Config{Workers: 3, Serializable: true, Seed: 5, Latency: lat})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatalf("latency %v: did not quiesce", lat.Propagation)
		}
		for v := range want {
			if dist[v] != want[v] {
				t.Fatalf("latency %v: dist[%d] = %v, want %v", lat.Propagation, v, dist[v], want[v])
			}
		}
	}
}

func TestWCCMatchesReference(t *testing.T) {
	g := undirected(testGraph())
	want := algorithms.Components(g)
	for _, lat := range []cluster.LatencyModel{{}, idleLatency} {
		labels, res, _, err := Run(g, algorithms.WCCGAS(), Config{Workers: 4, Serializable: true, Seed: 1, Latency: lat})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatalf("latency %v: did not quiesce", lat.Propagation)
		}
		for v := range want {
			if labels[v] != want[v] {
				t.Fatalf("latency %v: label[%d] = %d, want %d", lat.Propagation, v, labels[v], want[v])
			}
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
				if res.Net.ControlMessages >= res.ForkSends+res.Metrics.Get(metrics.TokenSends) {
					t.Errorf("%d control messages for %d forks and %d tokens: nothing was batched",
						res.Net.ControlMessages, res.ForkSends, res.Metrics.Get(metrics.TokenSends))
				}
			})
		}
	}
}

// gasColoring is one serializable colouring end to end: vertex locks,
// replica updates and the scheduler, at the fixed benchmark's
// vl_coloring_gas shape scaled down.
func gasColoring(tb testing.TB) func() {
	g := undirected(generate.PowerLaw(generate.PowerLawConfig{N: 2000, AvgDegree: 12, Exponent: 2.2, Seed: 5}))
	return func() {
		if _, res, _, err := Run(g, algorithms.ColoringGAS(), Config{Workers: 4, FibersPerWorker: 16, Serializable: true, Seed: 1}); err != nil || !res.Converged {
			tb.Fatalf("err=%v converged=%v", err, res.Converged)
		}
	}
}

// BenchmarkGASColoring times gasColoring.
func BenchmarkGASColoring(b *testing.B) {
	run := gasColoring(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		run()
	}
}

// TestGASColoringAllocs holds BenchmarkGASColoring's allocations to a third
// of the 143 K objects per run it took while every control batch was
// copied and boxed, every replica update cloned its activation list and
// the colouring gather made a slice per neighbour.
func TestGASColoringAllocs(t *testing.T) {
	const before = 143_138
	if n := testing.AllocsPerRun(2, gasColoring(t)); n > before/3 {
		t.Errorf("a serializable GAS colouring allocates %v objects, want at most %d", n, before/3)
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
	if res.ForkSends == 0 || res.Metrics.Get(metrics.TokenSends) == 0 {
		t.Errorf("missing lock traffic: forks=%d tokens=%d", res.ForkSends, res.Metrics.Get(metrics.TokenSends))
	}
	if res.Net.ControlMessages == 0 {
		t.Error("no remote control traffic across 4 workers")
	}
}

// TestGASMetricsLedger: a vertex-locking GAS run fills the same counter
// ledger an engine run does. Each execution is one lock acquisition, and
// the two are counted at independent sites (the GAS fiber and the
// Chandy–Misra manager), so they must agree exactly; Result.ForkSends is
// the ledger's fork_grants.
func TestGASMetricsLedger(t *testing.T) {
	g := undirected(testGraph())
	_, res, _, err := Run(g, algorithms.ColoringGAS(), Config{Workers: 3, Serializable: true, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	m := res.Metrics
	execs, acquires := m.Get(metrics.Executions), m.Get(metrics.LockAcquires)
	if execs == 0 || acquires != execs {
		t.Errorf("lock_acquires = %d, executions = %d, want equal and nonzero", acquires, execs)
	}
	if got := m.Hist(metrics.HistLockWait).Count; got != acquires {
		t.Errorf("lock_wait hist count = %d, lock_acquires = %d", got, acquires)
	}
	forks := m.Get(metrics.ForkGrants)
	if forks == 0 {
		t.Error("fork_grants = 0 on a locking run")
	}
	if res.ForkSends != forks {
		t.Errorf("Result.ForkSends = %d, fork_grants = %d", res.ForkSends, forks)
	}
}

// TestGASCtrlReconciles: every fork and token batch a GAS lock manager
// sends is counted once, so ctrl_messages and ctrl_bytes equal the
// transport's control ledger, as they do for the engine.
func TestGASCtrlReconciles(t *testing.T) {
	g := undirected(testGraph())
	_, res, _, err := Run(g, algorithms.ColoringGAS(), Config{Workers: 4, Serializable: true, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	m := res.Metrics
	if got, want := m.Get(metrics.CtrlMessages), res.Net.ControlMessages; got != want || got == 0 {
		t.Errorf("ctrl_messages %d, transport control messages %d", got, want)
	}
	if got, want := m.Get(metrics.CtrlBytes), res.Net.ControlBytes; got != want {
		t.Errorf("ctrl_bytes %d, transport control bytes %d", got, want)
	}
}

// TestGASBatchesReconcile: every replica-update batch an outbox sends is
// counted once, so remote_batches and remote_batch_bytes equal the
// transport's data ledger, with and without locking.
func TestGASBatchesReconcile(t *testing.T) {
	g := undirected(testGraph())
	for _, serializable := range []bool{false, true} {
		_, res, _, err := Run(g, algorithms.ColoringGAS(), Config{Workers: 4, Serializable: serializable, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		m := res.Metrics
		if got, want := m.Get(metrics.RemoteBatches), res.Net.DataMessages; got != want || got == 0 {
			t.Errorf("serializable=%v: remote_batches %d, transport data batches %d", serializable, got, want)
		}
		if got, want := m.Get(metrics.RemoteBatchBytes), res.Net.DataBytes; got != want {
			t.Errorf("serializable=%v: remote_batch_bytes %d, transport data bytes %d", serializable, got, want)
		}
		if flushed, batches := m.Get(metrics.RemoteEntriesFlushed), m.Get(metrics.RemoteBatches); flushed < batches {
			t.Errorf("serializable=%v: %d entries in %d batches", serializable, flushed, batches)
		}
	}
}

// TestComputeTimeCoversExecutions: ComputeTime spans every execution, from
// the first one's start to the last one's end, as the program itself
// records them. Fibers execute as soon as they are spawned, so a clock
// started after spawning them misses the first executions.
func TestComputeTimeCoversExecutions(t *testing.T) {
	var mu sync.Mutex
	var first, last time.Time
	stamp := func() {
		now := time.Now()
		mu.Lock()
		if first.IsZero() || now.Before(first) {
			first = now
		}
		mu.Unlock()
	}
	prog := algorithms.SSSPGAS(0)
	gather, apply := prog.Gather, prog.Apply
	prog.Gather = func(u, nbr graph.VertexID, nbrVal float64, w float64) float64 {
		stamp()
		return gather(u, nbr, nbrVal, w)
	}
	prog.Apply = func(u graph.VertexID, old, acc float64, hasAcc bool) (float64, bool) {
		stamp() // a vertex with no in-edges gathers nothing
		v, scatter := apply(u, old, acc, hasAcc)
		now := time.Now()
		mu.Lock()
		if now.After(last) {
			last = now
		}
		mu.Unlock()
		return v, scatter
	}
	_, res, _, err := Run(testGraph(), prog, Config{Workers: 4, FibersPerWorker: 256, Serializable: true, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if span := last.Sub(first); res.ComputeTime < span {
		t.Errorf("ComputeTime %v, executions span %v", res.ComputeTime, span)
	}
}

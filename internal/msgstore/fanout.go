package msgstore

import "serialgraph/internal/graph"

// FanOut is the Dst of a fan-out entry: Src's message for every in-edge from
// Src to a vertex the receiving store owns (DESIGN.md §9).
const FanOut graph.VertexID = -1

// Target is one owned in-edge: its destination's local index and its
// in-slot, biased by one like Entry.Slot.
type Target struct {
	Local int32
	Slot  uint32
}

// FanOutTable is one worker's source table, a CSR keyed by global source
// over its owned in-edges: Row(u) has one Target per in-edge u->v, v owned,
// by ascending local index, so a multi-edge or self-loop keeps its slots.
type FanOutTable struct {
	off []int32 // len NumVertices+1, indexed by global source
	tgt []Target
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
	tgt := make([]Target, off[n+1])
	for li, v := range owned {
		for pos, u := range g.InNeighbors(v) {
			tgt[off[u+1]] = Target{Local: int32(li), Slot: uint32(pos) + 1}
			off[u+1]++ // ends at row u's end, row u+1's start
		}
	}
	return &FanOutTable{off: off[:n+1], tgt: tgt}
}

// Row returns the targets of source u. The slice aliases the table.
func (t *FanOutTable) Row(u graph.VertexID) []Target { return t.tgt[t.off[u]:t.off[u+1]] }

package graph

// relabel.go implements degree-ordered vertex relabeling: a permutation
// of the dense ID space that clusters hubs at low IDs. Streaming
// partitioners and range partitioning both benefit — hubs get placed
// first, while their capacity discount still has room to spread them —
// and the CSR arrays touch hot vertices in a compact prefix. The
// permutation is applied at load time; callers keep the remap table so
// external IDs, outputs, and golden results are unchanged: algorithm
// inputs (e.g. an SSSP source) map through NewID, and result slices map
// back through Unpermute.

import "sort"

// Relabeling is a bijection between an original dense ID space and a
// relabeled one, with both directions materialized.
type Relabeling struct {
	fwd []VertexID // original ID -> relabeled ID
	inv []VertexID // relabeled ID -> original ID
}

// DegreeOrder computes the hub-clustering permutation of g: vertices
// sorted by descending total degree (in+out), ties broken by ascending
// original ID so the permutation is deterministic for a given graph.
func DegreeOrder(g *Graph) *Relabeling {
	n := g.NumVertices()
	inv := make([]VertexID, n)
	for i := range inv {
		inv[i] = VertexID(i)
	}
	deg := func(v VertexID) int { return g.OutDegree(v) + g.InDegree(v) }
	sort.Slice(inv, func(i, j int) bool {
		di, dj := deg(inv[i]), deg(inv[j])
		if di != dj {
			return di > dj
		}
		return inv[i] < inv[j]
	})
	fwd := make([]VertexID, n)
	for newID, oldID := range inv {
		fwd[oldID] = VertexID(newID)
	}
	return &Relabeling{fwd: fwd, inv: inv}
}

// Len returns the size of the relabeled ID space.
func (r *Relabeling) Len() int { return len(r.fwd) }

// NewID maps an original dense ID to its relabeled ID.
func (r *Relabeling) NewID(old VertexID) VertexID { return r.fwd[old] }

// OldID maps a relabeled ID back to the original dense ID.
func (r *Relabeling) OldID(relabeled VertexID) VertexID { return r.inv[relabeled] }

// Apply rebuilds g under the permutation: edge (u,v) becomes
// (NewID(u), NewID(v)), weights and the undirected flag are preserved,
// and multi-edges/self-loops survive untouched. The rebuild is
// deterministic for a given g — it streams g's own CSR edge order
// through fromKeys, which keeps parallel edges in that order.
func (r *Relabeling) Apply(g *Graph) *Graph {
	if g.NumVertices() != r.Len() {
		panic("graph: relabeling size does not match graph")
	}
	keys := make([]uint64, 0, g.NumEdges())
	for u := VertexID(0); int32(u) < g.n; u++ {
		for _, v := range g.OutNeighbors(u) {
			keys = append(keys, edgeKey(r.fwd[u], r.fwd[v]))
		}
	}
	return fromKeys(g.n, keys, g.outW, false, g.undirected)
}

// Unpermute reindexes a per-vertex result slice from the relabeled
// space back to the original: out[old] = vals[NewID(old)]. It is the
// output half of the remap contract — run on Apply(g), then Unpermute
// the values, and the result is indexed exactly as an un-relabeled run.
func Unpermute[T any](r *Relabeling, vals []T) []T {
	if len(vals) != r.Len() {
		panic("graph: value slice size does not match relabeling")
	}
	out := make([]T, len(vals))
	for old, relabeled := range r.fwd {
		out[old] = vals[relabeled]
	}
	return out
}

// Permute reindexes a per-vertex slice from the original space into the
// relabeled one: out[NewID(old)] = vals[old] (the inverse of Unpermute,
// for inputs prepared in original indexing).
func Permute[T any](r *Relabeling, vals []T) []T {
	if len(vals) != r.Len() {
		panic("graph: value slice size does not match relabeling")
	}
	out := make([]T, len(vals))
	for old, relabeled := range r.fwd {
		out[relabeled] = vals[old]
	}
	return out
}

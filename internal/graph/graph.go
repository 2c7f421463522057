// Package graph provides the in-memory graph representation used throughout
// serialgraph: a compressed sparse row (CSR) structure over dense vertex IDs
// with both out- and in-adjacency, plus builders and degree statistics.
//
// Vertex IDs are always dense integers in [0, NumVertices). Loaders remap
// arbitrary external IDs to this dense space (see io.go).
package graph

import (
	"cmp"
	"fmt"
	"slices"
)

// VertexID identifies a vertex. IDs are dense: 0 <= id < NumVertices.
type VertexID int32

// Edge is a directed edge with an optional weight.
type Edge struct {
	Src, Dst VertexID
	Weight   float64
}

// Graph is an immutable directed graph in CSR form. The in-adjacency is
// always materialized because the vertex-centric transaction model reads
// from in-edge neighbors (read set Nu) while writes propagate along
// out-edges; both synchronization and classification need both directions.
// Every list, out and in, is ascending; an undirected graph's in-CSR
// shares the out-CSR's arrays.
type Graph struct {
	n int32

	outOff []int32    // len n+1
	outDst []VertexID // len m
	outW   []float64  // len m, nil when unweighted

	inOff []int32    // len n+1
	inSrc []VertexID // len m

	undirected bool
}

// NumVertices returns the number of vertices.
func (g *Graph) NumVertices() int { return int(g.n) }

// NumEdges returns the number of directed edges stored.
func (g *Graph) NumEdges() int { return len(g.outDst) }

// Undirected reports whether the graph was built as a symmetrized
// (undirected) graph, in which case every edge appears in both directions.
func (g *Graph) Undirected() bool { return g.undirected }

// OutNeighbors returns the out-edge neighbor slice of u (sorted ascending).
// The returned slice aliases internal storage and must not be modified.
func (g *Graph) OutNeighbors(u VertexID) []VertexID {
	return g.outDst[g.outOff[u]:g.outOff[u+1]]
}

// OutWeights returns the weights parallel to OutNeighbors(u), or nil for an
// unweighted graph.
func (g *Graph) OutWeights(u VertexID) []float64 {
	if g.outW == nil {
		return nil
	}
	return g.outW[g.outOff[u]:g.outOff[u+1]]
}

// InNeighbors returns the in-edge neighbor slice of u (sorted ascending).
// The returned slice aliases internal storage and must not be modified.
func (g *Graph) InNeighbors(u VertexID) []VertexID {
	return g.inSrc[g.inOff[u]:g.inOff[u+1]]
}

// OutDegree returns the out-degree of u.
func (g *Graph) OutDegree(u VertexID) int { return int(g.outOff[u+1] - g.outOff[u]) }

// InDegree returns the in-degree of u.
func (g *Graph) InDegree(u VertexID) int { return int(g.inOff[u+1] - g.inOff[u]) }

// InSlot returns the position of src within InNeighbors(u), and whether such
// an in-edge exists. Positions index per-source message slots in overwrite
// message stores; with duplicate in-edges the first occurrence wins, so
// every lookup for the same (u, src) resolves to the same slot.
//
// Real-world in-degrees are mostly tiny (power-law graphs put the mass
// on low-degree vertices), so small lists take a branch-light two-way
// scan: one range check against both ends rejects misses — the
// slot-hint miss path — in two compares, then a forward sweep finds the
// slot. Longer lists use a closure-free binary search instead of
// sort.Search, which costs an indirect call per probe.
func (g *Graph) InSlot(u, src VertexID) (int, bool) {
	in := g.InNeighbors(u)
	if len(in) < 8 {
		if len(in) == 0 || src < in[0] || src > in[len(in)-1] {
			return 0, false
		}
		for i, v := range in {
			if v >= src {
				if v == src {
					return i, true
				}
				break
			}
		}
		return 0, false
	}
	lo, hi := 0, len(in)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if in[mid] < src {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(in) && in[lo] == src {
		return lo, true
	}
	return 0, false
}

// HasEdge reports whether the directed edge u->v exists.
func (g *Graph) HasEdge(u, v VertexID) bool {
	_, ok := g.InSlot(v, u)
	return ok
}

// Neighbors calls fn for every distinct neighbor of u in either direction
// (the paper's "neighbors" = in-edge plus out-edge neighbors), in
// ascending order. Both lists are ascending, so this is an
// allocation-free merge; an undirected graph's in-list is its out-list,
// so only that one is read.
func (g *Graph) Neighbors(u VertexID, fn func(v VertexID)) {
	out, in := g.OutNeighbors(u), g.InNeighbors(u)
	if g.undirected {
		in = nil
	}
	last := VertexID(-1)
	for len(out) > 0 || len(in) > 0 {
		var v VertexID
		if len(in) == 0 || len(out) > 0 && out[0] <= in[0] {
			v, out = out[0], out[1:]
		} else {
			v, in = in[0], in[1:]
		}
		if v != last {
			fn(v)
			last = v
		}
	}
}

// MaxDegree returns the maximum of in+out degree over all vertices, the
// skew statistic reported in Table 1.
func (g *Graph) MaxDegree() int {
	max := 0
	for u := int32(0); u < g.n; u++ {
		d := g.OutDegree(VertexID(u))
		if g.undirected {
			// In an undirected graph each edge is stored both ways; degree
			// is just the out-degree.
		} else {
			d += g.InDegree(VertexID(u))
		}
		if d > max {
			max = d
		}
	}
	return max
}

// Builder accumulates edges and produces an immutable Graph.
type Builder struct {
	n        int32
	edges    []Edge
	weighted bool
}

// NewBuilder creates a builder for a graph with n vertices.
func NewBuilder(n int) *Builder {
	if n < 0 || n > 1<<30 {
		panic(fmt.Sprintf("graph: invalid vertex count %d", n))
	}
	return &Builder{n: int32(n)}
}

// AddEdge adds the directed edge src->dst with weight 1.
func (b *Builder) AddEdge(src, dst VertexID) { b.addEdge(src, dst, 1, false) }

// AddWeightedEdge adds the directed edge src->dst with the given weight.
func (b *Builder) AddWeightedEdge(src, dst VertexID, w float64) { b.addEdge(src, dst, w, true) }

func (b *Builder) addEdge(src, dst VertexID, w float64, weighted bool) {
	if src < 0 || int32(src) >= b.n || dst < 0 || int32(dst) >= b.n {
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range [0,%d)", src, dst, b.n))
	}
	b.edges = append(b.edges, Edge{src, dst, w})
	b.weighted = b.weighted || weighted
}

// NumEdges returns the number of edges added so far.
func (b *Builder) NumEdges() int { return len(b.edges) }

// Build produces the immutable CSR graph. Self-loops are kept; duplicate
// edges are kept (multi-edges are legal in Pregel), each with its weight,
// in the order they were added. The builder must not be reused afterwards.
func (b *Builder) Build() *Graph {
	return build(b.n, b.edges, b.weighted, false)
}

// BuildUndirected symmetrizes the edge set (adding the reverse of every
// edge, deduplicating pairs) and builds the graph. Used by graph coloring,
// which requires an undirected input (§7.2.1). Self-loops are dropped as
// meaningless for coloring-style algorithms. A pair added more than once,
// in either direction, keeps the weight it was first added with: only
// this path sorts, stably, on the packed pair min<<32|max.
func (b *Builder) BuildUndirected() *Graph {
	if !b.weighted {
		return Symmetrize(b.Build())
	}
	type pair struct {
		key uint64
		w   float64
	}
	pairs := make([]pair, 0, len(b.edges))
	for _, e := range b.edges {
		if e.Src != e.Dst {
			pairs = append(pairs, pair{uint64(min(e.Src, e.Dst))<<32 | uint64(max(e.Src, e.Dst)), e.Weight})
		}
	}
	slices.SortStableFunc(pairs, func(x, y pair) int { return cmp.Compare(x.key, y.key) })
	pairs = slices.CompactFunc(pairs, func(x, y pair) bool { return x.key == y.key })
	sym := make([]Edge, 0, 2*len(pairs))
	for _, p := range pairs {
		u, v := VertexID(p.key>>32), VertexID(uint32(p.key))
		sym = append(sym, Edge{u, v, p.w}, Edge{v, u, p.w})
	}
	return build(b.n, sym, true, true)
}

// Symmetrize returns g's unweighted undirected version, the input every
// neighbourhood-reading algorithm (coloring, WCC, ...) runs on: u's list
// is Neighbors(u) without u, read straight off g's ascending lists with
// no sort and no hashing, and the one CSR serves as both out- and
// in-adjacency. Every caller goes through it, so a coordinator and its
// worker processes rebuild the identical graph.
func Symmetrize(g *Graph) *Graph {
	s := &Graph{n: g.n, outOff: make([]int32, g.n+1), undirected: true}
	for u := VertexID(0); int32(u) < g.n; u++ {
		d := int32(0)
		g.Neighbors(u, func(v VertexID) {
			if v != u {
				d++
			}
		})
		s.outOff[u+1] = s.outOff[u] + d
	}
	s.outDst = make([]VertexID, s.outOff[g.n])
	for u := VertexID(0); int32(u) < g.n; u++ {
		i := s.outOff[u]
		g.Neighbors(u, func(v VertexID) {
			if v != u {
				s.outDst[i] = v
				i++
			}
		})
	}
	s.inOff, s.inSrc = s.outOff, s.outDst
	return s
}

// build lays edges out as CSR with counting scatters only: a stable pass
// on Dst fills the in-lists in insertion order, transposing them in
// ascending destination order fills the out-lists, and transposing those
// back refills the in-lists. Every list comes out ascending, and parallel
// edges keep the order, and so the weights, they were added in. An
// undirected graph's edges are symmetric, so its in-CSR is its out-CSR.
func build(n int32, edges []Edge, weighted, undirected bool) *Graph {
	m := len(edges)
	g := &Graph{n: n, outOff: make([]int32, n+1), inOff: make([]int32, n+1), undirected: undirected}
	for _, e := range edges {
		g.outOff[e.Src+1]++
		g.inOff[e.Dst+1]++
	}
	for i := int32(0); i < n; i++ {
		g.outOff[i+1] += g.outOff[i]
		g.inOff[i+1] += g.inOff[i]
	}
	g.inSrc = make([]VertexID, m)
	var inW []float64
	if weighted {
		inW, g.outW = make([]float64, m), make([]float64, m)
	}
	pos := slices.Clone(g.inOff[:n])
	for _, e := range edges {
		p := pos[e.Dst]
		pos[e.Dst]++
		g.inSrc[p] = e.Src
		if weighted {
			inW[p] = e.Weight
		}
	}
	g.outDst = make([]VertexID, m)
	transpose(g.inOff, g.inSrc, inW, g.outOff, g.outDst, g.outW)
	if undirected {
		g.inOff, g.inSrc = g.outOff, g.outDst
		return g
	}
	transpose(g.outOff, g.outDst, nil, g.inOff, g.inSrc, nil)
	return g
}

// transpose fills the CSR (toOff, toAdj) with the reverse of (off, adj):
// walking u ascending, each v in u's list gets u appended to its own, so
// every list of the result is ascending. toOff must already hold the
// result's offsets; toW, when non-nil, receives w's weights alongside.
func transpose(off []int32, adj []VertexID, w []float64, toOff []int32, toAdj []VertexID, toW []float64) {
	pos := slices.Clone(toOff[:len(toOff)-1])
	for u := 0; u+1 < len(off); u++ {
		for i := off[u]; i < off[u+1]; i++ {
			p := pos[adj[i]]
			pos[adj[i]]++
			toAdj[p] = VertexID(u)
			if toW != nil {
				toW[p] = w[i]
			}
		}
	}
}

// FromEdges is a convenience constructor building a directed graph from an
// edge slice.
func FromEdges(n int, edges []Edge) *Graph {
	b := NewBuilder(n)
	for _, e := range edges {
		if e.Weight != 0 && e.Weight != 1 {
			b.AddWeightedEdge(e.Src, e.Dst, e.Weight)
		} else {
			b.AddEdge(e.Src, e.Dst)
		}
	}
	return b.Build()
}

// Stats summarizes a graph for Table 1 style reporting.
type Stats struct {
	Vertices  int
	Edges     int
	MaxDegree int
	AvgDegree float64
}

// Summarize computes dataset statistics.
func Summarize(g *Graph) Stats {
	s := Stats{Vertices: g.NumVertices(), Edges: g.NumEdges(), MaxDegree: g.MaxDegree()}
	if s.Vertices > 0 {
		s.AvgDegree = float64(s.Edges) / float64(s.Vertices)
	}
	return s
}

// Edges extracts the full directed edge list (used when rebuilding the
// graph after topology mutations).
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.NumEdges())
	for u := VertexID(0); int(u) < g.NumVertices(); u++ {
		nbs := g.OutNeighbors(u)
		ws := g.OutWeights(u)
		for i, v := range nbs {
			e := Edge{Src: u, Dst: v, Weight: 1}
			if ws != nil {
				e.Weight = ws[i]
			}
			out = append(out, e)
		}
	}
	return out
}

// Weighted reports whether the graph stores explicit edge weights.
func (g *Graph) Weighted() bool { return g.outW != nil }

// NewFromEdges builds a graph directly from an edge list (used by the
// generators and when applying topology mutations). The undirected flag is
// not preserved: mutations may break symmetry.
func NewFromEdges(n int, edges []Edge, weighted bool) *Graph {
	return build(int32(n), edges, weighted, false)
}

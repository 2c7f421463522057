// Package graph provides the in-memory graph representation used throughout
// serialgraph: a compressed sparse row (CSR) structure over dense vertex IDs
// with both out- and in-adjacency, plus builders and degree statistics.
//
// Vertex IDs are always dense integers in [0, NumVertices). Loaders remap
// arbitrary external IDs to this dense space (see io.go).
package graph

import (
	"fmt"
	"sort"
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

// OutNeighbors returns the out-edge neighbor slice of u. The returned slice
// aliases internal storage and must not be modified.
func (g *Graph) OutNeighbors(u VertexID) []VertexID {
	return g.outDst[g.outOff[u]:g.outOff[u+1]]
}

// OutOffset returns the index of u's first out-edge in the out-CSR edge
// order (the order of Edges, NumEdges long), for per-edge side tables.
func (g *Graph) OutOffset(u VertexID) int { return int(g.outOff[u]) }

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
// (the paper's "neighbors" = in-edge plus out-edge neighbors). Neighbors
// appearing in both directions are visited once.
func (g *Graph) Neighbors(u VertexID, fn func(v VertexID)) {
	// Merge the sorted in-list with the (possibly unsorted) out-list.
	seen := map[VertexID]struct{}{}
	for _, v := range g.OutNeighbors(u) {
		if _, dup := seen[v]; !dup {
			seen[v] = struct{}{}
			fn(v)
		}
	}
	for _, v := range g.InNeighbors(u) {
		if _, dup := seen[v]; !dup {
			seen[v] = struct{}{}
			fn(v)
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
// edges are kept (multi-edges are legal in Pregel). The builder must not be
// reused afterwards.
func (b *Builder) Build() *Graph {
	return build(b.n, b.edges, b.weighted, false)
}

// BuildUndirected symmetrizes the edge set (adding the reverse of every
// edge, deduplicating pairs) and builds the graph. Used by graph coloring,
// which requires an undirected input (§7.2.1).
func (b *Builder) BuildUndirected() *Graph {
	type pair struct{ a, b VertexID }
	seen := make(map[pair]float64, len(b.edges))
	for _, e := range b.edges {
		if e.Src == e.Dst {
			continue // self-loops are meaningless for coloring-style algorithms
		}
		p := pair{e.Src, e.Dst}
		if p.a > p.b {
			p.a, p.b = p.b, p.a
		}
		if _, dup := seen[p]; !dup {
			seen[p] = e.Weight
		}
	}
	sym := make([]Edge, 0, 2*len(seen))
	for p, w := range seen {
		sym = append(sym, Edge{p.a, p.b, w}, Edge{p.b, p.a, w})
	}
	return build(b.n, sym, b.weighted, true)
}

// Symmetrize returns g's undirected version, the input every
// neighbourhood-reading algorithm (coloring, WCC, ...) runs on: each
// out-edge copied unweighted into a Builder, then BuildUndirected. Every
// caller goes through it, so a coordinator and its worker processes
// rebuild the identical graph.
func Symmetrize(g *Graph) *Graph {
	b := NewBuilder(g.NumVertices())
	for u := VertexID(0); int(u) < g.NumVertices(); u++ {
		for _, v := range g.OutNeighbors(u) {
			b.AddEdge(u, v)
		}
	}
	return b.BuildUndirected()
}

func build(n int32, edges []Edge, weighted, undirected bool) *Graph {
	g := &Graph{n: n, undirected: undirected}
	m := len(edges)

	// Out-CSR via counting sort on src.
	g.outOff = make([]int32, n+1)
	for _, e := range edges {
		g.outOff[e.Src+1]++
	}
	for i := int32(0); i < n; i++ {
		g.outOff[i+1] += g.outOff[i]
	}
	g.outDst = make([]VertexID, m)
	if weighted {
		g.outW = make([]float64, m)
	}
	pos := make([]int32, n)
	copy(pos, g.outOff[:n])
	for _, e := range edges {
		p := pos[e.Src]
		pos[e.Src]++
		g.outDst[p] = e.Dst
		if weighted {
			g.outW[p] = e.Weight
		}
	}

	// In-CSR via counting sort on dst; then sort each in-list so that
	// InSlot can binary-search.
	g.inOff = make([]int32, n+1)
	for _, e := range edges {
		g.inOff[e.Dst+1]++
	}
	for i := int32(0); i < n; i++ {
		g.inOff[i+1] += g.inOff[i]
	}
	g.inSrc = make([]VertexID, m)
	copy(pos, g.inOff[:n])
	for _, e := range edges {
		g.inSrc[pos[e.Dst]] = e.Src
		pos[e.Dst]++
	}
	for u := int32(0); u < n; u++ {
		lo, hi := g.inOff[u], g.inOff[u+1]
		s := g.inSrc[lo:hi]
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	}
	return g
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

// NewFromEdges builds a graph directly from an edge list (used when
// applying topology mutations). The undirected flag is not preserved:
// mutations may break symmetry.
func NewFromEdges(n int, edges []Edge, weighted bool) *Graph {
	return build(int32(n), edges, weighted, false)
}

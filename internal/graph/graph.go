// Package graph provides the in-memory graph representation used throughout
// serialgraph: a compressed sparse row (CSR) structure over dense vertex IDs
// with both out- and in-adjacency, plus builders and degree statistics.
//
// Vertex IDs are always dense integers in [0, NumVertices). Loaders remap
// arbitrary external IDs to this dense space (see io.go).
package graph

import "fmt"

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
	n    int32
	keys []uint64  // edgeKey of every edge, in the order added
	w    []float64 // parallel to keys once a weighted edge is added
}

// NewBuilder creates a builder for a graph with n vertices.
func NewBuilder(n int) *Builder {
	if n < 0 || n > 1<<30 {
		panic(fmt.Sprintf("graph: invalid vertex count %d", n))
	}
	return &Builder{n: int32(n)}
}

// AddEdge adds the directed edge src->dst with weight 1.
func (b *Builder) AddEdge(src, dst VertexID) {
	b.check(src, dst)
	b.add(src, dst, 1, false)
}

// AddWeightedEdge adds the directed edge src->dst with the given weight.
func (b *Builder) AddWeightedEdge(src, dst VertexID, w float64) {
	b.check(src, dst)
	b.add(src, dst, w, true)
}

func (b *Builder) check(src, dst VertexID) {
	if src < 0 || int32(src) >= b.n || dst < 0 || int32(dst) >= b.n {
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range [0,%d)", src, dst, b.n))
	}
}

// add appends src->dst. The first weighted edge gives every edge before
// it weight 1.
func (b *Builder) add(src, dst VertexID, w float64, weighted bool) {
	if weighted && b.w == nil {
		b.w = make([]float64, len(b.keys), cap(b.keys))
		for i := range b.w {
			b.w[i] = 1
		}
	}
	b.keys = append(b.keys, edgeKey(src, dst))
	if b.w != nil {
		b.w = append(b.w, w)
	}
}

// NumEdges returns the number of edges added so far.
func (b *Builder) NumEdges() int { return len(b.keys) }

// Build produces the immutable CSR graph. Self-loops are kept; duplicate
// edges are kept (multi-edges are legal in Pregel), each with its weight,
// in the order they were added. The builder must not be reused afterwards.
func (b *Builder) Build() *Graph {
	return fromKeys(b.n, b.keys, b.w, false, false)
}

// BuildUndirected symmetrizes the edge set (adding the reverse of every
// edge, deduplicating pairs) and builds the graph. Used by graph coloring,
// which requires an undirected input (§7.2.1). Self-loops are dropped as
// meaningless for coloring-style algorithms. Without weights this is
// Symmetrize(b.Build()). A weighted pair added more than once, in either
// direction, keeps the weight it was first added with: every edge enters
// fromKeys in both directions, in the order added, and deduplication
// keeps the first copy of each key.
func (b *Builder) BuildUndirected() *Graph {
	if b.w == nil {
		return Symmetrize(b.Build())
	}
	keys := make([]uint64, 0, 2*len(b.keys))
	w := make([]float64, 0, 2*len(b.keys))
	for i, k := range b.keys {
		if src, dst := k>>32, k&(1<<32-1); src != dst {
			keys = append(keys, k, dst<<32|src)
			w = append(w, b.w[i], b.w[i])
		}
	}
	return fromKeys(b.n, keys, w, true, true)
}

// Symmetrize returns g's unweighted undirected version, the input every
// neighbourhood-reading algorithm (coloring, WCC, ...) runs on: u's list
// is Neighbors(u) without u, merged straight off g's ascending lists with
// no sort and no hashing, and the one CSR serves as both out- and
// in-adjacency. The lists are merged into a buffer with room for both
// inputs and then copied into an array of exactly the merged size, so no
// spare capacity outlives the call. Every caller goes through it, so a
// coordinator and its worker processes rebuild the identical graph.
func Symmetrize(g *Graph) *Graph {
	s := &Graph{n: g.n, outOff: make([]int32, g.n+1), undirected: true}
	room := len(g.outDst)
	if !g.undirected {
		room += len(g.inSrc)
	}
	buf := make([]VertexID, room)
	k := int32(0)
	for u := VertexID(0); int32(u) < g.n; u++ {
		in := g.InNeighbors(u)
		if g.undirected {
			in = nil
		}
		k += int32(mergeDistinct(buf[k:], g.OutNeighbors(u), in, u))
		s.outOff[u+1] = k
	}
	s.outDst = make([]VertexID, k)
	copy(s.outDst, buf)
	s.inOff, s.inSrc = s.outOff, s.outDst
	return s
}

// mergeDistinct writes the distinct values of the ascending lists a and
// b other than skip to dst, ascending, and returns how many it wrote; dst
// must have room for len(a)+len(b). The loop over both lists has no
// data-dependent branch: the smaller head is always written, and the
// output position and each list's cursor advance by comparison results.
func mergeDistinct(dst, a, b []VertexID, skip VertexID) int {
	i, j, k := 0, 0, 0
	last := VertexID(-1)
	for i < len(a) && j < len(b) {
		x, y := a[i], b[j]
		v := min(x, y)
		dst[k] = v
		k += keep(v, last, skip)
		last = v
		// IDs are non-negative, so y-x is negative exactly when x > y.
		i += 1 - int(uint32(y-x)>>31)
		j += 1 - int(uint32(x-y)>>31)
	}
	for _, rest := range [2][]VertexID{a[i:], b[j:]} {
		for _, v := range rest {
			dst[k] = v
			k += keep(v, last, skip)
			last = v
		}
	}
	return k
}

// keep is 1 when v is neither the value before it nor skip, else 0.
func keep(v, last, skip VertexID) int {
	d := 0
	if v != last {
		d = 1
	}
	if v == skip {
		d = 0
	}
	return d
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
	keys := make([]uint64, len(edges))
	var w []float64
	if weighted {
		w = make([]float64, len(edges))
	}
	for i, e := range edges {
		keys[i] = edgeKey(e.Src, e.Dst)
		if weighted {
			w[i] = e.Weight
		}
	}
	return fromKeys(int32(n), keys, w, false, false)
}

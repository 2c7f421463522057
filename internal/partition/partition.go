// Package partition implements graph partitioning and the vertex
// classifications the paper's synchronization techniques depend on:
// machine-internal vs. machine-boundary vertices (Definition 1), partition-
// internal vs. partition-boundary vertices (Definition 4), and the four-way
// refinement used by dual-layer token passing (§5.3): p-internal, local
// boundary, remote boundary, and mixed boundary.
//
// The default partitioner is random hash partitioning, which is what the
// paper's evaluation uses (§7.1). Partitions are assigned to workers round-
// robin, Giraph's default placement.
package partition

import (
	"fmt"
	"math/bits"
	"slices"

	"serialgraph/internal/graph"
)

// ID identifies a partition: 0 <= ID < NumPartitions.
type ID int32

// Class is the dual-layer token passing vertex classification (§5.3).
type Class uint8

const (
	// PInternal vertices have every neighbor in their own partition; they
	// execute without holding any token.
	PInternal Class = iota
	// LocalBoundary vertices are m-internal but have a neighbor in another
	// partition of the same worker; they need the worker's local token.
	LocalBoundary
	// RemoteBoundary vertices have neighbors only on other workers'
	// partitions; they need the global token.
	RemoteBoundary
	// MixedBoundary vertices have neighbors both on their own worker and on
	// other workers; they need both tokens.
	MixedBoundary
)

func (c Class) String() string {
	switch c {
	case PInternal:
		return "p-internal"
	case LocalBoundary:
		return "local-boundary"
	case RemoteBoundary:
		return "remote-boundary"
	case MixedBoundary:
		return "mixed-boundary"
	default:
		return fmt.Sprintf("Class(%d)", uint8(c))
	}
}

// Map is an immutable assignment of vertices to partitions and partitions
// to workers, and the run's one vertex layout (DESIGN.md §9): order lists
// every vertex worker by worker, a worker's partitions in ascending ID
// order, a partition's vertices in ascending order; pos inverts it.
type Map struct {
	P, W int

	vertexPart []ID    // len n
	partWorker []int32 // len P

	order          []graph.VertexID // len n, the layout
	pos            []int32          // len n, pos[order[i]] == i
	partLo, partHi []int32          // partition p is order[partLo[p]:partHi[p]]
	workerLo       []int32          // worker w is order[workerLo[w]:workerLo[w+1]]
}

// NewHash randomly hash-partitions the n vertices of g into p partitions
// spread over w workers (round-robin partition placement). The seed makes
// the assignment reproducible.
func NewHash(g *graph.Graph, p, w int, seed uint64) *Map {
	validate(g, p, w)
	vp := make([]ID, g.NumVertices())
	for v := range vp {
		vp[v] = ID(mix64(uint64(v)+seed*0x9e3779b97f4a7c15) % uint64(p))
	}
	return assemble(g, p, w, vp)
}

// mix64 is the splitmix64 finalizer: a fast, deterministic 64-bit mixer.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// NewRange splits vertices into p contiguous ranges.
func NewRange(g *graph.Graph, p, w int) *Map {
	validate(g, p, w)
	n := g.NumVertices()
	vp := make([]ID, n)
	for v := 0; v < n; v++ {
		part := v * p / n
		if part >= p {
			part = p - 1
		}
		vp[v] = ID(part)
	}
	return assemble(g, p, w, vp)
}

// NewExplicit builds a Map from explicit assignments: vertexPart[v] is v's
// partition and partWorker[p] is p's worker. Used by tests and the paper's
// worked examples (Figures 4 and 5). The layout is two counting passes,
// one over the partitions and one over the vertices.
func NewExplicit(g *graph.Graph, vertexPart []ID, partWorker []int32, w int) *Map {
	n, p := g.NumVertices(), len(partWorker)
	if len(vertexPart) != n {
		panic("partition: vertexPart length mismatch")
	}
	m := &Map{P: p, W: w, vertexPart: vertexPart, partWorker: partWorker,
		order: make([]graph.VertexID, n), pos: make([]int32, n),
		partLo: make([]int32, p), partHi: make([]int32, p), workerLo: make([]int32, w+1)}
	for _, wk := range partWorker {
		if wk < 0 || int(wk) >= w {
			panic("partition: bad worker id")
		}
	}
	for v, pid := range vertexPart {
		if pid < 0 || int(pid) >= p {
			panic(fmt.Sprintf("partition: vertex %d has bad partition %d", v, pid))
		}
		m.partHi[pid]++ // a size until the offsets below
	}
	// Lay the partitions out worker by worker, ascending within a worker:
	// workerLo first counts each worker's vertices, then is their offsets.
	for q, wk := range partWorker {
		m.workerLo[wk+1] += m.partHi[q]
	}
	for k := 1; k <= w; k++ {
		m.workerLo[k] += m.workerLo[k-1]
	}
	next := slices.Clone(m.workerLo[:w])
	for q, wk := range partWorker {
		m.partLo[q] = next[wk]
		next[wk] += m.partHi[q]
		m.partHi[q] = m.partLo[q] // the placement cursor, ending at the run's end
	}
	for v, pid := range vertexPart {
		i := m.partHi[pid]
		m.order[i], m.pos[v] = graph.VertexID(v), i
		m.partHi[pid]++
	}
	return m
}

func validate(g *graph.Graph, p, w int) {
	if p < 1 || w < 1 {
		panic(fmt.Sprintf("partition: need p >= 1 and w >= 1, got %d/%d", p, w))
	}
	if g.NumVertices() == 0 {
		panic("partition: empty graph")
	}
}

func assemble(g *graph.Graph, p, w int, vp []ID) *Map {
	pw := make([]int32, p)
	for i := range pw {
		pw[i] = int32(i % w) // round-robin, Giraph's default placement
	}
	return NewExplicit(g, vp, pw, w)
}

// PartitionOf returns the partition owning v.
func (m *Map) PartitionOf(v graph.VertexID) ID { return m.vertexPart[v] }

// WorkerOf returns the worker owning v.
func (m *Map) WorkerOf(v graph.VertexID) int { return int(m.partWorker[m.vertexPart[v]]) }

// WorkerOfPartition returns the worker that partition p is placed on.
func (m *Map) WorkerOfPartition(p ID) int { return int(m.partWorker[p]) }

// Vertices returns the vertices of partition p in ascending order. The
// slice aliases the layout and must not be modified.
func (m *Map) Vertices(p ID) []graph.VertexID { return m.order[m.partLo[p]:m.partHi[p]:m.partHi[p]] }

// PartitionsOfWorker returns the partition IDs placed on worker w, in
// ascending order: the order of w's runs in the layout.
func (m *Map) PartitionsOfWorker(w int) []ID {
	var out []ID
	for p, wk := range m.partWorker {
		if int(wk) == w {
			out = append(out, ID(p))
		}
	}
	return out
}

// Owned returns worker w's vertices in layout order: the concatenation of
// Vertices(p) over PartitionsOfWorker(w). The vertex at index i of it is
// at layout position Base(w)+i. The slice aliases the layout and must not
// be modified.
func (m *Map) Owned(w int) []graph.VertexID {
	return m.order[m.workerLo[w]:m.workerLo[w+1]:m.workerLo[w+1]]
}

// Base returns the layout position of worker w's first vertex.
func (m *Map) Base(w int) int32 { return m.workerLo[w] }

// Span returns partition p's run of the layout, [lo, hi).
func (m *Map) Span(p ID) (lo, hi int32) { return m.partLo[p], m.partHi[p] }

// Positions returns the table that inverts the layout: vertex v is at
// position Positions()[v]. One table serves the whole run; it must not be
// modified.
func (m *Map) Positions() []int32 { return m.pos }

// Classify computes the dual-layer class of every vertex (§5.3), where
// "neighbors" means in-edge plus out-edge neighbors, per §3.1. It is the
// class table of ReportClassified's one sweep.
func Classify(g *graph.Graph, m *Map) []Class {
	classes := make([]Class, g.NumVertices())
	ReportClassified(g, m, classes)
	return classes
}

// IsMBoundary reports whether u has a neighbor on another worker
// (Definition 1).
func IsMBoundary(g *graph.Graph, m *Map, u graph.VertexID) bool {
	w := m.WorkerOf(u)
	found := false
	g.Neighbors(u, func(nb graph.VertexID) {
		if m.WorkerOf(nb) != w {
			found = true
		}
	})
	return found
}

// IsPBoundary reports whether u has a neighbor in another partition
// (Definition 4).
func IsPBoundary(g *graph.Graph, m *Map, u graph.VertexID) bool {
	p := m.PartitionOf(u)
	found := false
	g.Neighbors(u, func(nb graph.VertexID) {
		if m.PartitionOf(nb) != p {
			found = true
		}
	})
	return found
}

// Neighbors returns, for every partition, the sorted set of other
// partitions that share at least one edge with it (ignoring direction).
// These pairs are exactly the "virtual partition edges" of Figure 5 that
// carry Chandy–Misra forks in partition-based distributed locking. The
// conflict graph is a P×P bitset, read out row by row in ascending order.
func (m *Map) Neighbors(g *graph.Graph) [][]ID {
	words := (m.P + 63) / 64
	adj := make([]uint64, m.P*words)
	for v, pu := range m.vertexPart {
		for _, nb := range g.OutNeighbors(graph.VertexID(v)) {
			if pv := m.vertexPart[nb]; pu != pv {
				adj[int(pu)*words+int(pv)/64] |= 1 << (pv % 64)
				adj[int(pv)*words+int(pu)/64] |= 1 << (pu % 64)
			}
		}
	}
	out := make([][]ID, m.P)
	for p := range out {
		row := adj[p*words : (p+1)*words]
		n := 0
		for _, w := range row {
			n += bits.OnesCount64(w)
		}
		out[p] = make([]ID, 0, n)
		for i, w := range row {
			for ; w != 0; w &= w - 1 {
				out[p] = append(out[p], ID(i*64+bits.TrailingZeros64(w)))
			}
		}
	}
	return out
}

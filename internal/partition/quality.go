package partition

// quality.go is the partition quality report: one struct capturing
// everything the paper's cost model keys on — edge-cut (remote bytes),
// the four-way §5.3 class census (token and lock pressure), replication
// factor (mirror/ghost state), and balance skew (straggler risk). The
// engine computes it once per run and threads it into Result, metrics,
// and the bench rows, so partition quality is visible without a
// debugger.

import (
	"slices"

	"serialgraph/internal/graph"
)

// Quality summarizes how well a Map localizes a graph. JSON field names
// are part of the bench report schema (BENCH_NNNN.json) and must stay
// stable.
type Quality struct {
	Partitions int `json:"partitions"`
	Workers    int `json:"workers"`

	// Edge locality: directed edges whose endpoints live in different
	// partitions, and the fraction of all edges they represent.
	CutEdges    int     `json:"cut_edges"`
	CutFraction float64 `json:"cut_fraction"`

	// Balance: largest and smallest partition (in vertices) and the
	// skew MaxLoad / (n/P). 1.0 is perfect balance; the streaming
	// partitioners guarantee skew <= 1+epsilon.
	MaxLoad     int     `json:"max_load"`
	MinLoad     int     `json:"min_load"`
	BalanceSkew float64 `json:"balance_skew"`

	// The §5.3 vertex census: per-Class counts over all vertices.
	PInternal      int `json:"p_internal"`
	LocalBoundary  int `json:"local_boundary"`
	RemoteBoundary int `json:"remote_boundary"`
	MixedBoundary  int `json:"mixed_boundary"`

	// BoundaryFraction is the share of vertices that are not
	// p-internal — exactly the population every synchronization
	// technique pays for (tokens, partition locks, fork grants).
	BoundaryFraction float64 `json:"boundary_fraction"`

	// ReplicationFactor is the average number of workers that hold a
	// copy of each vertex under the paper's replica model (§3.1): the
	// owner plus one mirror per distinct remote worker among its
	// neighbors. 1.0 means no mirrors at all.
	ReplicationFactor float64 `json:"replication_factor"`
}

// ClassCount returns the census count for one §5.3 class.
func (q Quality) ClassCount(c Class) int {
	switch c {
	case PInternal:
		return q.PInternal
	case LocalBoundary:
		return q.LocalBoundary
	case RemoteBoundary:
		return q.RemoteBoundary
	case MixedBoundary:
		return q.MixedBoundary
	}
	return 0
}

// Report computes the quality of m on g in one O(V+E) sweep with no
// per-vertex allocation.
func Report(g *graph.Graph, m *Map) Quality {
	return ReportClassified(g, m, nil)
}

// ReportClassified is Report that also stores each vertex's §5.3 class in
// classes when it is non-nil (len NumVertices), so the engine gets the
// dual-layer token class table from the same sweep. The sweep visits each
// vertex's out-list, counting cut edges, and then its in-list, except on
// an undirected graph, whose in-lists are its out-lists. Each neighbor
// notes whether it shares u's partition, only u's worker, or neither, and
// a remote worker not yet stamped for u adds one mirror (replication).
func ReportClassified(g *graph.Graph, m *Map, classes []Class) Quality {
	n := g.NumVertices()
	q := Quality{Partitions: m.P, Workers: m.W, MinLoad: n}
	stamp := slices.Repeat([]int{-1}, m.W)
	var census [4]int // per Class
	mirrors := 0
	for v := 0; v < n; v++ {
		u := graph.VertexID(v)
		myPart, myWorker := m.vertexPart[u], m.WorkerOf(u)
		samePart, sameWorkerOtherPart, otherWorker := false, false, false
		note := func(nb graph.VertexID) (cut bool) {
			p := m.vertexPart[nb]
			if p == myPart {
				samePart = true
				return false
			}
			wk := int(m.partWorker[p])
			if wk == myWorker {
				sameWorkerOtherPart = true
				return true
			}
			otherWorker = true
			if stamp[wk] != v {
				stamp[wk] = v
				mirrors++
			}
			return true
		}
		for _, nb := range g.OutNeighbors(u) {
			if note(nb) {
				q.CutEdges++
			}
		}
		if !g.Undirected() {
			for _, nb := range g.InNeighbors(u) {
				note(nb)
			}
		}
		c := MixedBoundary
		switch {
		case !sameWorkerOtherPart && !otherWorker:
			c = PInternal
		case !otherWorker:
			c = LocalBoundary
		case !sameWorkerOtherPart && !samePart:
			c = RemoteBoundary
		}
		census[c]++
		if classes != nil {
			classes[v] = c
		}
	}
	q.PInternal, q.LocalBoundary = census[PInternal], census[LocalBoundary]
	q.RemoteBoundary, q.MixedBoundary = census[RemoteBoundary], census[MixedBoundary]
	for p := range m.P {
		size := int(m.partHi[p] - m.partLo[p])
		q.MaxLoad, q.MinLoad = max(q.MaxLoad, size), min(q.MinLoad, size)
	}
	if n > 0 {
		q.BalanceSkew = float64(q.MaxLoad) * float64(m.P) / float64(n)
		q.BoundaryFraction = float64(n-q.PInternal) / float64(n)
		q.ReplicationFactor = 1 + float64(mirrors)/float64(n)
	}
	if g.NumEdges() > 0 {
		q.CutFraction = float64(q.CutEdges) / float64(g.NumEdges())
	}
	return q
}

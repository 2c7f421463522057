package algorithms

import (
	"sort"

	"serialgraph/internal/graph"
	"serialgraph/internal/model"
)

// LabelPropagation is the classic community detection algorithm of
// Raghavan et al.: every vertex repeatedly adopts the most frequent label
// among its neighbors (smallest label on ties) until nothing changes.
//
// LPA is a textbook case of the paper's motivation: under synchronous
// (BSP) updates it famously oscillates on bipartite-ish structures — two
// sides swap labels forever — while asynchronous serializable execution,
// where each vertex sees fresh neighbor labels and no two neighbors update
// together, converges. Requires an undirected graph.
func LabelPropagation() model.Program[int32, int32] {
	return model.Program[int32, int32]{
		Name:      "label-propagation",
		Semantics: model.Overwrite,
		MsgBytes:  4,
		Init:      func(graph.VertexID, *graph.Graph) int32 { return -1 },
		Compute: func(ctx model.Context[int32, int32], msgs []int32) {
			cur := ctx.Value()
			if cur < 0 {
				// First execution: adopt own ID and announce it.
				cur = int32(ctx.ID())
				ctx.SetValue(cur)
				ctx.SendToAllOut(cur)
				ctx.VoteToHalt()
				return
			}
			if len(msgs) == 0 {
				ctx.VoteToHalt()
				return
			}
			best := majorityLabel(msgs)
			if best != cur {
				ctx.SetValue(best)
				ctx.SendToAllOut(best)
			}
			ctx.VoteToHalt()
		},
	}
}

// ValidateLabels checks that labels is where LabelPropagation settles:
// every vertex with neighbours holds their majority label.
func ValidateLabels(g *graph.Graph, labels []int32) error {
	var nbrs []int32
	for v := range g.NumVertices() {
		nbrs = nbrs[:0]
		for _, u := range g.OutNeighbors(graph.VertexID(v)) {
			nbrs = append(nbrs, labels[u])
		}
		if len(nbrs) > 0 && labels[v] != majorityLabel(nbrs) {
			return errf("vertex %d holds label %d, not its neighbours' majority %d", v, labels[v], majorityLabel(nbrs))
		}
	}
	return nil
}

// majorityLabel returns the most frequent label, breaking ties toward the
// smallest.
func majorityLabel(labels []int32) int32 {
	count := make(map[int32]int, len(labels))
	for _, l := range labels {
		if l >= 0 {
			count[l]++
		}
	}
	best, bestN := int32(-1), 0
	for l, n := range count {
		if n > bestN || (n == bestN && (best < 0 || l < best)) {
			best, bestN = l, n
		}
	}
	return best
}

// KCoreValue is the per-vertex state of KCore: the current coreness
// estimate plus the latest estimate heard from each neighbor. Carrying the
// neighbor table in the value keeps the algorithm correct under every
// engine, including BSP where messages are visible for only one superstep.
type KCoreValue struct {
	Est   int32
	Known map[graph.VertexID]int32
}

// KCoreMsg announces a sender's new coreness estimate.
type KCoreMsg struct {
	From graph.VertexID
	Est  int32
}

// KCore computes the coreness of every vertex with the H-index iteration
// of Lü et al.: starting from the degree, every vertex repeatedly sets its
// value to the H-index of its neighbors' values (the largest h such that h
// neighbors have value >= h). The fixed point is exactly the k-core
// number. The iteration only decreases estimates, so a vertex waits until
// it has heard from every neighbor before applying it. Requires an
// undirected graph.
func KCore() model.Program[KCoreValue, KCoreMsg] {
	return model.Program[KCoreValue, KCoreMsg]{
		Name:      "kcore",
		Semantics: model.Queue,
		MsgBytes:  8,
		Init:      func(graph.VertexID, *graph.Graph) KCoreValue { return KCoreValue{Est: -1} },
		Compute: func(ctx model.Context[KCoreValue, KCoreMsg], msgs []KCoreMsg) {
			v := ctx.Value()
			deg := len(ctx.OutNeighbors())
			first := v.Est < 0
			if first {
				v.Est = int32(deg)
				v.Known = make(map[graph.VertexID]int32, deg)
			}
			// Merge every received estimate — including those that arrived
			// before our first execution (asynchronous engines consume the
			// queue on every read, so dropping them would stall the
			// iteration).
			for _, m := range msgs {
				v.Known[m.From] = m.Est
			}
			if first {
				ctx.SetValue(v)
				ctx.SendToAllOut(KCoreMsg{From: ctx.ID(), Est: v.Est})
				ctx.VoteToHalt()
				return
			}
			if len(v.Known) == deg {
				ests := make([]int32, 0, deg)
				for _, e := range v.Known {
					ests = append(ests, e)
				}
				if h := hIndex(ests); h < v.Est {
					v.Est = h
					ctx.SetValue(v)
					ctx.SendToAllOut(KCoreMsg{From: ctx.ID(), Est: h})
					ctx.VoteToHalt()
					return
				}
			}
			ctx.SetValue(v) // persist the updated Known table
			ctx.VoteToHalt()
		},
	}
}

// KCoreEstimates extracts the coreness numbers from KCore's final values.
func KCoreEstimates(vals []KCoreValue) []int32 {
	out := make([]int32, len(vals))
	for i, v := range vals {
		out[i] = v.Est
	}
	return out
}

// hIndex returns the largest h such that at least h values are >= h.
func hIndex(vals []int32) int32 {
	sorted := make([]int32, len(vals))
	copy(sorted, vals)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] > sorted[j] })
	h := int32(0)
	for i, v := range sorted {
		if v >= int32(i+1) {
			h = int32(i + 1)
		} else {
			break
		}
	}
	return h
}

// TriangleMsg carries a sender's higher-ID adjacency for triangle counting.
type TriangleMsg struct {
	From graph.VertexID
	Nbrs []graph.VertexID
}

// TriangleCount counts triangles with the two-superstep ordered-neighbor
// exchange: for every edge u–v with u < v, u sends v its neighbor IDs
// greater than v; v counts how many of them are also its neighbors. Each
// triangle u < v < w is counted exactly once, at v. The per-vertex counts
// sum to the graph's triangle total (use the "triangles" aggregator).
// Requires an undirected graph; runs on plain BSP — triangle counting is
// an example of an algorithm that needs no serializability.
func TriangleCount() model.Program[int32, TriangleMsg] {
	return model.Program[int32, TriangleMsg]{
		Name:      "triangles",
		Semantics: model.Queue,
		MsgBytes:  16,
		Compute: func(ctx model.Context[int32, TriangleMsg], msgs []TriangleMsg) {
			switch ctx.Superstep() {
			case 0:
				u := ctx.ID()
				nbs := ctx.OutNeighbors()
				for _, v := range nbs {
					if v <= u {
						continue
					}
					var higher []graph.VertexID
					for _, w := range nbs {
						if w > v {
							higher = append(higher, w)
						}
					}
					if len(higher) > 0 {
						ctx.Send(v, TriangleMsg{From: u, Nbrs: higher})
					}
				}
			case 1:
				mine := make(map[graph.VertexID]struct{})
				for _, w := range ctx.OutNeighbors() {
					mine[w] = struct{}{}
				}
				count := int32(0)
				for _, m := range msgs {
					for _, w := range m.Nbrs {
						if _, ok := mine[w]; ok {
							count++
						}
					}
				}
				ctx.SetValue(count)
				ctx.Aggregate("triangles", float64(count))
				ctx.VoteToHalt()
			default:
				ctx.VoteToHalt()
			}
		},
	}
}

// CountTrianglesReference counts triangles by brute force for verification.
func CountTrianglesReference(g *graph.Graph) int64 {
	var total int64
	n := g.NumVertices()
	for v := 0; v < n; v++ {
		u := graph.VertexID(v)
		nbs := g.OutNeighbors(u)
		set := make(map[graph.VertexID]struct{}, len(nbs))
		for _, x := range nbs {
			set[x] = struct{}{}
		}
		for _, x := range nbs {
			if x <= u {
				continue
			}
			for _, y := range g.OutNeighbors(x) {
				if y <= x {
					continue
				}
				if _, ok := set[y]; ok {
					total++
				}
			}
		}
	}
	return total
}

// KCoreReference computes coreness by sequential peeling for verification.
func KCoreReference(g *graph.Graph) []int32 {
	n := g.NumVertices()
	deg := make([]int, n)
	maxDeg := 0
	for v := 0; v < n; v++ {
		deg[v] = g.OutDegree(graph.VertexID(v))
		if deg[v] > maxDeg {
			maxDeg = deg[v]
		}
	}
	// Bucket sort by degree (the O(E) peeling of Batagelj & Zaversnik).
	buckets := make([][]int32, maxDeg+1)
	for v := 0; v < n; v++ {
		buckets[deg[v]] = append(buckets[deg[v]], int32(v))
	}
	core := make([]int32, n)
	removed := make([]bool, n)
	processed := 0
	for d := 0; d <= maxDeg && processed < n; d++ {
		for i := 0; i < len(buckets[d]); i++ {
			v := buckets[d][i]
			if removed[v] || deg[v] > d {
				continue
			}
			removed[v] = true
			core[v] = int32(d)
			processed++
			for _, nb := range g.OutNeighbors(graph.VertexID(v)) {
				if !removed[nb] && deg[nb] > d {
					deg[nb]--
					buckets[deg[nb]] = append(buckets[deg[nb]], int32(nb))
				}
			}
		}
	}
	return core
}

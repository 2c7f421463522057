package algorithms

import (
	"fmt"
	"math"

	"serialgraph/internal/graph"
)

// ValidateColoring checks that colors is a proper coloring of g: every
// vertex colored, no edge monochromatic.
func ValidateColoring(g *graph.Graph, colors []int32) error {
	n := g.NumVertices()
	if len(colors) != n {
		return fmt.Errorf("coloring: got %d colors for %d vertices", len(colors), n)
	}
	for v := 0; v < n; v++ {
		if colors[v] == NoColor {
			return fmt.Errorf("coloring: vertex %d uncolored", v)
		}
		u := graph.VertexID(v)
		for _, nb := range g.OutNeighbors(u) {
			if nb != u && colors[nb] == colors[v] {
				return fmt.Errorf("coloring: conflict on edge %d-%d (both color %d)", v, nb, colors[v])
			}
		}
	}
	return nil
}

// ColorsUsed returns the number of distinct colors.
func ColorsUsed(colors []int32) int {
	seen := map[int32]struct{}{}
	for _, c := range colors {
		if c != NoColor {
			seen[c] = struct{}{}
		}
	}
	return len(seen)
}

// ShortestPaths is a sequential Dijkstra/BFS reference for SSSP
// verification. Unit weights reduce it to BFS.
func ShortestPaths(g *graph.Graph, source graph.VertexID) []float64 {
	n := g.NumVertices()
	dist := make([]float64, n)
	for i := range dist {
		dist[i] = Infinity
	}
	dist[source] = 0
	// Simple binary-heap-free Dijkstra via repeated relaxation would be
	// O(VE); use a FIFO-ish SPFA which is fine at test scale and exact.
	queue := []graph.VertexID{source}
	inQ := make([]bool, n)
	inQ[source] = true
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		inQ[u] = false
		nbs := g.OutNeighbors(u)
		ws := g.OutWeights(u)
		for i, v := range nbs {
			w := 1.0
			if ws != nil {
				w = ws[i]
			}
			if nd := dist[u] + w; nd < dist[v] {
				dist[v] = nd
				if !inQ[v] {
					inQ[v] = true
					queue = append(queue, v)
				}
			}
		}
	}
	return dist
}

// Components is a union-find reference for WCC: it returns for each vertex
// the smallest vertex ID in its weakly connected component.
func Components(g *graph.Graph) []int32 {
	n := g.NumVertices()
	parent := make([]int32, n)
	for i := range parent {
		parent[i] = int32(i)
	}
	var find func(x int32) int32
	find = func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int32) {
		ra, rb := find(a), find(b)
		if ra != rb {
			if ra < rb {
				parent[rb] = ra
			} else {
				parent[ra] = rb
			}
		}
	}
	for v := 0; v < n; v++ {
		for _, nb := range g.OutNeighbors(graph.VertexID(v)) {
			union(int32(v), int32(nb))
		}
	}
	out := make([]int32, n)
	for v := range out {
		out[v] = find(int32(v))
	}
	return out
}

// PageRankResidual returns the maximum residual |pr(u) - (0.15 + 0.85 Σ
// pr(v)/deg(v))| over all vertices — a convergence quality measure
// independent of execution order.
func PageRankResidual(g *graph.Graph, pr []float64) float64 { return residual(g, pr, false) }

// PageRankReachedResidual is PageRankResidual over the vertices with
// in-neighbours: a tolerance-halting PageRank never updates the others
// after its first execution, since no message reaches them.
func PageRankReachedResidual(g *graph.Graph, pr []float64) float64 { return residual(g, pr, true) }

func residual(g *graph.Graph, pr []float64, skipSources bool) float64 {
	maxRes := 0.0
	for v := range g.NumVertices() {
		ins := g.InNeighbors(graph.VertexID(v))
		if skipSources && len(ins) == 0 {
			continue
		}
		sum := 0.0
		for _, in := range ins {
			if d := g.OutDegree(in); d > 0 {
				sum += pr[in] / float64(d)
			}
		}
		maxRes = max(maxRes, math.Abs(pr[v]-(0.15+0.85*sum)))
	}
	return maxRes
}

// PageRankBound is how far a converged eps-thresholded PageRank may sit
// from its equations: every vertex stopped propagating once its delta fell
// below eps, so each in-neighbor can owe it up to eps of unsent rank.
func PageRankBound(g *graph.Graph, eps float64) float64 {
	maxIn := 0
	for v := 0; v < g.NumVertices(); v++ {
		maxIn = max(maxIn, g.InDegree(graph.VertexID(v)))
	}
	return eps * float64(1+maxIn)
}

// PageRankReference iteratively computes ranks to a tight tolerance for
// comparison.
func PageRankReference(g *graph.Graph, iters int) []float64 {
	n := g.NumVertices()
	pr := make([]float64, n)
	for i := range pr {
		pr[i] = 1.0
	}
	next := make([]float64, n)
	for it := 0; it < iters; it++ {
		for v := 0; v < n; v++ {
			sum := 0.0
			for _, in := range g.InNeighbors(graph.VertexID(v)) {
				if d := g.OutDegree(in); d > 0 {
					sum += pr[in] / float64(d)
				}
			}
			next[v] = 0.15 + 0.85*sum
		}
		pr, next = next, pr
	}
	return pr
}

// errf mirrors fmt.Errorf for the validators.
func errf(format string, args ...any) error { return fmt.Errorf(format, args...) }

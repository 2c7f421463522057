package algorithms

import (
	"math"

	"serialgraph/internal/graph"
	"serialgraph/internal/model"
)

// oneOf is the table the []int32 gathers read their one-element
// contributions from (single), so gathering allocates nothing.
var oneOf = func() []int32 {
	t := make([]int32, 1024)
	for i := range t {
		t[i] = int32(i)
	}
	return t
}()

// single returns the contribution {c}: for c in oneOf's range a view of
// it whose capacity of one makes any append copy rather than write it.
func single(c int32) []int32 {
	if c >= 0 && int(c) < len(oneOf) {
		return oneOf[c : c+1 : c+1]
	}
	return []int32{c}
}

// accRoom is the least capacity of a colour accumulator (sumColors).
const accRoom = 64

// sumColors is ColoringGAS's Sum. An accumulator — a slice of at least
// accRoom capacity — is extended in place. Anything smaller is a Gather
// contribution, never to be written, and the first fold of two of them
// copies both into a new accumulator: one allocation per gather up to
// accRoom coloured in-neighbours, and none at all once the engine hands
// the accumulator back through Reset.
func sumColors(a, b []int32) []int32 {
	switch {
	case cap(a) >= accRoom:
		return append(a, b...)
	case len(b) == 0:
		return a
	case len(a) == 0:
		return b
	}
	acc := make([]int32, 0, max(accRoom, 2*(len(a)+len(b))))
	return append(append(acc, a...), b...)
}

// ColoringGAS is greedy coloring in GAS form: gather collects neighbor
// colors, apply picks the smallest free color and scatters only on change.
// GraphLab's pull-based model completes in a single pass per vertex under
// serializability (§7.2.1).
func ColoringGAS() model.GASProgram[int32, []int32] {
	return model.GASProgram[int32, []int32]{
		Name: "coloring-gas",
		Init: func(graph.VertexID, *graph.Graph) int32 { return NoColor },
		Gather: func(_, _ graph.VertexID, nbrVal int32, _ float64) []int32 {
			if nbrVal == NoColor {
				return nil
			}
			return single(nbrVal)
		},
		Sum:   sumColors,
		Reset: func(acc []int32) []int32 { return acc[:0] },
		Apply: func(_ graph.VertexID, old int32, acc []int32, _ bool) (int32, bool) {
			c := smallestFree(acc)
			if old != NoColor {
				// Already colored: keep the color unless a conflict arose.
				conflict := false
				for _, u := range acc {
					if u == old {
						conflict = true
						break
					}
				}
				if !conflict {
					return old, false
				}
			}
			return c, c != old
		},
		ValBytes: 4,
	}
}

// PageRankGAS is PageRank in GAS form. Gather needs each in-neighbor's
// out-degree, so the constructor closes over the graph.
func PageRankGAS(g *graph.Graph, eps float64) model.GASProgram[float64, float64] {
	return model.GASProgram[float64, float64]{
		Name: "pagerank-gas",
		Init: func(graph.VertexID, *graph.Graph) float64 { return 1.0 },
		Gather: func(_, nbr graph.VertexID, nbrVal float64, _ float64) float64 {
			if d := g.OutDegree(nbr); d > 0 {
				return nbrVal / float64(d)
			}
			return 0
		},
		Sum: func(a, b float64) float64 { return a + b },
		Apply: func(_ graph.VertexID, old float64, acc float64, hasAcc bool) (float64, bool) {
			pr := 0.15
			if hasAcc {
				pr += 0.85 * acc
			}
			return pr, math.Abs(pr-old) > eps
		},
		ValBytes: 8,
	}
}

// SSSPGAS is SSSP in GAS form: gather pulls each in-neighbor's distance
// plus the edge weight, apply keeps the minimum and scatters on
// improvement.
func SSSPGAS(source graph.VertexID) model.GASProgram[float64, float64] {
	return model.GASProgram[float64, float64]{
		Name: "sssp-gas",
		Init: func(id graph.VertexID, _ *graph.Graph) float64 {
			if id == source {
				return 0
			}
			return Infinity
		},
		Gather: func(_, _ graph.VertexID, nbrVal float64, w float64) float64 {
			if w == 0 {
				w = 1
			}
			return nbrVal + w
		},
		Sum: math.Min,
		Apply: func(_ graph.VertexID, old float64, acc float64, hasAcc bool) (float64, bool) {
			if hasAcc && acc < old {
				return acc, true
			}
			// The source's first activation must scatter its 0 distance.
			return old, old == 0
		},
		ValBytes: 8,
	}
}

// WCCGAS is HCC in GAS form on a symmetrized graph.
func WCCGAS() model.GASProgram[int32, int32] {
	return model.GASProgram[int32, int32]{
		Name: "wcc-gas",
		Init: func(id graph.VertexID, _ *graph.Graph) int32 { return int32(id) },
		Gather: func(_, _ graph.VertexID, nbrVal int32, _ float64) int32 {
			return nbrVal
		},
		Sum: func(a, b int32) int32 {
			if a < b {
				return a
			}
			return b
		},
		Apply: func(_ graph.VertexID, old int32, acc int32, hasAcc bool) (int32, bool) {
			if hasAcc && acc < old {
				return acc, true
			}
			return old, false
		},
		ValBytes: 4,
	}
}

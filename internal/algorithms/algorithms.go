// Package algorithms implements the paper's four evaluation algorithms
// (§7.2) — greedy graph coloring, PageRank, SSSP, and WCC — in both the
// Pregel vertex-program form (for the BSP/AP engines) and the GAS form (for
// the GraphLab-style engine). All are written against the serializable AP
// abstraction of §6.5: initialization is value-driven rather than
// superstep-driven, so the algorithms behave identically under token
// passing, which cannot guarantee that every vertex executes in every
// superstep.
package algorithms

import (
	"math"
	"math/bits"

	"serialgraph/internal/graph"
	"serialgraph/internal/model"
)

// NoColor is the initial vertex value for graph coloring.
const NoColor int32 = -1

// smallestFree returns the smallest non-negative color not present in the
// used list (the greedy "mex" choice of Algorithm 1 line 6). The answer is
// at most len(used), so only colors up to that mark the bitmap: a stack
// one up to 4 095 entries, a heap one beyond.
func smallestFree(used []int32) int32 {
	n := len(used)
	var stack [64]uint64
	var set []uint64
	if n>>6 < len(stack) {
		set = stack[:n>>6+1]
	} else {
		set = make([]uint64, n>>6+1)
	}
	for _, c := range used {
		if c >= 0 && int(c) <= n {
			set[c>>6] |= 1 << (c & 63)
		}
	}
	i := 0
	for set[i] == ^uint64(0) {
		i++
	}
	return int32(i<<6 + bits.TrailingZeros64(^set[i]))
}

// Coloring is the serializable greedy coloring of Algorithm 1: a vertex
// picks the smallest color conflicting with none of its neighbors' current
// colors, broadcasts it once, and halts. Under a serializable engine the
// result is a proper coloring and every vertex selects a color exactly
// once; without serializability neighbors can pick identical colors
// (coloring stays improper or oscillates, Figures 2 and 3). Requires an
// undirected (symmetrized) input graph, §7.2.1.
func Coloring() model.Program[int32, int32] {
	return model.Program[int32, int32]{
		Name:      "coloring",
		Semantics: model.Overwrite,
		MsgBytes:  4,
		Init:      func(graph.VertexID, *graph.Graph) int32 { return NoColor },
		Compute: func(ctx model.Context[int32, int32], msgs []int32) {
			if ctx.Value() == NoColor {
				c := smallestFree(msgs)
				ctx.SetValue(c)
				ctx.SendToAllOut(c)
			}
			// Extraneous wake-ups (a neighbor broadcast after we chose) just
			// halt again — the paper's third iteration (§7.2.1).
			ctx.VoteToHalt()
		},
	}
}

// ColoringRecolor is the non-serializable textbook variant used for the
// Figure 2/3 demonstrations: every execution re-selects the smallest
// non-conflicting color and re-broadcasts on change. Under BSP all
// vertices flip in lockstep forever; the serializable engines terminate.
func ColoringRecolor() model.Program[int32, int32] {
	return model.Program[int32, int32]{
		Name:      "coloring-recolor",
		Semantics: model.Overwrite,
		MsgBytes:  4,
		Init:      func(graph.VertexID, *graph.Graph) int32 { return NoColor },
		Compute: func(ctx model.Context[int32, int32], msgs []int32) {
			if ctx.Value() == NoColor {
				ctx.SetValue(0)
				ctx.SendToAllOut(0)
				ctx.VoteToHalt()
				return
			}
			c := smallestFree(msgs)
			if c != ctx.Value() {
				ctx.SetValue(c)
				ctx.SendToAllOut(c)
			}
			ctx.VoteToHalt()
		},
	}
}

// PageRank computes ranks with the update pr(u) = 0.15 + 0.85 * Σ incoming
// pr(v)/deg+(v) (§7.2.2). A vertex stops propagating once its value changes
// by less than eps between consecutive executions; the run terminates when
// every vertex has converged. Messages use Overwrite semantics: the store
// keeps each in-neighbor's latest contribution, which is exactly the fresh-
// replica read set of the serializability formalism.
func PageRank(eps float64) model.Program[float64, float64] {
	return model.Program[float64, float64]{
		Name:      "pagerank",
		Semantics: model.Overwrite,
		MsgBytes:  8,
		Init:      func(graph.VertexID, *graph.Graph) float64 { return -1 },
		Compute: func(ctx model.Context[float64, float64], msgs []float64) {
			if ctx.Value() < 0 {
				// First execution: adopt the initial rank and seed the
				// neighbors.
				ctx.SetValue(1.0)
				if d := len(ctx.OutNeighbors()); d > 0 {
					ctx.SendToAllOut(1.0 / float64(d))
				}
				ctx.VoteToHalt()
				return
			}
			sum := 0.0
			for _, m := range msgs {
				sum += m
			}
			pr := 0.15 + 0.85*sum
			delta := math.Abs(pr - ctx.Value())
			ctx.SetValue(pr)
			if delta > eps {
				if d := len(ctx.OutNeighbors()); d > 0 {
					ctx.SendToAllOut(pr / float64(d))
				}
			}
			ctx.VoteToHalt()
		},
	}
}

// Infinity is the initial SSSP distance.
var Infinity = math.Inf(1)

// SSSP is parallel Bellman–Ford (§7.2.3) from the given source, using edge
// weights when present and unit weights otherwise. Min-combining semantics
// mirror Giraph's combiner support.
func SSSP(source graph.VertexID) model.Program[float64, float64] {
	minf := func(a, b float64) float64 {
		if a < b {
			return a
		}
		return b
	}
	return model.Program[float64, float64]{
		Name:      "sssp",
		Semantics: model.Combine,
		Combine:   minf,
		MsgBytes:  8,
		Init: func(id graph.VertexID, _ *graph.Graph) float64 {
			if id == source {
				return 0
			}
			return Infinity
		},
		Compute: func(ctx model.Context[float64, float64], msgs []float64) {
			d := ctx.Value()
			changed := false
			for _, m := range msgs {
				if m < d {
					d = m
					changed = true
				}
			}
			if changed {
				ctx.SetValue(d)
			}
			// The source broadcasts on every execution; other vertices
			// propagate only improvements. A "first message-less execution"
			// guard would be wrong twice over: token techniques can defer
			// the source's first execution past superstep 0 (so a
			// superstep-0 guard fails too), and confined-recovery replay
			// may inject logged messages earlier than any fault-free
			// timeline could deliver them, so a len(msgs)==0 guard would
			// silently skip the bootstrap when replaying from the initial
			// state (the engine's replay contract — see confinedEligible —
			// forbids absence-based send guards). Re-broadcasts are
			// idempotent under the min combiner.
			if changed || (ctx.ID() == source && d == 0) {
				nbs := ctx.OutNeighbors()
				ws := ctx.OutWeights()
				for i, nb := range nbs {
					w := 1.0
					if ws != nil {
						w = ws[i]
					}
					ctx.Send(nb, d+w)
				}
			}
			ctx.VoteToHalt()
		},
	}
}

// WCC finds weakly connected components with the HCC label-propagation
// algorithm (§7.2.4): labels start at the vertex's own ID and the minimum
// label floods each component. Run it on a symmetrized graph so that
// "weakly" connected really ignores direction.
func WCC() model.Program[int32, int32] {
	mini := func(a, b int32) int32 {
		if a < b {
			return a
		}
		return b
	}
	return model.Program[int32, int32]{
		Name:      "wcc",
		Semantics: model.Combine,
		Combine:   mini,
		MsgBytes:  4,
		Init:      func(graph.VertexID, *graph.Graph) int32 { return -1 },
		Compute: func(ctx model.Context[int32, int32], msgs []int32) {
			cur := ctx.Value()
			d := cur
			if d < 0 {
				d = int32(ctx.ID())
			}
			for _, m := range msgs {
				if m < d {
					d = m
				}
			}
			if cur < 0 || d < cur {
				ctx.SetValue(d)
				ctx.SendToAllOut(d)
			}
			ctx.VoteToHalt()
		},
	}
}

// PageRankAggregated is the aggregator-terminated PageRank variant: every
// vertex contributes |Δpr| into a global "error" aggregator each superstep
// and the master halts the computation when the total error drops below
// tol. All vertices run every superstep (no per-vertex halting), which is
// how production Giraph jobs usually terminate PageRank.
func PageRankAggregated(tol float64) model.Program[float64, float64] {
	return model.Program[float64, float64]{
		Name:      "pagerank-aggregated",
		Semantics: model.Overwrite,
		MsgBytes:  8,
		Init:      func(graph.VertexID, *graph.Graph) float64 { return -1 },
		Compute: func(ctx model.Context[float64, float64], msgs []float64) {
			if ctx.Value() < 0 {
				ctx.SetValue(1.0)
				ctx.Aggregate("error", 1)
				if d := len(ctx.OutNeighbors()); d > 0 {
					ctx.SendToAllOut(1.0 / float64(d))
				}
				return // stay active: termination is the master's call
			}
			sum := 0.0
			for _, m := range msgs {
				sum += m
			}
			pr := 0.15 + 0.85*sum
			ctx.Aggregate("error", math.Abs(pr-ctx.Value()))
			ctx.SetValue(pr)
			if d := len(ctx.OutNeighbors()); d > 0 {
				ctx.SendToAllOut(pr / float64(d))
			}
		},
		MasterHalt: func(superstep int, agg map[string]float64) bool {
			return superstep > 0 && agg["error"] < tol
		},
	}
}

package algorithms

import (
	"serialgraph/internal/graph"
	"serialgraph/internal/model"
)

// MIS vertex states.
const (
	MISUnknown int32 = 0
	MISIn      int32 = 1
	MISOut     int32 = 2
)

// MISGreedy computes a maximal independent set with the one-pass greedy
// rule: a vertex joins the set iff, at the moment it executes, no neighbor
// has joined. This is exactly the class of algorithm the paper's
// introduction motivates — correct only under serializability. Under a
// serializable engine every vertex decides once and the result is a valid
// MIS; without serializability two adjacent vertices can join
// simultaneously. Requires an undirected input graph.
func MISGreedy() model.Program[int32, int32] {
	return model.Program[int32, int32]{
		Name:      "mis-greedy",
		Semantics: model.Overwrite,
		MsgBytes:  4,
		Init:      func(graph.VertexID, *graph.Graph) int32 { return MISUnknown },
		Compute: func(ctx model.Context[int32, int32], msgs []int32) {
			if ctx.Value() == MISUnknown {
				for _, m := range msgs {
					if m == MISIn {
						ctx.SetValue(MISOut)
						ctx.VoteToHalt()
						return
					}
				}
				ctx.SetValue(MISIn)
				ctx.SendToAllOut(MISIn)
			}
			ctx.VoteToHalt()
		},
	}
}

// MISGreedyGAS is the same greedy rule in GAS form for the vertex-locking
// engine. Apply only asks whether some in-neighbour is In, so Sum keeps the
// first non-empty contribution and gathering allocates nothing.
func MISGreedyGAS() model.GASProgram[int32, []int32] {
	return model.GASProgram[int32, []int32]{
		Name: "mis-greedy-gas",
		Init: func(graph.VertexID, *graph.Graph) int32 { return MISUnknown },
		Gather: func(_, _ graph.VertexID, nbrVal int32, _ float64) []int32 {
			if nbrVal == MISIn {
				return single(nbrVal)
			}
			return nil
		},
		Sum: func(a, b []int32) []int32 {
			if len(a) > 0 {
				return a
			}
			return b
		},
		Apply: func(_ graph.VertexID, old int32, acc []int32, _ bool) (int32, bool) {
			if old != MISUnknown {
				return old, false
			}
			if len(acc) > 0 {
				return MISOut, false
			}
			return MISIn, true // activate neighbors so they mark themselves Out
		},
		ValBytes: 4,
	}
}

// LubyValue packs the per-round random priority with the MIS state.
type LubyValue struct {
	State    int32
	Priority uint32
}

// LubyMsg carries a neighbor's round priority or decision.
type LubyMsg struct {
	From     graph.VertexID
	State    int32
	Priority uint32
}

// lubyHash derives a deterministic per-(vertex, round) priority.
func lubyHash(v graph.VertexID, round int, seed uint64) uint32 {
	x := uint64(v)<<32 ^ uint64(round) + seed*0x9e3779b97f4a7c15
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return uint32(x)
}

// MISLuby computes a maximal independent set with Luby's randomized
// algorithm, the classic approach that does NOT require serializability:
// each round, every undecided vertex draws a priority, joins the set if its
// priority beats all undecided neighbors, and neighbors of joiners drop
// out. It takes O(log n) rounds of two supersteps each and must run under
// plain BSP (the phase structure relies on one-superstep message delay) —
// the baseline the paper's greedy-under-serializability improves on
// conceptually: one serializable pass versus many rounds. Requires an
// undirected graph.
func MISLuby(seed uint64) model.Program[LubyValue, LubyMsg] {
	return model.Program[LubyValue, LubyMsg]{
		Name:      "mis-luby",
		Semantics: model.Queue,
		MsgBytes:  12,
		Init: func(graph.VertexID, *graph.Graph) LubyValue {
			return LubyValue{State: MISUnknown}
		},
		Compute: func(ctx model.Context[LubyValue, LubyMsg], msgs []LubyMsg) {
			v := ctx.Value()
			round := ctx.Superstep() / 2
			if ctx.Superstep()%2 == 0 {
				// Phase A: In decisions from the previous round's phase B
				// arrive now; neighbors of joiners drop out. The remaining
				// undecided vertices broadcast this round's priority.
				if v.State == MISUnknown {
					for _, m := range msgs {
						if m.State == MISIn {
							v.State = MISOut
							ctx.SetValue(v)
							ctx.VoteToHalt()
							return
						}
					}
					v.Priority = lubyHash(ctx.ID(), round, seed)
					ctx.SetValue(v)
					ctx.SendToAllOut(LubyMsg{From: ctx.ID(), State: MISUnknown, Priority: v.Priority})
					return // stay active for phase B
				}
				ctx.VoteToHalt()
				return
			}
			// Phase B: decide.
			if v.State != MISUnknown {
				ctx.VoteToHalt()
				return
			}
			win := true
			for _, m := range msgs {
				switch m.State {
				case MISIn:
					v.State = MISOut
					ctx.SetValue(v)
					ctx.VoteToHalt()
					return
				case MISUnknown:
					// Tie-break by ID for distinct-priority guarantees.
					if m.Priority < v.Priority || (m.Priority == v.Priority && m.From < ctx.ID()) {
						win = false
					}
				}
			}
			if win {
				v.State = MISIn
				ctx.SetValue(v)
				ctx.SendToAllOut(LubyMsg{From: ctx.ID(), State: MISIn})
				ctx.VoteToHalt()
				return
			}
			// Lost this round: stay active for the next one.
		},
	}
}

// LubyStates extracts the MIS states from MISLuby's final values.
func LubyStates(vals []LubyValue) []int32 {
	out := make([]int32, len(vals))
	for i, v := range vals {
		out[i] = v.State
	}
	return out
}

// ValidateMIS checks that states describes a maximal independent set of the
// undirected graph g: no two adjacent In vertices (independence), every
// vertex decided, and every Out vertex has an In neighbor (maximality).
func ValidateMIS(g *graph.Graph, states []int32) error {
	n := g.NumVertices()
	if len(states) != n {
		return errf("mis: got %d states for %d vertices", len(states), n)
	}
	for v := 0; v < n; v++ {
		u := graph.VertexID(v)
		switch states[v] {
		case MISIn:
			for _, nb := range g.OutNeighbors(u) {
				if nb != u && states[nb] == MISIn {
					return errf("mis: adjacent vertices %d and %d both In", v, nb)
				}
			}
		case MISOut:
			hasIn := false
			for _, nb := range g.OutNeighbors(u) {
				if states[nb] == MISIn {
					hasIn = true
					break
				}
			}
			if !hasIn {
				return errf("mis: vertex %d is Out with no In neighbor (not maximal)", v)
			}
		default:
			return errf("mis: vertex %d undecided", v)
		}
	}
	return nil
}

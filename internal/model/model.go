// Package model defines the vertex-centric programming model shared by all
// engines: the Pregel-style compute function with vote-to-halt semantics
// (used by the BSP and AP engines) and the GAS gather/apply/scatter program
// (used by the GraphLab-style async engine). Algorithms are written once
// against these types and run unchanged under any engine and any
// synchronization technique — the transparency property the paper argues
// for in §6.5.
package model

import (
	"serialgraph/internal/graph"
)

// Semantics selects how the message store treats incoming messages.
type Semantics uint8

const (
	// Queue appends every message and hands the batch to the next
	// execution, which consumes it. Classic Pregel.
	Queue Semantics = iota
	// Combine folds messages into a single slot with the program's Combine
	// function (e.g. min for SSSP/WCC); the slot is consumed when read.
	Combine
	// Overwrite keeps each in-edge neighbor's latest message; reads see all
	// present ones and do not consume them. This makes the store a replica
	// table of in-neighbor state, which is the read-set formalization of
	// §3.2 — coloring and PageRank use it. A replica is of a neighbor's
	// broadcast, so an Overwrite program sends with SendToAllOut only.
	Overwrite
)

func (s Semantics) String() string {
	switch s {
	case Queue:
		return "queue"
	case Combine:
		return "combine"
	case Overwrite:
		return "overwrite"
	}
	return "unknown"
}

// Context is the view a vertex program has of its vertex during one
// execution (one transaction T(Nu) in the paper's terms).
type Context[V, M any] interface {
	// Superstep returns the current superstep, starting at 0.
	Superstep() int
	// ID returns the vertex being executed.
	ID() graph.VertexID
	// Value returns the current vertex value.
	Value() V
	// SetValue replaces the vertex value (the transaction's write w[u]).
	SetValue(v V)
	// OutNeighbors lists the out-edge neighbors.
	OutNeighbors() []graph.VertexID
	// OutWeights lists edge weights parallel to OutNeighbors, nil if
	// unweighted.
	OutWeights() []float64
	// Send delivers m to dst at the time the engine's model dictates
	// (next superstep under BSP, immediately under AP). An Overwrite
	// program may not call it: the engine fails the run.
	Send(dst graph.VertexID, m M)
	// SendToAllOut broadcasts m along all out-edges.
	SendToAllOut(m M)
	// VoteToHalt deactivates the vertex until a new message arrives.
	VoteToHalt()
	// NumVertices returns the global vertex count.
	NumVertices() int
	// Aggregate adds v into the named global aggregator (summed across all
	// vertices; visible next superstep).
	Aggregate(name string, v float64)
	// Aggregated reads the named aggregator's value from the previous
	// superstep.
	Aggregated(name string) float64
	// AddEdgeRequest asks the engine to add the directed edge src->dst
	// (weight w; pass 1 for unweighted graphs) at the next global barrier
	// (Pregel topology mutation). Duplicate requests are deduplicated and
	// removals win over additions in the same superstep. Mutations require
	// an engine without a serializability technique: the formalism of §3
	// assumes a static read set.
	AddEdgeRequest(src, dst graph.VertexID, w float64)
	// RemoveEdgeRequest asks the engine to remove every src->dst edge at
	// the next global barrier.
	RemoveEdgeRequest(src, dst graph.VertexID)
}

// Program is a Pregel-style vertex program. Compute runs once per active
// vertex per superstep; msgs holds the messages visible to this execution
// under the engine's semantics.
type Program[V, M any] struct {
	// Name identifies the algorithm in logs and stats.
	Name string
	// Semantics selects the message store mode.
	Semantics Semantics
	// Combine folds two messages; required when Semantics == Combine.
	Combine func(a, b M) M
	// Init returns a vertex's value before superstep 0. Nil means the zero
	// value.
	Init func(id graph.VertexID, g *graph.Graph) V
	// Compute is the user compute function.
	Compute func(ctx Context[V, M], msgs []M)
	// MsgBytes is the simulated wire size of one message payload.
	MsgBytes int
	// MasterHalt, when non-nil, runs on the master at the end of every
	// superstep with the merged aggregator values; returning true
	// terminates the computation (Pregel's master-compute halting).
	MasterHalt func(superstep int, aggregates map[string]float64) bool
	// MsgAppend/MsgRead, when both non-nil, are the program's wire
	// serialization contract: MsgAppend appends one message's encoding to
	// dst, MsgRead parses one message from the front of b and returns the
	// bytes consumed and must not keep b, which is a read buffer the
	// transport reuses. Real transport backends use them to encode batches;
	// when nil, the transport falls back to an automatic codec (compact
	// fixed/varint layouts for numeric M, gob for struct messages).
	MsgAppend func(dst []byte, m M) []byte
	MsgRead   func(b []byte) (M, int, error)
}

// GASProgram is a GraphLab-style gather/apply/scatter program. The gather
// phase pulls each in-neighbor's current value; Apply folds the accumulated
// result into a new vertex value and decides whether to activate the
// out-neighbors (scatter).
type GASProgram[V, M any] struct {
	Name string
	// Init returns a vertex's initial value.
	Init func(id graph.VertexID, g *graph.Graph) V
	// Gather maps one in-neighbor's value to an accumulator contribution.
	Gather func(u, nbr graph.VertexID, nbrVal V, weight float64) M
	// Sum combines two gather contributions.
	Sum func(a, b M) M
	// Reset, if non-nil, empties an accumulator the engine has finished
	// with (one Apply has consumed it) so that its memory can serve the
	// next gather: the engine then starts every gather from Reset of the
	// previous accumulator and folds each contribution into it with Sum.
	// Programs whose accumulators allocate (a list) set it.
	Reset func(acc M) M
	// Apply computes the new value from the old value and the accumulated
	// gather (hasAcc is false for vertices with no in-edges). It returns
	// the new value and whether the vertex's out-neighbors should be
	// activated (scattered to).
	Apply func(u graph.VertexID, old V, acc M, hasAcc bool) (V, bool)
	// Converged, if non-nil, reports whether a re-execution of u can be
	// skipped entirely (used for per-vertex halting on reactivation).
	Converged func(old, new V) bool
	// ValBytes is the simulated wire size of a replicated vertex value.
	ValBytes int
}

package graph

import (
	"math/rand"
	"testing"
)

// InSlot microbenchmarks: the satellite claim is that the small-degree
// two-way scan does not regress the slot-hint miss path (lookups for a
// src that is not an in-neighbor — what HasEdge hits when a mutation
// rebuild drops removed edges), and beats the old closure-based sort.Search on hits.
// Compare against BenchmarkInSlot*/sortSearch which preserves the old
// implementation inline.

func inSlotSortSearch(g *Graph, u, src VertexID) (int, bool) {
	in := g.InNeighbors(u)
	// The pre-change implementation, kept for A/B runs:
	// sort.Search inlined via the stdlib call.
	lo, hi := 0, len(in)
	_ = hi
	i := searchVertexIDs(in, src)
	if i < len(in) && in[i] == src {
		return i, true
	}
	_ = lo
	return 0, false
}

// searchVertexIDs mimics sort.Search's closure-driven probe loop.
func searchVertexIDs(in []VertexID, src VertexID) int {
	f := func(i int) bool { return in[i] >= src }
	i, j := 0, len(in)
	for i < j {
		h := int(uint(i+j) >> 1)
		if !f(h) {
			i = h + 1
		} else {
			j = h
		}
	}
	return i
}

// benchGraph builds a power-law-ish workload: many small in-lists plus
// a few hubs, with a precomputed probe schedule.
func benchGraph(hit bool) (*Graph, []VertexID, []VertexID) {
	const n = 4096
	r := rand.New(rand.NewSource(17))
	b := NewBuilder(n)
	for v := 1; v < n; v++ {
		deg := 1 + r.Intn(6) // mostly tiny in-degrees
		if v%512 == 0 {
			deg = 64 // hubs exercise the binary-search arm
		}
		for i := 0; i < deg; i++ {
			b.AddEdge(VertexID(r.Intn(n)), VertexID(v))
		}
	}
	g := b.Build()
	us := make([]VertexID, 1024)
	srcs := make([]VertexID, 1024)
	for i := range us {
		u := VertexID(1 + r.Intn(n-1))
		us[i] = u
		in := g.InNeighbors(u)
		if hit && len(in) > 0 {
			srcs[i] = in[r.Intn(len(in))]
		} else {
			// Miss: a src that is extremely unlikely to be an in-neighbor.
			srcs[i] = VertexID(n - 1 - r.Intn(8))
			if _, ok := g.InSlot(u, srcs[i]); ok {
				srcs[i] = VertexID(u) // fall back; self-loops are rare
			}
		}
	}
	return g, us, srcs
}

func benchInSlot(b *testing.B, hit bool, f func(*Graph, VertexID, VertexID) (int, bool)) {
	g, us, srcs := benchGraph(hit)
	b.ResetTimer()
	sink := 0
	for i := 0; i < b.N; i++ {
		k := i & 1023
		s, ok := f(g, us[k], srcs[k])
		if ok {
			sink += s
		}
	}
	_ = sink
}

func BenchmarkInSlotHit(b *testing.B) {
	benchInSlot(b, true, (*Graph).InSlot)
}

func BenchmarkInSlotMiss(b *testing.B) {
	benchInSlot(b, false, (*Graph).InSlot)
}

func BenchmarkInSlotHitSortSearch(b *testing.B) {
	benchInSlot(b, true, inSlotSortSearch)
}

func BenchmarkInSlotMissSortSearch(b *testing.B) {
	benchInSlot(b, false, inSlotSortSearch)
}

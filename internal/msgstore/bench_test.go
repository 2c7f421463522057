package msgstore

import (
	"fmt"
	"sync"
	"testing"

	"serialgraph/internal/generate"
	"serialgraph/internal/graph"
	"serialgraph/internal/model"
)

// benchGraph is shared by the microbenchmarks: large enough that the
// store's striping matters, small enough to set up quickly.
func benchGraph(b *testing.B) *graph.Graph {
	b.Helper()
	return generate.PowerLaw(generate.PowerLawConfig{N: 4096, AvgDegree: 8, Exponent: 2.2, Seed: 7})
}

func benchOwned(g *graph.Graph) []graph.VertexID {
	owned := make([]graph.VertexID, g.NumVertices())
	for v := range owned {
		owned[v] = graph.VertexID(v)
	}
	return owned
}

func benchStore(g *graph.Graph, kind model.Semantics) *Store[int32] {
	var combine func(a, b int32) int32
	if kind == model.Combine {
		combine = func(a, b int32) int32 { return a + b }
	}
	return New(g, benchOwned(g), kind, combine)
}

// benchEntries builds a realistic message stream: every vertex sends one
// message along each of its out-edges, in vertex order — the shape both
// eager local delivery and remote batches produce.
func benchEntries(g *graph.Graph) []Entry[int32] {
	var out []Entry[int32]
	for v := 0; v < g.NumVertices(); v++ {
		u := graph.VertexID(v)
		for _, nb := range g.OutNeighbors(u) {
			out = append(out, Entry[int32]{Dst: nb, Src: u, Msg: int32(v)})
		}
	}
	return out
}

var semanticsCases = []struct {
	name string
	kind model.Semantics
}{
	{"Queue", model.Queue},
	{"Combine", model.Combine},
	{"Overwrite", model.Overwrite},
}

// BenchmarkPut measures per-message delivery (the eager local path)
// across semantics and writer counts.
func BenchmarkPut(b *testing.B) {
	g := benchGraph(b)
	entries := benchEntries(g)
	for _, sc := range semanticsCases {
		for _, workers := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%s/goroutines=%d", sc.name, workers), func(b *testing.B) {
				s := benchStore(g, sc.kind)
				b.ResetTimer()
				var wg sync.WaitGroup
				per := b.N/workers + 1
				for w := 0; w < workers; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						for i := 0; i < per; i++ {
							e := entries[(w*per+i)%len(entries)]
							s.Put(e.Dst, e.Src, e.Msg, 0)
						}
					}(w)
				}
				wg.Wait()
			})
		}
	}
}

// BenchmarkPutBatch measures the batched apply (remote delivery and
// staged-local folds) across semantics and concurrent applier counts.
func BenchmarkPutBatch(b *testing.B) {
	g := benchGraph(b)
	entries := benchEntries(g)
	const batchSize = 512
	for _, sc := range semanticsCases {
		for _, workers := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%s/goroutines=%d", sc.name, workers), func(b *testing.B) {
				s := benchStore(g, sc.kind)
				// Each goroutine replays from a private copy, as each
				// applier owns the batch it was handed.
				scratch := make([][]Entry[int32], workers)
				for w := range scratch {
					scratch[w] = make([]Entry[int32], batchSize)
				}
				b.ResetTimer()
				var wg sync.WaitGroup
				per := b.N/(workers*batchSize) + 1
				for w := 0; w < workers; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						off := (w * 131) % len(entries)
						for i := 0; i < per; i++ {
							n := copy(scratch[w], entries[off:])
							s.PutBatch(scratch[w][:n])
							off = (off + n) % (len(entries) - batchSize)
						}
					}(w)
				}
				wg.Wait()
			})
		}
	}
}

// BenchmarkRead measures message consumption across semantics.
func BenchmarkRead(b *testing.B) {
	g := benchGraph(b)
	entries := benchEntries(g)
	for _, sc := range semanticsCases {
		for _, workers := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%s/goroutines=%d", sc.name, workers), func(b *testing.B) {
				s := benchStore(g, sc.kind)
				for _, e := range entries {
					s.Put(e.Dst, e.Src, e.Msg, 0)
				}
				n := g.NumVertices()
				b.ResetTimer()
				var wg sync.WaitGroup
				per := b.N/workers + 1
				for w := 0; w < workers; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						var r Reader[int32]
						for i := 0; i < per; i++ {
							s.Read(graph.VertexID((w*per+i)%n), &r)
						}
					}(w)
				}
				wg.Wait()
			})
		}
	}
}

// pagerankShard is the input of the Overwrite store benchmarks: a graph
// like BSP PageRank's, whose per-edge table exceeds the cache, and the
// quarter of its vertices one worker of four owns.
func pagerankShard() (*graph.Graph, []graph.VertexID) {
	g := generate.PowerLaw(generate.PowerLawConfig{N: 40000, AvgDegree: 20, Exponent: 2.2, Seed: 7})
	var owned []graph.VertexID
	for v := 0; v < g.NumVertices(); v += 4 {
		owned = append(owned, graph.VertexID(v))
	}
	return g, owned
}

// BenchmarkStoreOverwritePutBatch measures the dense point-entry delivery
// path of a locked (Async/BAP) Overwrite store: every in-edge of
// pagerankShard delivers one float64 message per pass, in sender order, in
// 512-entry batches that carry the in-slot hint a sender's local targets
// carry. One op is one entry. A phased store takes fan-out entries only:
// BenchmarkStorePutBatchFanOut times both kinds.
func BenchmarkStoreOverwritePutBatch(b *testing.B) {
	g, owned := pagerankShard()
	var entries []Entry[float64]
	for v := 0; v < g.NumVertices(); v++ {
		for _, dst := range g.OutNeighbors(graph.VertexID(v)) {
			if dst%4 == 0 {
				slot, _ := g.InSlot(dst, graph.VertexID(v))
				entries = append(entries, Entry[float64]{Dst: dst, Src: graph.VertexID(v), Msg: float64(v), Slot: uint32(slot) + 1})
			}
		}
	}
	const batchSize = 512
	s := New[float64](g, owned, model.Overwrite, nil)
	scratch := make([]Entry[float64], batchSize)
	b.ReportAllocs()
	b.ResetTimer()
	for done, off := 0, 0; done < b.N; done += batchSize {
		if off+batchSize > len(entries) {
			off = 0
			s.Clear() // the store swap between passes
		}
		copy(scratch, entries[off:off+batchSize]) // as the transport hands over each batch
		s.PutBatch(scratch)
		off += batchSize
	}
}

// benchStoreKinds runs f as one sub-benchmark per store kind, "locked"
// (Async/BAP) and "phased" (BSP), each on a fresh Overwrite store over
// owned taking fan-out entries through tab.
func benchStoreKinds(b *testing.B, g *graph.Graph, owned []graph.VertexID, tab *FanOutTable, f func(b *testing.B, s *Store[float64])) {
	for _, k := range storeKinds {
		b.Run(k.name, func(b *testing.B) {
			s := newStoreKind[float64](g, owned, model.Overwrite, nil, k.phased)
			s.SetFanOut(tab)
			b.ReportAllocs()
			b.ResetTimer()
			f(b, s)
		})
	}
}

// fanOutPass is one BSP PageRank pass over pagerankShard as SendToAllOut
// sends it: one fan-out entry per source with an out-neighbor on the
// worker, in source order.
func fanOutPass(g *graph.Graph, tab *FanOutTable) []Entry[float64] {
	var entries []Entry[float64]
	for v := 0; v < g.NumVertices(); v++ {
		if len(tab.Row(graph.VertexID(v))) > 0 {
			entries = append(entries, Entry[float64]{Dst: FanOut, Src: graph.VertexID(v), Msg: float64(v)})
		}
	}
	return entries
}

// BenchmarkStorePutBatchFanOut is BenchmarkStoreOverwritePutBatch's pass
// sent as fanOutPass, expanded through the source table, in 512-entry
// batches. One op is one in-edge reached, so the two benchmarks' ns/op
// compare per replica update applied. Both store kinds.
func BenchmarkStorePutBatchFanOut(b *testing.B) {
	g, owned := pagerankShard()
	tab := NewFanOutTable(g, owned)
	entries := fanOutPass(g, tab)
	const batchSize = 512
	var batches [][]Entry[float64]
	var slots []int // per batch
	for off := 0; off+batchSize <= len(entries); off += batchSize {
		n := 0
		for _, e := range entries[off : off+batchSize] {
			n += len(tab.Row(e.Src))
		}
		batches, slots = append(batches, entries[off:off+batchSize]), append(slots, n)
	}
	benchStoreKinds(b, g, owned, tab, func(b *testing.B, s *Store[float64]) {
		scratch := make([]Entry[float64], batchSize)
		for done, i := 0, 0; done < b.N; done, i = done+slots[i], i+1 {
			if i == len(batches) {
				i = 0
				s.Clear() // the BSP store swap between passes
			}
			copy(scratch, batches[i])
			s.PutBatch(scratch)
		}
	})
}

// BenchmarkStoreOverwriteRead measures the read side of
// BenchmarkStorePutBatchFanOut's pass: the store holds one full fanOutPass,
// and each worker-order sweep reads every owned vertex, as a BSP superstep
// of PageRank does. One op is one in-edge read, so ns/op is the gather's
// cost per in-edge on a phased store and the per-edge slot scan's on a
// locked one.
func BenchmarkStoreOverwriteRead(b *testing.B) {
	g, owned := pagerankShard()
	tab := NewFanOutTable(g, owned)
	entries := fanOutPass(g, tab)
	inEdges := 0
	for _, v := range owned {
		inEdges += g.InDegree(v)
	}
	benchStoreKinds(b, g, owned, tab, func(b *testing.B, s *Store[float64]) {
		b.StopTimer()
		s.PutBatch(append([]Entry[float64](nil), entries...))
		b.StartTimer()
		var r Reader[float64]
		for done := 0; done < b.N; done += inEdges {
			for li := range owned {
				s.ReadLocal(int32(li), &r)
			}
		}
	})
}

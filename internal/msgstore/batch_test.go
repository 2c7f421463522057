package msgstore

// Batched-path equivalence tests: PutBatch must be observationally
// identical to per-message Put under every semantics (it only changes the
// locking pattern), AddBatch must be observationally identical to
// per-message Add (it only changes lock granularity), and the recycled
// batch slices installed by SetAlloc must never leak one batch's entries
// into another.

import (
	"math/rand"
	"sort"
	"testing"

	"serialgraph/internal/graph"
	"serialgraph/internal/model"
)

// randomGraph builds a dense-ish random digraph so every vertex has
// in-neighbors for Overwrite mode to address.
func randomGraph(n int, rng *rand.Rand) *graph.Graph {
	b := graph.NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u != v && rng.Intn(3) == 0 {
				b.AddEdge(graph.VertexID(u), graph.VertexID(v))
			}
		}
	}
	return b.Build()
}

// randomEntries draws messages along existing edges (so Overwrite accepts
// them), with duplicates across (dst, src) pairs to exercise last-wins and
// combining paths.
func randomEntries(g *graph.Graph, count int, rng *rand.Rand) []Entry[int] {
	var es []Entry[int]
	n := g.NumVertices()
	for len(es) < count {
		u := graph.VertexID(rng.Intn(n))
		outs := g.OutNeighbors(u)
		if len(outs) == 0 {
			continue
		}
		dst := outs[rng.Intn(len(outs))]
		e := Entry[int]{Dst: dst, Src: u, Msg: rng.Intn(1000), Ver: uint32(rng.Intn(5))}
		if rng.Intn(2) == 0 {
			if pos, ok := g.InSlot(dst, u); ok {
				e.Slot = uint32(pos) + 1
			}
		}
		es = append(es, e)
	}
	return es
}

// drain reads every vertex's messages into a canonical comparable form.
func drain(t *testing.T, s *Store[int], n int) map[graph.VertexID][]int {
	t.Helper()
	out := make(map[graph.VertexID][]int)
	var r Reader[int]
	for v := 0; v < n; v++ {
		if s.Read(graph.VertexID(v), &r) {
			msgs := append([]int(nil), r.Msgs...)
			sort.Ints(msgs)
			out[graph.VertexID(v)] = msgs
		}
	}
	return out
}

// TestPutBatchMatchesPut: PutBatch equals per-message PutSlot on a locked
// store, and a fan-out entry equals PutSlot of the per-edge messages it
// stands for. Batches mix point and fan-out entries over a multigraph
// (duplicate edges and self-loops keep one slot each), and PutBatch returns
// exactly the number of in-edges its fan-out entries reached. Every
// semantics runs on both store kinds, locked and phased (NewPhased); a
// phased Overwrite store keeps one replica per source, so its batches are
// fan-out entries only, and it reads as the per-edge store does.
func TestPutBatchMatchesPut(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	g := randomMultigraph(24, rng)
	owned := all(24)
	tab := NewFanOutTable(g, owned)
	add := func(a, b int) int { return a + b }
	for _, tc := range []struct {
		name    string
		sem     model.Semantics
		combine func(a, b int) int
	}{
		{"queue", model.Queue, nil},
		{"combine", model.Combine, add},
		{"overwrite", model.Overwrite, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			forStoreKinds(t, func(t *testing.T, phased bool) {
				for trial := 0; trial < 20; trial++ {
					es := randomEntries(g, 5+rng.Intn(200), rng)
					for i := range es {
						if rng.Intn(4) == 0 || phased && tc.sem == model.Overwrite {
							es[i] = fanOutEntry(g, owned, rng)
						}
					}
					ref := New[int](g, owned, tc.sem, tc.combine)
					got := newStoreKind[int](g, owned, tc.sem, tc.combine, phased)
					got.SetFanOut(tab)
					perEdge := expand(g, owned, es)
					for _, e := range perEdge {
						ref.PutSlot(e.Dst, e.Src, e.Msg, e.Ver, e.Slot)
					}
					// Split the same entries into random-size chunks to hit both
					// the small-batch lazy-relock path and the counting-sort path.
					fanned := 0
					for i := 0; i < len(es); {
						j := i + 1 + rng.Intn(64)
						if j > len(es) {
							j = len(es)
						}
						fanned += got.PutBatch(es[i:j])
						i = j
					}
					if want, have := len(perEdge)-len(es)+countFanOut(es), fanned; want != have {
						t.Fatalf("trial %d: fan_out_targets %d, want %d", trial, have, want)
					}
					if want, have := ref.NewCount(), got.NewCount(); want != have {
						t.Fatalf("trial %d: NewCount %d, want %d", trial, have, want)
					}
					w, h := drain(t, ref, 24), drain(t, got, 24)
					if len(w) != len(h) {
						t.Fatalf("trial %d: %d vertices with messages, want %d", trial, len(h), len(w))
					}
					for v, msgs := range w {
						hm := h[v]
						if len(hm) != len(msgs) {
							t.Fatalf("trial %d vertex %d: msgs %v, want %v", trial, v, hm, msgs)
						}
						for i := range msgs {
							if hm[i] != msgs[i] {
								t.Fatalf("trial %d vertex %d: msgs %v, want %v", trial, v, hm, msgs)
							}
						}
					}
				}
			})
		})
	}
}

// storeKinds are the two kinds of store: "locked" (New) and "phased"
// (NewPhased, which under Overwrite is the replica layout).
var storeKinds = []struct {
	name   string
	phased bool
}{{"locked", false}, {"phased", true}}

// newStoreKind builds a store of one kind: NewPhased when phased, else New.
func newStoreKind[M any](g *graph.Graph, owned []graph.VertexID, kind model.Semantics, combine func(a, b M) M, phased bool) *Store[M] {
	if phased {
		return NewPhased(g, owned, kind, combine)
	}
	return New(g, owned, kind, combine)
}

// forStoreKinds runs f as one subtest per store kind.
func forStoreKinds(t *testing.T, f func(t *testing.T, phased bool)) {
	for _, k := range storeKinds {
		t.Run(k.name, func(t *testing.T) { f(t, k.phased) })
	}
}

// countFanOut returns the number of fan-out entries in es.
func countFanOut(es []Entry[int]) int {
	n := 0
	for _, e := range es {
		if e.Dst == FanOut {
			n++
		}
	}
	return n
}

// randomMultigraph is randomGraph plus duplicates of some of its edges and
// some self-loops, each of which has a slot of its own in Overwrite mode.
func randomMultigraph(n int, rng *rand.Rand) *graph.Graph {
	b := graph.NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u != v && rng.Intn(3) == 0 || u == v && rng.Intn(4) == 0 {
				for dup := rng.Intn(2) * rng.Intn(3); dup >= 0; dup-- {
					b.AddEdge(graph.VertexID(u), graph.VertexID(v))
				}
			}
		}
	}
	return b.Build()
}

// TestPutBatchOverwriteLastWins pins that the counting sort behind the
// large-batch path is stable, and that a phased store applies in batch
// order: two updates for the same (dst, src) in one batch must land in
// program order, exactly as sequential Puts would. The phased store's
// updates are fan-out entries of src.
func TestPutBatchOverwriteLastWins(t *testing.T) { forStoreKinds(t, testLastWins) }

func testLastWins(t *testing.T, phased bool) {
	g := randomGraph(24, rand.New(rand.NewSource(7)))
	var dst, src graph.VertexID = -1, -1
	for v := 0; v < 24 && dst < 0; v++ {
		ins := g.InNeighbors(graph.VertexID(v))
		if len(ins) > 0 {
			dst, src = graph.VertexID(v), ins[0]
		}
	}
	if dst < 0 {
		t.Fatal("no edge found")
	}
	// Pad with messages to other vertices so the batch exceeds smallBatch.
	batch := []Entry[int]{{Dst: dst, Src: src, Msg: 1}}
	batch = append(batch, randomEntries(g, 40, rand.New(rand.NewSource(8)))...)
	batch = append(batch, Entry[int]{Dst: dst, Src: src, Msg: 2})
	s := newStoreKind[int](g, all(24), model.Overwrite, nil, phased)
	if phased {
		for i := range batch {
			batch[i].Dst = FanOut
		}
		s.SetFanOut(NewFanOutTable(g, all(24)))
	}
	s.PutBatch(batch)
	r := Reader[int]{Sources: true}
	if !s.Read(dst, &r) {
		t.Fatal("no messages for dst")
	}
	for i, u := range r.Srcs {
		if u == src && r.Msgs[i] != 2 {
			t.Errorf("slot for src %d = %d, want 2 (last write in batch order)", src, r.Msgs[i])
		}
	}
}

// flushedSink collects every emitted batch, simulating the receiver.
type flushedSink struct {
	batches [][]Entry[int]
}

func (fs *flushedSink) send(dest int, batch []Entry[int], bytes int) {
	fs.batches = append(fs.batches, append([]Entry[int](nil), batch...))
}

// totals folds everything flushed into per-destination-vertex sums, which
// is invariant under combining with addition.
func (fs *flushedSink) totals() map[graph.VertexID]int {
	out := make(map[graph.VertexID]int)
	for _, b := range fs.batches {
		for _, e := range b {
			out[e.Dst] += e.Msg
		}
	}
	return out
}

func TestAddBatchMatchesAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for _, combining := range []bool{false, true} {
		name := "plain"
		if combining {
			name = "combining"
		}
		t.Run(name, func(t *testing.T) {
			for trial := 0; trial < 10; trial++ {
				var es []Entry[int]
				for i := 0; i < 300+rng.Intn(300); i++ {
					es = append(es, Entry[int]{
						Dst: graph.VertexID(rng.Intn(40)), Src: graph.VertexID(rng.Intn(40)),
						Msg: rng.Intn(100),
					})
				}
				var refSink, gotSink flushedSink
				ref := NewBuffer[int](2, 32, 8, 16, 4, refSink.send)
				got := NewBuffer[int](2, 32, 8, 16, 4, gotSink.send)
				if combining {
					ref.SetCombiner(func(a, b int) int { return a + b })
					got.SetCombiner(func(a, b int) int { return a + b })
				}
				refSink.batches = nil
				gotSink.batches = nil
				for _, e := range es {
					ref.Add(1, e)
				}
				for i := 0; i < len(es); {
					j := i + 1 + rng.Intn(80)
					if j > len(es) {
						j = len(es)
					}
					got.AddBatch(1, es[i:j])
					i = j
				}
				ref.FlushAll()
				got.FlushAll()
				w, h := refSink.totals(), gotSink.totals()
				if len(w) != len(h) {
					t.Fatalf("trial %d: %d destination vertices, want %d", trial, len(h), len(w))
				}
				for v, sum := range w {
					if h[v] != sum {
						t.Fatalf("trial %d: vertex %d total %d, want %d", trial, v, h[v], sum)
					}
				}
			}
		})
	}
}

// TestBufferRecycledBatches drives a buffer whose allocator hands back
// previously emitted slices (as the engine's batch pool does) and checks
// no entry is lost, duplicated, or clobbered by reuse.
func TestBufferRecycledBatches(t *testing.T) {
	var free [][]Entry[int]
	var got []Entry[int]
	b := NewBuffer[int](1, 16, 8, 16, 4, func(dest int, batch []Entry[int], bytes int) {
		got = append(got, batch...)
		free = append(free, batch[:0]) // receiver done: recycle
	})
	b.SetAlloc(func() []Entry[int] {
		if len(free) == 0 {
			return nil
		}
		s := free[len(free)-1]
		free = free[:len(free)-1]
		return s
	})
	const total = 1000
	next := 0
	for next < total {
		run := 1 + next%7
		var chunk []Entry[int]
		for i := 0; i < run && next < total; i++ {
			chunk = append(chunk, Entry[int]{Dst: graph.VertexID(next % 5), Msg: next})
			next++
		}
		b.AddBatch(0, chunk)
	}
	b.FlushAll()
	if len(got) != total {
		t.Fatalf("delivered %d entries, want %d", len(got), total)
	}
	seen := make([]bool, total)
	for _, e := range got {
		if seen[e.Msg] {
			t.Fatalf("entry %d delivered twice", e.Msg)
		}
		seen[e.Msg] = true
	}
}

// TestOverwriteClearEpochs pins the epoch-based Clear: repeated clears
// must fully hide earlier puts (presence AND freshness) while keeping the
// store usable without per-edge rescrubbing.
func TestOverwriteClearEpochs(t *testing.T) {
	g := lineGraph()
	s := New[int](g, all(4), model.Overwrite, nil)
	for round := 1; round <= 5; round++ {
		s.Put(2, 0, round*10, uint32(round))
		s.Put(2, 1, round*100, uint32(round))
		var r Reader[int]
		if !s.Read(2, &r) || len(r.Msgs) != 2 {
			t.Fatalf("round %d: read %v", round, r.Msgs)
		}
		sort.Ints(r.Msgs)
		if r.Msgs[0] != round*10 || r.Msgs[1] != round*100 {
			t.Fatalf("round %d: msgs %v; stale epoch leaked", round, r.Msgs)
		}
		s.Clear()
		if s.NewCount() != 0 {
			t.Fatalf("round %d: NewCount %d after Clear", round, s.NewCount())
		}
		if s.Read(2, &r) {
			t.Fatalf("round %d: read after Clear returned %v", round, r.Msgs)
		}
	}
}

package msgstore

// The unread bitset is the store's half of the engine's frontier: the
// engine executes the vertices whose bit is set and nothing else, so the
// bits must say exactly "has messages it has not read" after any sequence
// of operations, and NewCount must be their popcount.

import (
	"math/rand"
	"sync"
	"testing"

	"serialgraph/internal/graph"
	"serialgraph/internal/model"
)

// checkFrontier compares the store against the model: want[v] is whether
// v should have unread messages.
func checkFrontier(t *testing.T, step int, op string, s *Store[int], owned []graph.VertexID, want map[graph.VertexID]bool) {
	t.Helper()
	var members []graph.VertexID
	bits, end := s.Unread(), int32(len(owned))
	for li := NextEither(bits, bits, 0, end); li < end; li = NextEither(bits, bits, li+1, end) {
		members = append(members, owned[li])
	}
	n := 0
	for li, v := range owned {
		if s.HasNew(v) != want[v] || s.Unread().Test(int32(li)) != want[v] {
			t.Fatalf("step %d (%s): vertex %d unread bit %v, HasNew %v, model %v",
				step, op, v, s.Unread().Test(int32(li)), s.HasNew(v), want[v])
		}
		if want[v] {
			if n >= len(members) || members[n] != v {
				t.Fatalf("step %d (%s): frontier walk %v misses vertex %d or is out of order", step, op, members, v)
			}
			n++
		}
	}
	if n != len(members) {
		t.Fatalf("step %d (%s): frontier walk %v has %d members, model %d", step, op, members, len(members), n)
	}
	if s.NewCount() != int64(n) || s.Unread().Count() != int64(n) {
		t.Fatalf("step %d (%s): NewCount %d, popcount %d, model %d", step, op, s.NewCount(), s.Unread().Count(), n)
	}
}

func TestFrontierTracksUnreadUnderRandomOps(t *testing.T) {
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
			rng := rand.New(rand.NewSource(7))
			// 150 vertices with every third one owned: local indices differ
			// from vertex IDs, and the 50 bits do not fill their word.
			g := randomGraph(150, rng)
			var owned []graph.VertexID
			for v := 0; v < 150; v += 3 {
				owned = append(owned, graph.VertexID(v))
			}
			toOwned := func(count int) []Entry[int] {
				var es []Entry[int]
				for len(es) < count {
					for _, e := range randomEntries(g, count, rng) {
						if e.Dst%3 == 0 {
							es = append(es, e)
						}
					}
				}
				return es[:count]
			}
			s := newFanOutStore(g, owned, tc.sem, tc.combine, perEdge)
			want := make(map[graph.VertexID]bool)
			var reader Reader[int]
			for step := 0; step < 3000; step++ {
				op := ""
				switch k := rng.Intn(100); {
				case k < 25:
					op = "Put"
					e := toOwned(1)[0]
					s.Put(e.Dst, e.Src, e.Msg, e.Ver)
					want[e.Dst] = true
				case k < 40:
					op = "PutBatch1" // one entry, with its in-slot hint when it has one
					e := toOwned(1)[0]
					s.PutBatch([]Entry[int]{e})
					want[e.Dst] = true
				case k < 55:
					op = "PutBatch"
					es := toOwned(1 + rng.Intn(60)) // both the relock and the counting-sort path
					if rng.Intn(2) == 0 {
						es[rng.Intn(len(es))] = fanOutEntry(g, owned, rng)
					}
					for _, e := range expand(g, owned, es) {
						want[e.Dst] = true
					}
					s.PutBatch(es)
				case k < 90:
					op = "Read"
					v := owned[rng.Intn(len(owned))]
					reader.Sources = step%2 == 0 // the frontier is the same in both reader modes
					s.Read(v, &reader)
					want[v] = false
				case k < 94:
					op = "Clear"
					s.Clear()
					clear(want)
				default:
					op = "Dump+Load"
					fresh := newFanOutStore(g, owned, tc.sem, tc.combine, perEdge)
					fresh.Load(s.Dump())
					s = fresh
				}
				checkFrontier(t, step, op, s, owned, want)
			}
		})
	}
}

// TestFrontierBitsUnderConcurrentPuts: bits of one word are set by
// appliers and cleared by readers on several threads at once, each under
// the word's one stripe lock, while the popcount reads it lock-free; no
// transition may be lost.
func TestFrontierBitsUnderConcurrentPuts(t *testing.T) {
	const n = 200
	b := graph.NewBuilder(n)
	for v := 1; v < n; v++ {
		b.AddEdge(0, graph.VertexID(v))
	}
	g := b.Build()
	s := New[int](g, all(n), model.Queue, nil)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var r Reader[int]
			for round := 0; round < 200; round++ {
				for v := 1 + w; v < n; v += 4 {
					s.Put(graph.VertexID(v), 0, round, 0)
					if round%2 == 1 {
						s.Read(graph.VertexID(v), &r)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	// Every round-199 put was followed by a read: nothing is unread.
	if s.NewCount() != 0 || s.Unread().Count() != 0 {
		t.Fatalf("NewCount %d, popcount %d after every message was read", s.NewCount(), s.Unread().Count())
	}
	for v := 1; v < n; v++ {
		s.Put(graph.VertexID(v), 0, 1, 0)
	}
	if s.NewCount() != n-1 || s.Unread().Count() != n-1 {
		t.Fatalf("NewCount %d, popcount %d, want %d", s.NewCount(), s.Unread().Count(), n-1)
	}
}

func TestNextEither(t *testing.T) {
	a, b := NewBits(200), NewBits(200)
	for _, i := range []int32{3, 64, 130} {
		a.Set(i)
	}
	for _, i := range []int32{3, 63, 199} {
		b.Set(i)
	}
	var got []int32
	for i := NextEither(a, b, 0, 200); i < 200; i = NextEither(a, b, i+1, 200) {
		got = append(got, i)
	}
	want := []int32{3, 63, 64, 130, 199}
	if len(got) != len(want) {
		t.Fatalf("walk = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("walk = %v, want %v", got, want)
		}
	}
	// A range is honoured at both ends, inside a word and across words.
	if i := NextEither(a, b, 4, 63); i != 63 {
		t.Errorf("NextEither(4, 63) = %d, want 63 (none)", i)
	}
	if i := NextEither(a, b, 65, 130); i != 130 {
		t.Errorf("NextEither(65, 130) = %d, want 130 (none)", i)
	}
	if i := NextEither(a, b, 131, 200); i != 199 {
		t.Errorf("NextEither(131, 200) = %d, want 199", i)
	}
}

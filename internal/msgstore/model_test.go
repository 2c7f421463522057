package msgstore

// Model-based test of Store: the same random operations run against the
// store and against a map-backed reference that keeps, per destination,
// what the three semantics promise and nothing about how they are laid
// out. The store owns only some of the graph's vertices, in an order that
// is not the identity, so a wrong offset into the flat Overwrite table
// lands in another vertex's slots and shows.

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"serialgraph/internal/graph"
	"serialgraph/internal/model"
)

type refSlot struct {
	msg int
	ver uint32
}

// refStore is the reference: Queue keeps arrival order, Combine one folded
// value, Overwrite the last message per source. Whether a destination has
// news is one flag per destination: a slot has no freshness of its own, so
// a dumped Overwrite slot is new exactly when its destination is unread.
type refStore struct {
	kind   model.Semantics
	queue  map[graph.VertexID][]int
	slots  map[graph.VertexID]map[graph.VertexID]refSlot // dst -> src -> slot
	unread map[graph.VertexID]bool
}

func newRef(kind model.Semantics) *refStore {
	return &refStore{kind: kind, queue: map[graph.VertexID][]int{},
		slots: map[graph.VertexID]map[graph.VertexID]refSlot{}, unread: map[graph.VertexID]bool{}}
}

func (m *refStore) put(e Entry[int]) {
	switch m.kind {
	case model.Queue:
		m.queue[e.Dst] = append(m.queue[e.Dst], e.Msg)
	case model.Combine:
		if q := m.queue[e.Dst]; len(q) == 1 {
			q[0] += e.Msg
		} else {
			m.queue[e.Dst] = []int{e.Msg}
		}
	case model.Overwrite:
		if m.slots[e.Dst] == nil {
			m.slots[e.Dst] = map[graph.VertexID]refSlot{}
		}
		m.slots[e.Dst][e.Src] = refSlot{e.Msg, e.Ver}
	}
	m.unread[e.Dst] = true
}

// read returns what Store.Read must put in its Reader (Srcs and Vers only
// under Overwrite, in in-neighbor order).
func (m *refStore) read(g *graph.Graph, dst graph.VertexID) (msgs []int, srcs []graph.VertexID, vers []uint32) {
	delete(m.unread, dst)
	if m.kind != model.Overwrite {
		msgs = m.queue[dst]
		delete(m.queue, dst)
		return msgs, nil, nil
	}
	for _, src := range g.InNeighbors(dst) {
		if sl, ok := m.slots[dst][src]; ok {
			msgs, srcs, vers = append(msgs, sl.msg), append(srcs, src), append(vers, sl.ver)
		}
	}
	return msgs, srcs, vers
}

func (m *refStore) dump(g *graph.Graph, owned []graph.VertexID) []DumpEntry[int] {
	var out []DumpEntry[int]
	for _, dst := range owned {
		for _, msg := range m.queue[dst] {
			out = append(out, DumpEntry[int]{Dst: dst, Src: -1, Msg: msg, IsNew: m.unread[dst]})
		}
		for _, src := range g.InNeighbors(dst) {
			if sl, ok := m.slots[dst][src]; ok {
				out = append(out, DumpEntry[int]{Dst: dst, Src: src, Msg: sl.msg, Ver: sl.ver, IsNew: m.unread[dst]})
			}
		}
	}
	return out
}

// modelOwned picks about half of g's vertices in shuffled order.
func modelOwned(g *graph.Graph, rng *rand.Rand) []graph.VertexID {
	var owned []graph.VertexID
	for _, v := range rng.Perm(g.NumVertices()) {
		if len(g.InNeighbors(graph.VertexID(v))) > 0 && rng.Intn(2) == 0 {
			owned = append(owned, graph.VertexID(v))
		}
	}
	return owned
}

// modelEntries draws n messages along in-edges of owned vertices, half of
// them carrying the in-slot hint; about one in five is a fan-out entry
// instead.
func modelEntries(g *graph.Graph, owned []graph.VertexID, n int, rng *rand.Rand) []Entry[int] {
	es := make([]Entry[int], n)
	for i := range es {
		if rng.Intn(5) == 0 {
			es[i] = fanOutEntry(g, owned, rng)
			continue
		}
		dst := owned[rng.Intn(len(owned))]
		in := g.InNeighbors(dst)
		pos := rng.Intn(len(in))
		es[i] = Entry[int]{Dst: dst, Src: in[pos], Msg: rng.Intn(1000), Ver: uint32(rng.Intn(9))}
		if rng.Intn(2) == 0 {
			es[i].Slot = uint32(pos) + 1
		}
	}
	return es
}

func sum(a, b int) int { return a + b }

// newFanOutStore builds a store that takes fan-out entries.
func newFanOutStore(g *graph.Graph, owned []graph.VertexID, kind model.Semantics, combine func(a, b int) int) *Store[int] {
	s := New(g, owned, kind, combine)
	s.SetFanOut(NewFanOutTable(g, owned))
	return s
}

func TestStoreMatchesModel(t *testing.T) {
	for _, sc := range semanticsCases {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", sc.name, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				g := randomGraph(48, rng)
				owned := modelOwned(g, rng)
				var combine func(a, b int) int
				if sc.kind == model.Combine {
					combine = sum
				}
				s, ref := newFanOutStore(g, owned, sc.kind, combine), newRef(sc.kind)
				var r Reader[int]
				for step := 0; step < 3000; step++ {
					switch op := rng.Intn(100); {
					case op < 30:
						e := modelEntries(g, owned, 1, rng)[0]
						switch {
						case e.Dst == FanOut:
							s.PutBatch([]Entry[int]{e})
						case e.Slot == 0:
							s.Put(e.Dst, e.Src, e.Msg, e.Ver)
						default:
							s.PutSlot(e.Dst, e.Src, e.Msg, e.Ver, e.Slot)
						}
						for _, e := range expand(g, owned, []Entry[int]{e}) {
							ref.put(e)
						}
					case op < 55: // both sides of smallBatch
						es := modelEntries(g, owned, 1+rng.Intn(3*smallBatch), rng)
						for _, e := range expand(g, owned, es) {
							ref.put(e)
						}
						s.PutBatch(es)
					case op < 90:
						dst := owned[rng.Intn(len(owned))]
						msgs, srcs, vers := ref.read(g, dst)
						if got := s.Read(dst, &r); got != (len(msgs) > 0) {
							t.Fatalf("step %d: Read(%d) = %v, model has %d messages", step, dst, got, len(msgs))
						}
						if !reflect.DeepEqual(append([]int(nil), r.Msgs...), msgs) ||
							!reflect.DeepEqual(append([]graph.VertexID(nil), r.Srcs...), srcs) ||
							!reflect.DeepEqual(append([]uint32(nil), r.Vers...), vers) {
							t.Fatalf("step %d: Read(%d) = %v from %v at %v, model %v from %v at %v",
								step, dst, r.Msgs, r.Srcs, r.Vers, msgs, srcs, vers)
						}
					case op < 93:
						s.Clear()
						ref = newRef(sc.kind)
					default: // checkpoint round trip into a fresh store
						d := s.Dump()
						if want := ref.dump(g, owned); !reflect.DeepEqual(d, want) {
							t.Fatalf("step %d: Dump = %v, model %v", step, d, want)
						}
						for _, e := range d {
							if sc.kind == model.Overwrite && e.IsNew != s.HasNew(e.Dst) {
								t.Fatalf("step %d: Dump slot %d->%d IsNew %v, HasNew %v", step, e.Src, e.Dst, e.IsNew, s.HasNew(e.Dst))
							}
						}
						s = newFanOutStore(g, owned, sc.kind, combine)
						s.Load(d)
					}
					if int(s.NewCount()) != len(ref.unread) {
						t.Fatalf("step %d: NewCount = %d, model %d", step, s.NewCount(), len(ref.unread))
					}
					if v := owned[rng.Intn(len(owned))]; s.HasNew(v) != ref.unread[v] {
						t.Fatalf("step %d: HasNew(%d) = %v, model %v", step, v, s.HasNew(v), ref.unread[v])
					}
				}
			})
		}
	}
}

// TestStoreConcurrentAppliersMatchModel runs several appliers at once, as
// the transport's delivery goroutines do. Each applier sends on behalf of
// its own sources (a vertex executes on one thread at a time), so every
// Overwrite slot has one writer and the final table is determined; Queue
// order across appliers is not, so queues compare as multisets.
func TestStoreConcurrentAppliersMatchModel(t *testing.T) {
	const appliers = 4
	for _, sc := range semanticsCases {
		t.Run(sc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			g := randomGraph(64, rng)
			owned := modelOwned(g, rng)
			var combine func(a, b int) int
			if sc.kind == model.Combine {
				combine = sum
			}
			s, ref := newFanOutStore(g, owned, sc.kind, combine), newRef(sc.kind)
			perApplier := make([][]Entry[int], appliers)
			for _, e := range modelEntries(g, owned, 6000, rng) {
				a := int(e.Src) % appliers
				perApplier[a] = append(perApplier[a], e)
			}
			for _, es := range perApplier {
				for _, e := range expand(g, owned, es) {
					ref.put(e)
				}
			}
			var wg sync.WaitGroup
			for _, es := range perApplier {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for len(es) > 0 {
						n := min(len(es), 1+len(es)%(4*smallBatch))
						s.PutBatch(append([]Entry[int](nil), es[:n]...))
						es = es[n:]
					}
				}()
			}
			wg.Wait()
			var r Reader[int]
			for _, dst := range owned {
				msgs, srcs, vers := ref.read(g, dst)
				s.Read(dst, &r)
				got := append([]int(nil), r.Msgs...)
				if sc.kind == model.Queue {
					sort.Ints(got)
					sort.Ints(msgs)
				}
				if !reflect.DeepEqual(got, msgs) || !reflect.DeepEqual(append([]graph.VertexID(nil), r.Srcs...), srcs) ||
					!reflect.DeepEqual(append([]uint32(nil), r.Vers...), vers) {
					t.Fatalf("Read(%d) = %v from %v at %v, model %v from %v at %v", dst, got, r.Srcs, r.Vers, msgs, srcs, vers)
				}
			}
		})
	}
}

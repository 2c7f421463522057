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
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"serialgraph/internal/graph"
	"serialgraph/internal/model"
	"serialgraph/internal/partition"
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

// read returns what Store.Read must put in a Reader with Sources set (Srcs
// and Vers only under Overwrite, in in-neighbor order).
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
// instead, and with fanOnly every one is.
func modelEntries(g *graph.Graph, owned []graph.VertexID, n int, fanOnly bool, rng *rand.Rand) []Entry[int] {
	es := make([]Entry[int], n)
	for i := range es {
		if rng.Intn(5) == 0 || fanOnly {
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

// newFanOutStore builds a store that takes fan-out entries, phased or not.
func newFanOutStore(g *graph.Graph, owned []graph.VertexID, kind model.Semantics, combine func(a, b int) int, phased bool) *Store[int] {
	s := newStoreKind(g, owned, kind, combine, phased)
	s.SetFanOut(NewFanOutTable(g, owned))
	return s
}

// forPlacements runs f on stores built both ways: by New, with an index of
// its own, and by NewAt, as the engine builds them (placed).
func forPlacements(t *testing.T, f func(t *testing.T, pl string)) {
	for _, pl := range []string{"New", "layout"} {
		t.Run(pl, func(t *testing.T) { f(t, pl) })
	}
}

// placed returns the vertices a store of placement pl owns, in local
// order, and a builder of fan-out stores over them. New's are owned as
// given. A layout store is NewAt's over worker 1's run of a partition map
// that places owned, and nothing else, on worker 1's two partitions, so its
// local order is not ascending, its base is not 0, and it reads the map's
// position table, which covers the other workers' vertices too.
func placed(pl string, g *graph.Graph, owned []graph.VertexID, rng *rand.Rand) ([]graph.VertexID, func(model.Semantics, func(a, b int) int, bool) *Store[int]) {
	if pl == "New" {
		return owned, func(kind model.Semantics, combine func(a, b int) int, phased bool) *Store[int] {
			return newFanOutStore(g, owned, kind, combine, phased)
		}
	}
	mine := make([]bool, g.NumVertices())
	for _, v := range owned {
		mine[v] = true
	}
	vp := make([]partition.ID, g.NumVertices())
	for v := range vp {
		vp[v] = partition.ID(2 * rng.Intn(2)) // on worker 0 or 2
		if mine[v] {
			vp[v]++ // partition 1 or 3, both on worker 1
		}
	}
	pm := partition.NewExplicit(g, vp, []int32{0, 1, 2, 1}, 3)
	lay, tab := pm.Owned(1), NewFanOutTable(g, pm.Owned(1))
	return lay, func(kind model.Semantics, combine func(a, b int) int, phased bool) *Store[int] {
		s := NewAt(g, lay, pm.Positions(), pm.Base(1), kind, combine, phased)
		s.SetFanOut(tab)
		return s
	}
}

// sameRead fails t unless a and b read alike: messages, sources, versions.
func sameRead(t *testing.T, step int, dst graph.VertexID, a, b *Reader[int]) {
	t.Helper()
	if !slices.Equal(a.Msgs, b.Msgs) || !slices.Equal(a.Srcs, b.Srcs) || !slices.Equal(a.Vers, b.Vers) {
		t.Fatalf("step %d: Read(%d) = %v from %v at %v, per-edge store %v from %v at %v",
			step, dst, a.Msgs, a.Srcs, a.Vers, b.Msgs, b.Srcs, b.Vers)
	}
}

// TestStoreMatchesModel runs on both store kinds: a phased store is only
// ever written or read at one time, as this single goroutine does. A
// phased Overwrite store takes fan-out entries only, and a locked twin
// given the same operations (a per-edge store) must read as it does, read
// for read.
func TestStoreMatchesModel(t *testing.T) {
	for _, sc := range semanticsCases {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", sc.name, seed), func(t *testing.T) {
				forStoreKinds(t, func(t *testing.T, phased bool) {
					forPlacements(t, func(t *testing.T, pl string) {
						rng := rand.New(rand.NewSource(seed))
						g := randomGraph(48, rng)
						owned, build := placed(pl, g, modelOwned(g, rng), rng)
						var combine func(a, b int) int
						if sc.kind == model.Combine {
							combine = sum
						}
						s, ref := build(sc.kind, combine, phased), newRef(sc.kind)
						fanOnly := phased && sc.kind == model.Overwrite
						var twin *Store[int]
						if fanOnly {
							twin = build(sc.kind, combine, false)
						}
						var r, tr Reader[int]
						for step := 0; step < 3000; step++ {
							switch op := rng.Intn(100); {
							case op < 30:
								e := modelEntries(g, owned, 1, fanOnly, rng)[0]
								switch {
								case e.Dst == FanOut:
									s.PutBatch([]Entry[int]{e})
								case e.Slot == 0:
									s.Put(e.Dst, e.Src, e.Msg, e.Ver)
								default:
									s.PutSlot(e.Dst, e.Src, e.Msg, e.Ver, e.Slot)
								}
								if twin != nil {
									twin.PutBatch([]Entry[int]{e})
								}
								for _, e := range expand(g, owned, []Entry[int]{e}) {
									ref.put(e)
								}
							case op < 55: // both sides of smallBatch
								es := modelEntries(g, owned, 1+rng.Intn(3*smallBatch), fanOnly, rng)
								for _, e := range expand(g, owned, es) {
									ref.put(e)
								}
								s.PutBatch(es)
								if twin != nil {
									twin.PutBatch(es)
								}
							case op < 90:
								dst := owned[rng.Intn(len(owned))]
								msgs, srcs, vers := ref.read(g, dst)
								// Both reader modes: without Sources, Read fills Msgs alone.
								if r.Sources = rng.Intn(2) == 0; !r.Sources {
									srcs, vers = nil, nil
								}
								if got := s.Read(dst, &r); got != (len(msgs) > 0) {
									t.Fatalf("step %d: Read(%d) = %v, model has %d messages", step, dst, got, len(msgs))
								}
								if twin != nil {
									tr.Sources = r.Sources
									twin.Read(dst, &tr)
									sameRead(t, step, dst, &r, &tr)
								}
								if !reflect.DeepEqual(append([]int(nil), r.Msgs...), msgs) ||
									!reflect.DeepEqual(append([]graph.VertexID(nil), r.Srcs...), srcs) ||
									!reflect.DeepEqual(append([]uint32(nil), r.Vers...), vers) {
									t.Fatalf("step %d: Read(%d) = %v from %v at %v, model %v from %v at %v",
										step, dst, r.Msgs, r.Srcs, r.Vers, msgs, srcs, vers)
								}
							case op < 93:
								s.Clear()
								if twin != nil {
									twin.Clear()
								}
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
								if twin != nil {
									if td := twin.Dump(); !reflect.DeepEqual(d, td) {
										t.Fatalf("step %d: Dump = %v, per-edge store %v", step, d, td)
									}
									twin = build(sc.kind, combine, false)
									twin.Load(d)
								}
								s = build(sc.kind, combine, phased)
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
				})
			})
		}
	}
}

// TestStoreConcurrentAppliersMatchModel runs several appliers at once, as
// the transport's delivery goroutines do. Each applier sends on behalf of
// its own sources (a vertex executes on one thread at a time), so every
// Overwrite slot has one writer and the final table is determined; Queue
// order across appliers is not, so queues compare as multisets. Both store
// kinds: the appliers only write, and the reads come after they are done.
// A phased Overwrite store takes fan-out entries only, and reads as a
// per-edge store given the same batches in sequence does.
func TestStoreConcurrentAppliersMatchModel(t *testing.T) {
	const appliers = 4
	for _, sc := range semanticsCases {
		t.Run(sc.name, func(t *testing.T) {
			forStoreKinds(t, func(t *testing.T, phased bool) {
				forPlacements(t, func(t *testing.T, pl string) {
					rng := rand.New(rand.NewSource(11))
					g := randomGraph(64, rng)
					owned, build := placed(pl, g, modelOwned(g, rng), rng)
					var combine func(a, b int) int
					if sc.kind == model.Combine {
						combine = sum
					}
					s, ref := build(sc.kind, combine, phased), newRef(sc.kind)
					fanOnly := phased && sc.kind == model.Overwrite
					twin := build(sc.kind, combine, false)
					perApplier := make([][]Entry[int], appliers)
					for _, e := range modelEntries(g, owned, 6000, fanOnly, rng) {
						a := int(e.Src) % appliers
						perApplier[a] = append(perApplier[a], e)
					}
					for _, es := range perApplier {
						for _, e := range expand(g, owned, es) {
							ref.put(e)
						}
						if fanOnly {
							twin.PutBatch(es)
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
					r, tr := Reader[int]{Sources: true}, Reader[int]{Sources: true}
					for step, dst := range owned {
						msgs, srcs, vers := ref.read(g, dst)
						s.Read(dst, &r)
						if fanOnly {
							twin.Read(dst, &tr)
							sameRead(t, step, dst, &r, &tr)
						}
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
			})
		})
	}
}

// TestPhasedAppliersShareWords: several goroutines apply batches to one
// phased Overwrite store at once, as a BSP worker's lanes and compute
// threads do. Their sources are disjoint, so every replica has one writer,
// but their destinations interleave, so every applier's fan-out entries set
// bits in the same unread words. Each vertex has two in-edges, so most
// publications set new bits, and every round starts from cleared ones.
// After each round the unread words and every vertex's replicas must equal
// a sequential apply of the same batches to a per-edge store: a bit lost
// between two appliers' publications is a vertex the frontier would miss.
func TestPhasedAppliersShareWords(t *testing.T) {
	const n, appliers, rounds = 512, 4, 200
	rng := rand.New(rand.NewSource(5))
	b := graph.NewBuilder(n)
	for v := 0; v < n; v++ {
		for k := 0; k < 2; k++ {
			b.AddEdge(graph.VertexID(rng.Intn(n)), graph.VertexID(v))
		}
	}
	g := b.Build()
	owned := make([]graph.VertexID, n)
	for i, v := range rng.Perm(n) {
		owned[i] = graph.VertexID(v)
	}
	tab := NewFanOutTable(g, owned)
	s, ref := NewPhased[int](g, owned, model.Overwrite, nil), New[int](g, owned, model.Overwrite, nil)
	s.SetFanOut(tab)
	ref.SetFanOut(tab)
	got, want := Reader[int]{Sources: true}, Reader[int]{Sources: true}
	for round := 0; round < rounds; round++ {
		// Batches of one to three sources' fan-out entries.
		batches := make([][][]Entry[int], appliers)
		for _, u := range rng.Perm(n) {
			src, msg := graph.VertexID(u), round*n+u
			if len(tab.Row(src)) == 0 {
				continue
			}
			e := Entry[int]{Dst: FanOut, Src: src, Msg: msg, Ver: uint32(round)}
			mine := batches[u%appliers]
			if k := len(mine) - 1; k >= 0 && len(mine[k]) < 1+rng.Intn(3) {
				mine[k] = append(mine[k], e)
			} else {
				batches[u%appliers] = append(mine, []Entry[int]{e})
			}
		}
		start := make(chan struct{})
		var wg sync.WaitGroup
		for _, mine := range batches {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for _, batch := range mine {
					s.PutBatch(batch)
				}
			}()
		}
		close(start)
		wg.Wait()
		for _, mine := range batches {
			for _, batch := range mine {
				ref.PutBatch(batch)
			}
		}
		for wi := range ref.Unread() {
			if h, w := s.Unread()[wi].Load(), ref.Unread()[wi].Load(); h != w {
				t.Fatalf("round %d: unread word %d = %#x, sequential %#x (lost %#x)", round, wi, h, w, w&^h)
			}
		}
		for li := range owned {
			s.ReadLocal(int32(li), &got)
			ref.ReadLocal(int32(li), &want)
			if !slices.Equal(got.Msgs, want.Msgs) || !slices.Equal(got.Srcs, want.Srcs) || !slices.Equal(got.Vers, want.Vers) {
				t.Fatalf("round %d: vertex %d read %v from %v at %v, sequential %v from %v at %v",
					round, owned[li], got.Msgs, got.Srcs, got.Vers, want.Msgs, want.Srcs, want.Vers)
			}
		}
		s.Clear()
		ref.Clear()
	}
}

// TestPhasedReadersShareWords: two goroutines read one phased Overwrite
// store at once, as a BSP worker's compute threads do, each taking every
// other vertex, so both clear bits in every unread word at the same time.
// Every bit must end cleared: a clear lost between two readers is a vertex
// the next superstep's frontier would run again. (A plain load-and-store
// clear fails it on a 2-vCPU box in ten runs out of ten.)
func TestPhasedReadersShareWords(t *testing.T) {
	const n, readers, rounds = 4096, 2, 1000
	rng := rand.New(rand.NewSource(9))
	b := graph.NewBuilder(n)
	for v := 0; v < n; v++ {
		b.AddEdge(graph.VertexID(rng.Intn(n)), graph.VertexID(v))
	}
	g := b.Build()
	owned := all(n)
	tab := NewFanOutTable(g, owned)
	s := NewPhased[int](g, owned, model.Overwrite, nil)
	s.SetFanOut(tab)
	var pass []Entry[int]
	for u := 0; u < n; u++ {
		if len(tab.Row(graph.VertexID(u))) > 0 {
			pass = append(pass, Entry[int]{Dst: FanOut, Src: graph.VertexID(u), Msg: u})
		}
	}
	for round := 0; round < rounds; round++ {
		s.PutBatch(pass)
		if got := s.NewCount(); got != n {
			t.Fatalf("round %d: %d unread after the pass, want %d", round, got, n)
		}
		start := make(chan struct{})
		var wg sync.WaitGroup
		for k := 0; k < readers; k++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var r Reader[int]
				<-start
				for li := int32(k); li < n; li += readers {
					s.ReadLocal(li, &r)
				}
			}()
		}
		close(start)
		wg.Wait()
		if got := s.NewCount(); got != 0 {
			t.Fatalf("round %d: %d unread bits left after every vertex was read", round, got)
		}
		s.Clear()
	}
}

// TestPhasedDumpMatchesPerEdge: a phased (replica) store and a per-edge
// store given the same broadcasts over a multigraph, with some vertices
// read, dump identical entry lists; each dump loads back into a fresh store
// of either kind that reads and dumps as the original. A dump missing every
// entry of some in-edges of a source whose replica it holds (what a
// mutation that added those edges produces) loads into a phased store that
// reads as the per-edge store does: without a message on them.
func TestPhasedDumpMatchesPerEdge(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := randomMultigraph(40, rng)
		owned := modelOwned(g, rng)
		phased := newFanOutStore(g, owned, model.Overwrite, nil, true)
		perEdge := newFanOutStore(g, owned, model.Overwrite, nil, false)
		es := modelEntries(g, owned, 60, true, rng)
		phased.PutBatch(es)
		perEdge.PutBatch(es)
		var r Reader[int]
		for _, v := range owned {
			if rng.Intn(3) == 0 {
				phased.Read(v, &r)
				perEdge.Read(v, &r)
			}
		}
		d := phased.Dump()
		if want := perEdge.Dump(); !reflect.DeepEqual(d, want) {
			t.Fatalf("seed %d: phased Dump = %v, per-edge %v", seed, d, want)
		}
		// Drop every entry of about one (dst, src) pair in four.
		drop := map[edgeKey]bool{}
		var kept []DumpEntry[int]
		for _, e := range d {
			k := edgeKey{e.Dst, e.Src}
			if _, seen := drop[k]; !seen {
				drop[k] = rng.Intn(4) == 0
			}
			if !drop[k] {
				kept = append(kept, e)
			}
		}
		for _, dump := range [][]DumpEntry[int]{d, kept} {
			p := newFanOutStore(g, owned, model.Overwrite, nil, true)
			q := newFanOutStore(g, owned, model.Overwrite, nil, false)
			p.Load(dump)
			q.Load(dump)
			if pd, qd := p.Dump(), q.Dump(); !reflect.DeepEqual(pd, dump) || !reflect.DeepEqual(qd, dump) {
				t.Fatalf("seed %d: loaded %v, phased dumps %v, per-edge %v", seed, dump, pd, qd)
			}
			pr, qr := Reader[int]{Sources: true}, Reader[int]{Sources: true}
			for step, v := range owned {
				if p.HasNew(v) != q.HasNew(v) {
					t.Fatalf("seed %d: HasNew(%d) phased %v, per-edge %v", seed, v, p.HasNew(v), q.HasNew(v))
				}
				p.Read(v, &pr)
				q.Read(v, &qr)
				sameRead(t, step, v, &pr, &qr)
			}
		}
	}
}

// TestPhasedRejectsPointEntries: a phased Overwrite store panics, naming
// SendToAllOut, on a message for one target, by PutSlot or in a batch.
func TestPhasedRejectsPointEntries(t *testing.T) {
	g := lineGraph()
	for name, put := range map[string]func(s *Store[int]){
		"PutSlot":  func(s *Store[int]) { s.PutSlot(2, 0, 1, 0, 1) },
		"PutBatch": func(s *Store[int]) { s.PutBatch([]Entry[int]{{Dst: FanOut, Src: 1}, {Dst: 2, Src: 0}}) },
	} {
		s := newFanOutStore(g, all(4), model.Overwrite, nil, true)
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, "SendToAllOut") {
					t.Errorf("%s: panic %q, want one naming SendToAllOut", name, msg)
				}
			}()
			put(s)
		}()
	}
}

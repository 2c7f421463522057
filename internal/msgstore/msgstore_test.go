package msgstore

import (
	"math/rand"
	"sort"
	"sync"
	"testing"

	"serialgraph/internal/graph"
	"serialgraph/internal/model"
)

// lineGraph builds 0->2, 1->2, 2->3 so vertex 2 has two in-neighbors.
func lineGraph() *graph.Graph {
	b := graph.NewBuilder(4)
	b.AddEdge(0, 2)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	return b.Build()
}

func all(n int) []graph.VertexID {
	out := make([]graph.VertexID, n)
	for i := range out {
		out[i] = graph.VertexID(i)
	}
	return out
}

func TestQueueSemantics(t *testing.T) {
	g := lineGraph()
	s := New[int](g, all(4), model.Queue, nil)
	s.Put(2, 0, 10, 0)
	s.Put(2, 1, 20, 0)
	s.Put(2, 0, 30, 0)
	if !s.HasNew(2) || s.NewCount() != 1 {
		t.Fatalf("HasNew/NewCount wrong: %v %d", s.HasNew(2), s.NewCount())
	}
	var r Reader[int]
	if !s.Read(2, &r) {
		t.Fatal("Read found nothing")
	}
	got := append([]int{}, r.Msgs...)
	sort.Ints(got)
	if len(got) != 3 || got[0] != 10 || got[2] != 30 {
		t.Errorf("msgs = %v", got)
	}
	// Queue consumes.
	if s.Read(2, &r) {
		t.Error("second read returned messages")
	}
	if s.NewCount() != 0 {
		t.Errorf("NewCount = %d after read", s.NewCount())
	}
}

func TestCombineSemantics(t *testing.T) {
	g := lineGraph()
	min := func(a, b int) int {
		if a < b {
			return a
		}
		return b
	}
	s := New[int](g, all(4), model.Combine, min)
	s.Put(2, 0, 10, 0)
	s.Put(2, 1, 3, 0)
	s.Put(2, 0, 7, 0)
	var r Reader[int]
	if !s.Read(2, &r) || len(r.Msgs) != 1 || r.Msgs[0] != 3 {
		t.Fatalf("combined read = %v", r.Msgs)
	}
	if s.Read(2, &r) {
		t.Error("combine slot not consumed")
	}
}

func TestCombineRequiresFunc(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic for Combine without func")
		}
	}()
	New[int](lineGraph(), all(4), model.Combine, nil)
}

func TestOverwriteSemantics(t *testing.T) {
	g := lineGraph()
	s := New[int](g, all(4), model.Overwrite, nil)
	s.Put(2, 0, 100, 5)
	var r Reader[int]
	if !s.Read(2, &r) || len(r.Msgs) != 1 || r.Srcs[0] != 0 || r.Vers[0] != 5 {
		t.Fatalf("read = %+v", r)
	}
	// Slots are retained (replica semantics) but the new flag clears.
	if s.HasNew(2) {
		t.Error("HasNew true after read")
	}
	if !s.Read(2, &r) || len(r.Msgs) != 1 {
		t.Error("overwrite slots were consumed")
	}
	// A newer message from the same source overwrites.
	s.Put(2, 0, 200, 6)
	s.Put(2, 1, 300, 1)
	if !s.HasNew(2) {
		t.Error("Put did not set new flag")
	}
	s.Read(2, &r)
	if len(r.Msgs) != 2 {
		t.Fatalf("want 2 slots, got %v", r.Msgs)
	}
	bySrc := map[graph.VertexID]int{}
	for i, src := range r.Srcs {
		bySrc[src] = r.Msgs[i]
	}
	if bySrc[0] != 200 || bySrc[1] != 300 {
		t.Errorf("slots = %v", bySrc)
	}
}

func TestOverwriteRejectsNonInNeighbor(t *testing.T) {
	g := lineGraph()
	s := New[int](g, all(4), model.Overwrite, nil)
	defer func() {
		if recover() == nil {
			t.Error("no panic for non-in-neighbor source")
		}
	}()
	s.Put(2, 3, 1, 0) // 3 is not an in-neighbor of 2
}

func TestPutToNotOwnedPanics(t *testing.T) {
	g := lineGraph()
	s := New[int](g, []graph.VertexID{0, 1}, model.Queue, nil)
	if s.Owns(2) {
		t.Fatal("Owns(2) true")
	}
	defer func() {
		if recover() == nil {
			t.Error("no panic for unowned Put")
		}
	}()
	s.Put(2, 0, 1, 0)
}

func TestClear(t *testing.T) {
	g := lineGraph()
	s := New[int](g, all(4), model.Overwrite, nil)
	s.Put(2, 0, 1, 0)
	s.Clear()
	if s.NewCount() != 0 || s.HasNew(2) {
		t.Error("Clear left new flags")
	}
	var r Reader[int]
	if s.Read(2, &r) {
		t.Error("Clear left slots")
	}
}

func TestConcurrentPuts(t *testing.T) {
	// Many concurrent writers to one combine store must not lose the min.
	b := graph.NewBuilder(101)
	for i := 1; i <= 100; i++ {
		b.AddEdge(graph.VertexID(i), 0)
	}
	g := b.Build()
	min := func(a, b int) int {
		if a < b {
			return a
		}
		return b
	}
	s := New[int](g, all(101), model.Combine, min)
	var wg sync.WaitGroup
	for w := 1; w <= 100; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 100; i++ {
				s.Put(0, graph.VertexID(w), 1000+r.Intn(1000), 0)
			}
			s.Put(0, graph.VertexID(w), w, 0)
		}(w)
	}
	wg.Wait()
	var r Reader[int]
	if !s.Read(0, &r) || r.Msgs[0] != 1 {
		t.Errorf("concurrent min = %v, want 1", r.Msgs)
	}
}

func TestBufferFlushThreshold(t *testing.T) {
	var mu sync.Mutex
	var batches [][]Entry[int]
	var bytes []int
	send := func(dest int, batch []Entry[int], b int) {
		mu.Lock()
		batches = append(batches, batch)
		bytes = append(bytes, b)
		mu.Unlock()
	}
	buf := NewBuffer[int](2, 3, 8, 32, 8, send)
	buf.Add(1, Entry[int]{Dst: 1, Src: 0, Msg: 1})
	buf.Add(1, Entry[int]{Dst: 2, Src: 0, Msg: 2})
	if len(batches) != 0 {
		t.Fatal("flushed early")
	}
	buf.Add(1, Entry[int]{Dst: 3, Src: 0, Msg: 3}) // hits cap 3
	if len(batches) != 1 || len(batches[0]) != 3 {
		t.Fatalf("auto flush: %v", batches)
	}
	if want := 32 + 3*(8+8); bytes[0] != want {
		t.Errorf("batch bytes = %d, want %d", bytes[0], want)
	}
	if buf.Pending(1) != 0 {
		t.Error("pending after flush")
	}
}

func TestBufferFlushAll(t *testing.T) {
	var mu sync.Mutex
	got := map[int]int{}
	buf := NewBuffer[int](3, 100, 8, 32, 8, func(dest int, batch []Entry[int], b int) {
		mu.Lock()
		got[dest] += len(batch)
		mu.Unlock()
	})
	buf.Add(0, Entry[int]{Msg: 1})
	buf.Add(2, Entry[int]{Msg: 2})
	buf.Add(2, Entry[int]{Msg: 3})
	buf.FlushAll()
	if got[0] != 1 || got[2] != 2 {
		t.Errorf("flushed %v", got)
	}
	// Empty flush sends nothing.
	buf.FlushAll()
	if got[0] != 1 || got[2] != 2 || got[1] != 0 {
		t.Errorf("empty flush sent something: %v", got)
	}
}

func TestBufferConcurrentAdd(t *testing.T) {
	var total sync.Mutex
	sum := 0
	buf := NewBuffer[int](4, 10, 8, 32, 8, func(dest int, batch []Entry[int], b int) {
		total.Lock()
		sum += len(batch)
		total.Unlock()
	})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				buf.Add(i%4, Entry[int]{Msg: i})
			}
		}(g)
	}
	wg.Wait()
	buf.FlushAll()
	total.Lock()
	defer total.Unlock()
	if sum != 8000 {
		t.Errorf("sent %d entries, want 8000", sum)
	}
}

func TestBufferSenderCombining(t *testing.T) {
	var mu sync.Mutex
	var batches [][]Entry[int]
	min := func(a, b int) int {
		if a < b {
			return a
		}
		return b
	}
	buf := NewBuffer[int](2, 100, 8, 32, 8, func(dest int, batch []Entry[int], b int) {
		mu.Lock()
		batches = append(batches, batch)
		mu.Unlock()
	})
	buf.SetCombiner(min)
	buf.Add(1, Entry[int]{Dst: 7, Msg: 5})
	buf.Add(1, Entry[int]{Dst: 7, Msg: 3}) // combines into the same slot
	buf.Add(1, Entry[int]{Dst: 8, Msg: 9})
	buf.Add(1, Entry[int]{Dst: 7, Msg: 4}) // still >= 3, keeps 3
	buf.FlushTo(1)
	if len(batches) != 1 || len(batches[0]) != 2 {
		t.Fatalf("batches = %v", batches)
	}
	got := map[graph.VertexID]int{}
	for _, e := range batches[0] {
		got[e.Dst] = e.Msg
	}
	if got[7] != 3 || got[8] != 9 {
		t.Errorf("combined values = %v", got)
	}
	// After a flush the slot map resets: new adds start fresh.
	buf.Add(1, Entry[int]{Dst: 7, Msg: 10})
	buf.FlushTo(1)
	if len(batches) != 2 || batches[1][0].Msg != 10 {
		t.Errorf("post-flush combine leaked state: %v", batches)
	}
}

// TestBufferCombinerReusesIndex pins that the sender-side combiner keeps
// its per-destination index across flushes: once warm, buffering a run of
// 64 entries for 40 destination vertices and flushing it allocates only
// the batch the receiver keeps.
func TestBufferCombinerReusesIndex(t *testing.T) {
	var kept []Entry[int]
	buf := NewBuffer[int](2, 512, 8, 32, 8, func(dest int, batch []Entry[int], b int) { kept = batch })
	buf.SetCombiner(func(a, b int) int { return a + b })
	es := make([]Entry[int], 64)
	for i := range es {
		es[i] = Entry[int]{Dst: graph.VertexID(i % 40), Msg: 1}
	}
	cycle := func() {
		buf.AddBatch(1, es)
		buf.FlushTo(1)
	}
	cycle()
	if allocs := testing.AllocsPerRun(100, cycle); allocs > 1 {
		t.Errorf("AddBatch+FlushTo cycle: %v allocations, want at most 1 (the batch)", allocs)
	}
	if len(kept) != 40 {
		t.Errorf("flushed batch has %d entries, want 40 combined destinations", len(kept))
	}
}

func TestBufferCombiningRespectsCap(t *testing.T) {
	var mu sync.Mutex
	sent := 0
	buf := NewBuffer[int](1, 2, 8, 32, 8, func(dest int, batch []Entry[int], b int) {
		mu.Lock()
		sent += len(batch)
		mu.Unlock()
	})
	buf.SetCombiner(func(a, b int) int { return a + b })
	// Distinct destinations fill the cap; same destination does not.
	buf.Add(0, Entry[int]{Dst: 1, Msg: 1})
	buf.Add(0, Entry[int]{Dst: 1, Msg: 1})
	buf.Add(0, Entry[int]{Dst: 1, Msg: 1})
	if sent != 0 {
		t.Fatalf("combined adds triggered flush: %d", sent)
	}
	buf.Add(0, Entry[int]{Dst: 2, Msg: 1}) // second distinct dst hits cap 2
	if sent != 2 {
		t.Fatalf("cap flush sent %d entries, want 2", sent)
	}
}

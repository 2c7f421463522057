package chandy

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"serialgraph/internal/cluster"
)

// modelNet is a single-threaded model of a cluster of managers: a fake
// network of per-(sender, receiver) FIFO lanes whose head-of-line batch is
// delivered whenever the driver's random source says so (random delays),
// and next to every manager a shadow that is fed exactly the same
// operations but takes each delivered batch one Ctrl at a time. The model
// checks, at every step, what the engine relies on:
//
//   - a batch with a fork in it leaves only after preHandoff(dest) ran for
//     it (C1's flush-before-fork order);
//   - applying a batch and applying its entries one by one emit the same
//     messages to every destination, in the same order;
//   - no two neighbors eat together.
type modelNet struct {
	t       *testing.T
	adj     [][]PhilID
	workers int
	ownerOf func(PhilID) int
	mgrs    []*Manager
	shadows []*Manager
	lanes   [][][]Ctrl // lanes[from*workers+to] is a FIFO of batches
	queued  int        // batches in lanes
	multi   int        // batches sent with more than one entry

	flushed  [][]bool   // flushed[w][dest]: preHandoff(dest) ran on w since w's last send to dest
	emitted  [][][]Ctrl // emitted[w][dest]: what w's current operation sent dest
	shadowed [][][]Ctrl // the same for w's shadow
}

func newModelNet(t *testing.T, adj [][]PhilID, workers int) *modelNet {
	n := &modelNet{
		t: t, adj: adj, workers: workers,
		ownerOf:  func(p PhilID) int { return int(p) % workers },
		lanes:    make([][][]Ctrl, workers*workers),
		flushed:  make([][]bool, workers),
		emitted:  make([][][]Ctrl, workers),
		shadowed: make([][][]Ctrl, workers),
	}
	for w := 0; w < workers; w++ {
		w := w
		n.flushed[w] = make([]bool, workers)
		n.emitted[w] = make([][]Ctrl, workers)
		n.shadowed[w] = make([][]Ctrl, workers)
		n.mgrs = append(n.mgrs, NewBatchManager(w, n.ownerOf, func(dest int, batch []Ctrl) {
			for _, c := range batch {
				if c.Kind == ForkMsg && !n.flushed[w][dest] {
					t.Fatalf("worker %d sent %d a fork batch %v without preHandoff", w, dest, batch)
				}
				if n.ownerOf(c.To) != dest || n.ownerOf(c.From) != w {
					t.Fatalf("worker %d sent %d a misrouted %+v", w, dest, c)
				}
			}
			if len(batch) > 1 {
				n.multi++
			}
			n.flushed[w][dest] = false
			n.emitted[w][dest] = append(n.emitted[w][dest], batch...)
			n.lanes[w*workers+dest] = append(n.lanes[w*workers+dest], batch)
			n.queued++
		}, func(dest int) { n.flushed[w][dest] = true }))
		n.shadows = append(n.shadows, NewBatchManager(w, n.ownerOf, func(dest int, batch []Ctrl) {
			n.shadowed[w][dest] = append(n.shadowed[w][dest], batch...)
		}, nil))
	}
	for id := range adj {
		n.mgrs[n.ownerOf(PhilID(id))].AddPhil(PhilID(id), adj[id])
		n.shadows[n.ownerOf(PhilID(id))].AddPhil(PhilID(id), adj[id])
	}
	return n
}

// settle ends one operation on worker w: manager and shadow must have sent
// every destination the same sequence.
func (n *modelNet) settle(w int, op string) {
	n.t.Helper()
	for dest := range n.emitted[w] {
		if !reflect.DeepEqual(n.emitted[w][dest], n.shadowed[w][dest]) {
			n.t.Fatalf("%s on worker %d: batched delivery sent %d %v, one-at-a-time delivery %v",
				op, w, dest, n.emitted[w][dest], n.shadowed[w][dest])
		}
		n.emitted[w][dest], n.shadowed[w][dest] = nil, nil
	}
}

// deliver hands the head-of-line batch of a random non-empty lane to its
// receiver: whole to the manager, entry by entry to the shadow.
func (n *modelNet) deliver(r *rand.Rand) {
	k := r.Intn(n.queued)
	for i, q := range n.lanes {
		if k >= len(q) {
			k -= len(q)
			continue
		}
		batch, to := q[0], i%n.workers
		n.lanes[i] = q[1:]
		n.queued--
		n.mgrs[to].HandleBatch(batch)
		for _, c := range batch {
			n.shadows[to].HandleCtrl(c)
		}
		n.settle(to, fmt.Sprintf("delivery of %v", batch))
		return
	}
}

// run feeds every philosopher `meals` meals in a random interleaving of
// requests, releases and deliveries, and returns once the cluster is
// quiescent. It fails if that takes implausibly long (a request starved).
func (n *modelNet) run(r *rand.Rand, meals int) {
	t := n.t
	left := make([]int, len(n.adj))
	grant := make([]<-chan struct{}, len(n.adj))
	eating := make([]bool, len(n.adj))
	todo := 0
	for id := range left {
		left[id] = meals
		todo += meals
	}
	for step := 0; todo > 0 || n.queued > 0; step++ {
		if step > 4000*len(n.adj)*meals {
			t.Fatalf("starvation: %d meals and %d batches outstanding after %d steps", todo, n.queued, step)
		}
		id := r.Intn(len(n.adj))
		w := n.ownerOf(PhilID(id))
		switch {
		case n.queued > 0 && r.Intn(3) > 0:
			n.deliver(r)
		case eating[id]:
			eating[id] = false
			n.mgrs[w].Release(PhilID(id))
			n.shadows[w].Release(PhilID(id))
			n.settle(w, "release")
			left[id]--
			todo--
		case grant[id] == nil && left[id] > 0:
			grant[id] = n.mgrs[w].RequestForks(PhilID(id))
			n.shadows[w].RequestForks(PhilID(id))
			n.settle(w, "request")
		}
		for id, ch := range grant {
			if ch == nil {
				continue
			}
			select {
			case <-ch:
				grant[id], eating[id] = nil, true
				for _, q := range n.adj[id] {
					if eating[q] || n.mgrs[n.ownerOf(q)].Eating(q) {
						t.Fatalf("neighbors %d and %d eat together", id, q)
					}
				}
			default:
			}
		}
	}
}

func TestModelBatchedLockPath(t *testing.T) {
	cases := 60
	if testing.Short() {
		cases = 15
	}
	multi := 0
	for seed := int64(1); seed <= int64(cases); seed++ {
		r := rand.New(rand.NewSource(seed))
		workers := 2 + r.Intn(5)
		phils := workers + r.Intn(24)
		adj := randomConflictGraph(r, phils, r.Intn(3*phils))
		n := newModelNet(t, adj, workers)
		n.run(r, 1+r.Intn(4))
		multi += n.multi

		// Quiescent: every edge has one dirty fork and one token, each side
		// the mirror image of the other, and the shadows ended up identical.
		state := make([][]byte, workers)
		for w, m := range n.mgrs {
			state[w] = m.Export()
			if !reflect.DeepEqual(state[w], n.shadows[w].Export()) {
				t.Fatalf("seed %d: worker %d's state differs from its one-at-a-time shadow", seed, w)
			}
			edges := m.Edges()
			if len(edges) != len(state[w]) {
				t.Fatalf("seed %d: worker %d lists %d edges, exports %d", seed, w, len(edges), len(state[w]))
			}
			for i, e := range edges {
				if st := m.EdgeState(e[0], e[1]); st != state[w][i] {
					t.Fatalf("seed %d: edge %d-%d is %03b, Export says %03b", seed, e[0], e[1], st, state[w][i])
				}
			}
		}
		for a := range adj {
			for _, b := range adj[a] {
				sa := n.mgrs[n.ownerOf(PhilID(a))].EdgeState(PhilID(a), b)
				sb := n.mgrs[n.ownerOf(b)].EdgeState(b, PhilID(a))
				if sa != Mirror(sb) || sb != Mirror(sa) {
					t.Fatalf("seed %d: edge %d-%d not quiescent: %03b / %03b", seed, a, b, sa, sb)
				}
			}
		}
		// Export -> Import -> Export is the identity on a fresh cluster.
		fresh := newModelNet(t, adj, workers)
		for w, m := range fresh.mgrs {
			m.Import(state[w])
			if got := m.Export(); !reflect.DeepEqual(got, state[w]) {
				t.Fatalf("seed %d: worker %d Export/Import/Export changed the state", seed, w)
			}
		}
	}
	if multi == 0 {
		t.Error("no batch ever carried more than one entry: the model does not exercise batching")
	}
	t.Logf("%d batches carried more than one entry", multi)
}

// TestAddPhilNormalizesNeighbors: neighbor lists may arrive unsorted, with
// repeats and with the philosopher itself (the GAS engine concatenates a
// vertex's out- and in-lists).
func TestAddPhilNormalizesNeighbors(t *testing.T) {
	m := singleWorker()
	m.AddPhil(5, []PhilID{9, 2, 5, 9, 2, 7})
	p := m.mustPhil(5)
	if want := []PhilID{2, 7, 9}; !reflect.DeepEqual(p.nbr, want) {
		t.Fatalf("neighbors = %v, want %v", p.nbr, want)
	}
	if want := []byte{bitFork | bitDirty, bitToken, bitToken}; !reflect.DeepEqual(p.st, want) {
		t.Fatalf("edge states = %03b, want %03b", p.st, want)
	}
}

// TestUncontendedAcquireAllocatesNothing pins the fast path: with every
// fork in hand an Acquire/Release pair is an array walk and a shared closed
// channel.
func TestUncontendedAcquireAllocatesNothing(t *testing.T) {
	m := singleWorker()
	ring := make([]PhilID, 15)
	for i := range ring {
		ring[i] = PhilID(i + 1)
		m.AddPhil(ring[i], []PhilID{0})
	}
	m.AddPhil(0, ring)
	m.Acquire(0) // the first meal collects the forks
	m.Release(0)
	if allocs := testing.AllocsPerRun(200, func() {
		m.Acquire(0)
		m.Release(0)
	}); allocs != 0 {
		t.Errorf("uncontended Acquire+Release allocates %v objects, want 0", allocs)
	}
}

// BenchmarkChandyRing is the contended path: two philosophers on two
// managers eat in turn, so every meal moves the fork and its request token
// across an in-process transport.
func BenchmarkChandyRing(b *testing.B) {
	mgrs, closeFn := distributed(b, 2, [][]PhilID{{1}, {0}}, func(p PhilID) int { return int(p) }, cluster.LatencyModel{})
	defer closeFn()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := i % 2
		mgrs[w].Acquire(PhilID(w))
		mgrs[w].Release(PhilID(w))
	}
}

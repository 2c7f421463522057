package msgstore

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"serialgraph/internal/chandy"
	"serialgraph/internal/graph"
	"serialgraph/internal/history"
)

// TestFlushToWaitsForBatchBeingSent is condition C1's ordering hole, held
// open: a compute thread fills a lane, takes the full batch out and is
// descheduled before it reaches the transport; a fork handoff then calls
// FlushTo and sends its fork. FlushTo must not return — the fork must not
// leave — while that batch is still on its way to the lane, or the fork
// overtakes the replica updates it is supposed to follow.
func TestFlushToWaitsForBatchBeingSent(t *testing.T) {
	sending, release := make(chan struct{}), make(chan struct{})
	var mu sync.Mutex
	var sent []int
	out := NewOutbox(2, 2, func(dest int, batch []int) {
		if batch[0] == 1 {
			close(sending)
			<-release // the thread that took the full batch stalls here
		}
		mu.Lock()
		sent = append(sent, batch[0])
		mu.Unlock()
	})
	go func() {
		out.Add(1, 1)
		out.Add(1, 2) // hits cap 2: takes the batch, sends it
	}()
	<-sending
	flushed := make(chan struct{})
	go func() {
		out.FlushTo(1) // the pre-handoff flush; nothing is left in the lane
		close(flushed)
	}()
	select {
	case <-flushed:
		t.Fatal("FlushTo returned while an earlier batch was still being sent")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	<-flushed
	mu.Lock()
	defer mu.Unlock()
	if len(sent) != 1 || sent[0] != 1 {
		t.Fatalf("sent %v, want the one full batch", sent)
	}
}

// update is a replica update as the C1 test ships it.
type update struct {
	Src graph.VertexID
	Ver uint32
}

// fifoNet is a fake two-worker network: lanes[from][to] holds data and
// control batches in send order, delivered only when the test says so.
type fifoNet struct {
	mu    sync.Mutex
	lanes [2][2][]any
}

func (n *fifoNet) put(from, to int, m any) {
	n.mu.Lock()
	n.lanes[from][to] = append(n.lanes[from][to], m)
	n.mu.Unlock()
}

func (n *fifoNet) pop(from, to int) (any, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	q := n.lanes[from][to]
	if len(q) == 0 {
		return nil, false
	}
	n.lanes[from][to] = q[1:]
	return q[0], true
}

// TestOutboxForkFollowsUpdates is Prop. 2 end to end, scored by the
// history oracle's C1 check. Vertex 0 (worker 0) and vertex 1 (worker 1)
// are neighboring philosophers. Vertex 0 eats, writes, buffers its update
// for worker 1 and releases; another thread then fills the lane and stalls
// while sending the batch that carries vertex 0's update. Meanwhile vertex 1
// asks for the fork, and worker 0's manager hands it over behind FlushTo.
// The fork must reach worker 1 after the stalled batch, so vertex 1's read
// of vertex 0 is current.
func TestOutboxForkFollowsUpdates(t *testing.T) {
	net := &fifoNet{}
	var primary, replica [3]uint32 // versions; vertices 0 and 2 live on worker 0
	sending, release := make(chan struct{}), make(chan struct{})
	var stall atomic.Bool
	out := NewOutbox(2, 2, func(dest int, batch []update) {
		if stall.CompareAndSwap(true, false) {
			close(sending)
			<-release // stalls mid-send, after taking the batch
		}
		net.put(0, dest, batch)
	})
	ownerOf := func(p chandy.PhilID) int { return int(p) % 2 }
	mgrs := [2]*chandy.Manager{
		chandy.NewBatchManager(0, ownerOf, func(to int, b *[]chandy.Ctrl) { net.put(0, to, b) }, out.FlushTo),
		chandy.NewBatchManager(1, ownerOf, func(to int, b *[]chandy.Ctrl) { net.put(1, to, b) }, nil),
	}
	mgrs[0].AddPhil(0, []chandy.PhilID{1})
	mgrs[1].AddPhil(1, []chandy.PhilID{0})
	// deliver drains one lane in order, calling after once per message.
	deliver := func(from, to int, after func()) {
		for m, ok := net.pop(from, to); ok; m, ok = net.pop(from, to) {
			switch m := m.(type) {
			case []update:
				for _, u := range m {
					replica[u.Src] = u.Ver
				}
			case *[]chandy.Ctrl:
				mgrs[to].HandleBatch(m)
			}
			after()
		}
	}
	nop := func() {}

	// Vertex 0 collects the fork (vertex 1, the larger ID, starts with it),
	// writes and buffers its update: one item, below cap.
	ch0 := mgrs[0].RequestForks(0)
	deliver(0, 1, nop)
	deliver(1, 0, nop)
	if !mgrs[0].Collect(0, ch0) {
		t.Fatal("vertex 0 did not get its fork")
	}
	primary[0] = 1
	out.Add(1, update{Src: 0, Ver: 1})
	mgrs[0].Release(0) // vertex 1 holds the token: the fork stays

	// Vertex 2 (no fork involved) fills the lane; its sender stalls.
	primary[2] = 1
	stall.Store(true)
	added := make(chan struct{})
	go func() {
		out.Add(1, update{Src: 2, Ver: 1})
		close(added)
	}()
	<-sending

	// Vertex 1 requests the fork; worker 0 hands it over.
	ch1 := mgrs[1].RequestForks(1)
	handed := make(chan struct{})
	go func() {
		deliver(1, 0, nop)
		close(handed)
	}()
	select {
	case <-handed:
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	<-handed
	<-added

	var txns []history.Txn
	deliver(0, 1, func() {
		select {
		case <-ch1:
			if len(txns) == 0 {
				txns = append(txns, history.Txn{Vertex: 1, Reads: []history.Read{
					{Src: 0, SlotVer: replica[0], PrimaryVer: primary[0]},
				}})
			}
		default:
		}
	})
	if len(txns) != 1 || !mgrs[1].Collect(1, ch1) {
		t.Fatal("vertex 1 never got the fork")
	}
	mgrs[1].Release(1)
	if v := history.CheckC1(txns); len(v) > 0 {
		t.Fatalf("the fork overtook the batch it follows: %v", v)
	}
}

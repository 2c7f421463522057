package cluster_test

// Conformance tests for the TCP backend: the semantics the engine relies
// on — FIFO per lane, WaitIdle, flush-with-ack, Kill/Revive drop rules,
// fault-hook fidelity, idempotent Close with full drain — exercised over
// real loopback sockets with the production codec. These mirror the Mem
// backend's in-package tests; behavioral divergence between the backends
// is a bug here even when both suites pass in isolation.

import (
	"net"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"serialgraph/internal/chandy"
	"serialgraph/internal/cluster"
	"serialgraph/internal/graph"
	"serialgraph/internal/msgstore"
	"serialgraph/internal/wire"
)

// requireLoopback skips the test when the sandbox forbids loopback
// listeners, so the suite degrades loudly rather than failing.
func requireLoopback(t *testing.T) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback TCP unavailable: %v", err)
	}
	ln.Close()
}

func newTCP(t *testing.T, n int) *cluster.TCP {
	t.Helper()
	requireLoopback(t)
	tr, err := cluster.NewTCPLoopback(n, cluster.LatencyModel{}, wire.NewCodec[float64]())
	if err != nil {
		t.Fatalf("NewTCPLoopback: %v", err)
	}
	return tr
}

func batch(dst graph.VertexID, msgs ...float64) []msgstore.Entry[float64] {
	b := make([]msgstore.Entry[float64], 0, len(msgs))
	for i, m := range msgs {
		b = append(b, msgstore.Entry[float64]{Dst: dst + graph.VertexID(i), Src: -1, Msg: m})
	}
	return b
}

func TestTCPDeliversBatch(t *testing.T) {
	tr := newTCP(t, 2)
	defer tr.Close()
	got := make(chan cluster.Message, 1)
	tr.RegisterHandler(0, func(m cluster.Message) {})
	tr.RegisterHandler(1, func(m cluster.Message) { got <- m })
	sent := batch(7, 1.5, 2.5, 3.5)
	tr.Send(cluster.Message{From: 0, To: 1, Kind: cluster.Data, Bytes: 100, Payload: sent})
	select {
	case m := <-got:
		if m.From != 0 || m.Kind != cluster.Data || m.Bytes != 100 {
			t.Errorf("envelope corrupted in transit: %+v", m)
		}
		b := m.Payload.([]msgstore.Entry[float64])
		if len(b) != 3 || b[0] != sent[0] || b[2] != sent[2] {
			t.Errorf("batch corrupted: got %+v want %+v", b, sent)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("message never delivered")
	}
}

func TestTCPFIFOPerLane(t *testing.T) {
	tr := newTCP(t, 2)
	defer tr.Close()
	tr.RegisterHandler(0, func(m cluster.Message) {})
	var mu sync.Mutex
	var order []float64
	done := make(chan struct{})
	tr.RegisterHandler(1, func(m cluster.Message) {
		b := m.Payload.([]msgstore.Entry[float64])
		mu.Lock()
		order = append(order, b[0].Msg)
		if len(order) == 1000 {
			close(done)
		}
		mu.Unlock()
	})
	for i := 0; i < 1000; i++ {
		tr.Send(cluster.Message{From: 0, To: 1, Kind: cluster.Data, Payload: batch(0, float64(i))})
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("not all messages delivered")
	}
	for i, v := range order {
		if v != float64(i) {
			t.Fatalf("order[%d] = %v: FIFO violated", i, v)
		}
	}
}

func TestTCPEndpointFlushWait(t *testing.T) {
	tr := newTCP(t, 3)
	defer tr.Close()
	var received [3]atomic.Int32
	var eps [3]*cluster.Endpoint
	for w := 0; w < 3; w++ {
		w := w
		eps[w] = cluster.NewEndpoint(tr, cluster.WorkerID(w),
			func(from cluster.WorkerID, payload any) {
				received[w].Add(int32(len(payload.([]msgstore.Entry[float64]))))
			},
			nil)
	}
	for i := 0; i < 5; i++ {
		eps[0].SendData(1, batch(0, 1), 10)
		eps[0].SendData(2, batch(0, 1), 10)
	}
	eps[0].FlushWait([]cluster.WorkerID{0, 1, 2})
	if received[1].Load() != 5 || received[2].Load() != 5 {
		t.Errorf("flush acked before data applied: %d/%d",
			received[1].Load(), received[2].Load())
	}
}

func TestTCPCtrlRoundTrip(t *testing.T) {
	tr := newTCP(t, 2)
	defer tr.Close()
	gotCtrl := make(chan any, 1)
	cluster.NewEndpoint(tr, 0, nil, nil)
	cluster.NewEndpoint(tr, 1, nil, func(from cluster.WorkerID, payload any) { gotCtrl <- payload })
	want := chandy.Ctrl{Kind: chandy.ForkMsg, From: 42, To: -7}
	tr.Send(cluster.Message{From: 0, To: 1, Kind: cluster.Control, Bytes: cluster.CtrlBytes, Payload: want})
	select {
	case p := <-gotCtrl:
		if p != want {
			t.Errorf("ctrl payload = %+v, want %+v", p, want)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("control not dispatched")
	}
}

// TestTCPCtrlBatchRoundTrip: a lock manager's batch crosses the socket as
// one control message whose declared size counts every entry.
func TestTCPCtrlBatchRoundTrip(t *testing.T) {
	tr := newTCP(t, 2)
	defer tr.Close()
	gotCtrl := make(chan any, 1)
	ep := cluster.NewEndpoint(tr, 0, nil, nil)
	cluster.NewEndpoint(tr, 1, nil, func(from cluster.WorkerID, payload any) { gotCtrl <- payload })
	want := []chandy.Ctrl{{Kind: chandy.ForkMsg, From: 42, To: 7}, {Kind: chandy.TokenMsg, From: 42, To: 7}, {Kind: chandy.TokenMsg, From: 1 << 20, To: 3}}
	if bytes := ep.SendCtrlBatch(1, want, len(want)); bytes != cluster.CtrlBytes+2*cluster.CtrlEntryBytes {
		t.Errorf("declared %d bytes for a batch of 3", bytes)
	}
	select {
	case p := <-gotCtrl:
		if !reflect.DeepEqual(p, want) {
			t.Errorf("ctrl payload = %+v, want %+v", p, want)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("control batch not dispatched")
	}
	tr.WaitIdle()
	if st := tr.Stats().Load(); st.ControlMessages != 1 || st.ControlBytes != cluster.CtrlBytes+2*cluster.CtrlEntryBytes {
		t.Errorf("ledger counts %d control messages, %d bytes", st.ControlMessages, st.ControlBytes)
	}
}

func TestTCPWaitIdleAndStats(t *testing.T) {
	tr := newTCP(t, 2)
	defer tr.Close()
	var delivered atomic.Int32
	tr.RegisterHandler(0, func(m cluster.Message) {})
	tr.RegisterHandler(1, func(m cluster.Message) { delivered.Add(1) })
	for i := 0; i < 10; i++ {
		tr.Send(cluster.Message{From: 0, To: 1, Kind: cluster.Data, Bytes: 100, Payload: batch(0, 1)})
	}
	tr.WaitIdle()
	if got := delivered.Load(); got != 10 {
		t.Errorf("WaitIdle returned with %d/10 delivered", got)
	}
	s := tr.Stats().Load()
	if s.DataMessages != 10 || s.DataBytes != 1000 {
		t.Errorf("simulated ledger skewed: %+v", s)
	}
	// The true wire ledger: all accepted frames were written and read.
	if s.WireBytesSent == 0 || s.WireBytesSent != s.WireBytesReceived {
		t.Errorf("wire bytes sent %d != received %d (or zero)", s.WireBytesSent, s.WireBytesReceived)
	}
}

func TestTCPKillDropsDataButNotControl(t *testing.T) {
	tr := newTCP(t, 2)
	defer tr.Close()
	var data, ctrl atomic.Int64
	tr.RegisterHandler(0, func(m cluster.Message) {})
	tr.RegisterHandler(1, func(m cluster.Message) {
		if m.Kind == cluster.Data {
			data.Add(1)
		} else {
			ctrl.Add(1)
		}
	})
	tr.Kill(1)
	if tr.Alive(1) {
		t.Fatal("worker 1 alive after Kill")
	}
	tr.Send(cluster.Message{From: 0, To: 1, Kind: cluster.Data, Payload: batch(0, 1)})
	tr.Send(cluster.Message{From: 1, To: 0, Kind: cluster.Data, Payload: batch(0, 1)})
	tr.Send(cluster.Message{From: 0, To: 1, Kind: cluster.Control, Payload: chandy.Ctrl{}})
	tr.Send(cluster.Message{From: 0, To: 1, Kind: cluster.Ack, Payload: cluster.AckMsg{Seq: 1}})
	tr.WaitIdle()
	if got := data.Load(); got != 0 {
		t.Errorf("dead worker received %d data messages", got)
	}
	if got := ctrl.Load(); got != 2 {
		t.Errorf("control/ack delivered = %d, want 2", got)
	}
	if got := tr.Stats().Load().DroppedMessages; got != 2 {
		t.Errorf("DroppedMessages = %d, want 2", got)
	}
	tr.Revive(1)
	tr.Send(cluster.Message{From: 0, To: 1, Kind: cluster.Data, Payload: batch(0, 1)})
	tr.WaitIdle()
	if got := data.Load(); got != 1 {
		t.Errorf("revived worker received %d data messages, want 1", got)
	}
}

// hookFunc injects a fixed fate for data messages.
type hookFunc struct {
	fate      cluster.Fate
	delivered atomic.Int64
}

func (h *hookFunc) OnSend(m cluster.Message) cluster.Fate {
	if m.Kind == cluster.Data {
		return h.fate
	}
	return cluster.Fate{}
}
func (h *hookFunc) OnDeliver(m cluster.Message) { h.delivered.Add(1) }

func TestTCPFaultDuplicates(t *testing.T) {
	tr := newTCP(t, 2)
	defer tr.Close()
	hook := &hookFunc{fate: cluster.Fate{Duplicates: 1}}
	tr.SetFaultHook(hook)
	var got atomic.Int64
	tr.RegisterHandler(0, func(m cluster.Message) {})
	tr.RegisterHandler(1, func(m cluster.Message) { got.Add(1) })
	tr.Send(cluster.Message{From: 0, To: 1, Kind: cluster.Data, Bytes: 10, Payload: batch(0, 1)})
	tr.WaitIdle()
	if got.Load() != 2 {
		t.Errorf("duplicate not delivered: got %d copies, want 2", got.Load())
	}
	s := tr.Stats().Load()
	// Each copy is a real frame: counted as sent traffic, and twice the
	// wire bytes of a single send.
	if s.DataMessages != 2 || s.DataBytes != 20 {
		t.Errorf("duplicate accounting: %+v", s)
	}
	if hook.delivered.Load() != 2 {
		t.Errorf("OnDeliver ran %d times, want 2", hook.delivered.Load())
	}
}

func TestTCPFaultWireLoss(t *testing.T) {
	tr := newTCP(t, 2)
	defer tr.Close()
	hook := &hookFunc{fate: cluster.Fate{DropDelivery: true}}
	tr.SetFaultHook(hook)
	tr.RegisterHandler(0, func(m cluster.Message) {})
	tr.RegisterHandler(1, func(m cluster.Message) { t.Error("wire-lost frame delivered") })
	tr.Send(cluster.Message{From: 0, To: 1, Kind: cluster.Data, Bytes: 10, Payload: batch(0, 1)})
	tr.WaitIdle()
	s := tr.Stats().Load()
	// Lost on the wire: counted when sent (the sender paid for it), then
	// counted dropped at delivery — and the frame did cross the socket.
	if s.DataMessages != 1 || s.DroppedMessages != 1 {
		t.Errorf("wire-loss accounting: %+v", s)
	}
	if s.WireBytesReceived == 0 {
		t.Error("wire-lost frame never crossed the wire")
	}
}

// oneShotDelayHook delays exactly the first data message it sees and
// passes everything after it through untouched.
type oneShotDelayHook struct {
	delay time.Duration
	used  atomic.Bool
}

func (h *oneShotDelayHook) OnSend(m cluster.Message) cluster.Fate {
	if m.Kind == cluster.Data && h.used.CompareAndSwap(false, true) {
		return cluster.Fate{Delay: h.delay}
	}
	return cluster.Fate{}
}
func (h *oneShotDelayHook) OnDeliver(cluster.Message) {}

func TestTCPFaultStragglerDelay(t *testing.T) {
	// The injected delay must be applied by the read pump head-of-line,
	// like a slow frame on a Mem lane: an undelayed frame sent right
	// behind the straggler on the same lane must still arrive after it.
	// Ordering is verified by channel receives, not wall-clock windows
	// (upper-bound sleeps flake under -race on loaded machines); the only
	// timing assertion left is the flake-free lower bound.
	tr := newTCP(t, 2)
	defer tr.Close()
	tr.SetFaultHook(&oneShotDelayHook{delay: 50 * time.Millisecond})
	got := make(chan float64, 2)
	tr.RegisterHandler(0, func(m cluster.Message) {})
	tr.RegisterHandler(1, func(m cluster.Message) {
		got <- m.Payload.([]msgstore.Entry[float64])[0].Msg
	})
	start := time.Now()
	tr.Send(cluster.Message{From: 0, To: 1, Kind: cluster.Data, Payload: batch(0, 1)}) // straggler
	tr.Send(cluster.Message{From: 0, To: 1, Kind: cluster.Data, Payload: batch(0, 2)}) // right behind it
	recv := func() float64 {
		select {
		case v := <-got:
			return v
		case <-time.After(10 * time.Second):
			t.Fatal("straggler never delivered")
			return 0
		}
	}
	if first := recv(); first != 1 {
		t.Fatalf("frame %v overtook the head-of-line straggler", first)
	}
	if d := time.Since(start); d < 40*time.Millisecond {
		t.Errorf("straggler delivered after %v, want >= ~50ms", d)
	}
	if second := recv(); second != 2 {
		t.Fatalf("second frame corrupted: got %v", second)
	}
}

func TestTCPSendAfterCloseDropped(t *testing.T) {
	tr := newTCP(t, 2)
	tr.RegisterHandler(0, func(m cluster.Message) {})
	tr.RegisterHandler(1, func(m cluster.Message) { t.Error("delivered after close") })
	tr.Close()
	tr.Send(cluster.Message{From: 0, To: 1, Kind: cluster.Data, Payload: batch(0, 1)})
	if got := tr.Stats().Load().DroppedMessages; got != 1 {
		t.Errorf("DroppedMessages = %d, want 1 (send after Close)", got)
	}
	tr.Close() // idempotent
}

func TestTCPCloseDrainsInFlight(t *testing.T) {
	// Close must deliver (or count dropped) everything accepted before it.
	tr := newTCP(t, 3)
	var delivered atomic.Int64
	for w := 0; w < 3; w++ {
		tr.RegisterHandler(cluster.WorkerID(w), func(m cluster.Message) { delivered.Add(1) })
	}
	const n = 300
	for i := 0; i < n; i++ {
		tr.Send(cluster.Message{From: cluster.WorkerID(i % 3), To: cluster.WorkerID((i + 1) % 3),
			Kind: cluster.Data, Payload: batch(0, float64(i))})
	}
	tr.Close()
	s := tr.Stats().Load()
	if got := delivered.Load() + s.DroppedMessages; got != n {
		t.Errorf("delivered %d + dropped %d != sent %d", delivered.Load(), s.DroppedMessages, n)
	}
	if tr.InFlight() != 0 {
		t.Errorf("InFlight = %d after Close", tr.InFlight())
	}
}

func TestTCPCloseStopsGoroutines(t *testing.T) {
	requireLoopback(t)
	before := runtime.NumGoroutine()
	tr := newTCP(t, 4) // 16 lanes: 16 writers + 16 pumps
	for w := 0; w < 4; w++ {
		tr.RegisterHandler(cluster.WorkerID(w), func(m cluster.Message) {})
	}
	for i := 0; i < 100; i++ {
		tr.Send(cluster.Message{From: cluster.WorkerID(i % 4), To: cluster.WorkerID((i + 1) % 4),
			Kind: cluster.Data, Payload: batch(0, 1)})
	}
	tr.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked after Close: before=%d now=%d",
				before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestTCPConcurrentSendersStress(t *testing.T) {
	tr := newTCP(t, 4)
	defer tr.Close()
	var count atomic.Int64
	for w := 0; w < 4; w++ {
		tr.RegisterHandler(cluster.WorkerID(w), func(m cluster.Message) { count.Add(1) })
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		w := w
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 500; i++ {
					tr.Send(cluster.Message{From: cluster.WorkerID(w), To: cluster.WorkerID(i % 4),
						Kind: cluster.Data, Payload: batch(0, float64(i))})
				}
			}()
		}
	}
	wg.Wait()
	tr.WaitIdle()
	if got := count.Load(); got != 4*4*500 {
		t.Errorf("delivered %d of %d", got, 4*4*500)
	}
}

func TestTCPSelfSend(t *testing.T) {
	tr := newTCP(t, 1)
	defer tr.Close()
	got := make(chan cluster.Message, 1)
	tr.RegisterHandler(0, func(m cluster.Message) { got <- m })
	tr.Send(cluster.Message{From: 0, To: 0, Kind: cluster.Data, Payload: batch(3, 42)})
	select {
	case m := <-got:
		if b := m.Payload.([]msgstore.Entry[float64]); b[0].Msg != 42 {
			t.Errorf("payload = %+v", b)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("self-send not delivered")
	}
}

// Three peer transports, one per worker as in a multi-process run: when
// Barrier returns, every data frame any peer sent before its own Barrier
// has been handled, and once a peer has closed its lanes the others'
// Barrier fails instead of waiting for it forever.
func TestTCPPeerBarrier(t *testing.T) {
	requireLoopback(t)
	const n, perLane = 3, 50
	lns := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i], addrs[i] = ln, ln.Addr().String()
	}
	peers := make([]*cluster.TCP, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range peers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			peers[i], errs[i] = cluster.NewTCPPeer(n, i, lns[i], addrs, wire.NewCodec[float64](), 5*time.Second)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("peer %d: %v", i, err)
		}
	}
	handled := make([]atomic.Int64, n)
	for i, p := range peers {
		p.RegisterHandler(cluster.WorkerID(i), func(cluster.Message) { handled[i].Add(1) })
	}
	for round := int64(1); round <= 2; round++ {
		for i, p := range peers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for to := range n {
					for k := 0; to != i && k < perLane; k++ {
						p.Send(cluster.Message{From: cluster.WorkerID(i), To: cluster.WorkerID(to),
							Kind: cluster.Data, Payload: batch(0, float64(k))})
					}
				}
				if errs[i] = p.Barrier(); errs[i] == nil && handled[i].Load() != round*perLane*(n-1) {
					t.Errorf("peer %d handled %d frames at barrier %d, want %d", i, handled[i].Load(), round, round*perLane*(n-1))
				}
			}()
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("peer %d barrier %d: %v", i, round, err)
			}
		}
	}

	// A peer's Close returns once the others have closed too, so every
	// Close runs on its own goroutine.
	for i, p := range peers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if i < 2 && p.Barrier() == nil {
				t.Errorf("peer %d passed a barrier with peer 2 gone", i)
			}
			p.Close()
		}()
	}
	wg.Wait()
}

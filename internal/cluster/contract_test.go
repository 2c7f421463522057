package cluster_test

// The transport contract (core.go): every case runs on both backends, as
// TestTransportContract/{mem,tcp}/<case>, with payloads both carry — data
// batches, chandy.Ctrl and flush markers. Delays come from a fault hook's
// Fate.Delay, which both backends hold on the wire, not from a latency
// model (TCP does not enforce one). Backend-specific behaviour — Mem's wire
// clock and bandwidth, TCP's peer barrier and buffer reuse — is tested in
// transport_test.go, tcp_test.go and wirepath_test.go.

import (
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"serialgraph/internal/chandy"
	"serialgraph/internal/cluster"
	"serialgraph/internal/msgstore"
)

// backend builds an n-worker transport of one kind; wire reports whether
// it counts true encoded bytes (Stats.WireBytesSent/Received).
type backend struct {
	name string
	wire bool
	new  func(t *testing.T, n int) cluster.Transport
}

var backends = []backend{
	{"mem", false, func(_ *testing.T, n int) cluster.Transport { return cluster.New(n, cluster.LatencyModel{}) }},
	{"tcp", true, func(t *testing.T, n int) cluster.Transport { return newTCP(t, n) }},
}

var contractCases = []struct {
	name string
	run  func(t *testing.T, b backend)
}{
	{"SendDeliversToHandler", contractSendDelivers},
	{"FIFOPerLane", contractFIFOPerLane},
	{"WaitIdleAndStats", contractWaitIdleAndStats},
	{"HandlerMaySend", contractHandlerMaySend},
	{"HoldBlocksWaitIdle", contractHoldBlocksWaitIdle},
	{"SelfSend", contractSelfSend},
	{"EndpointFlushWait", contractEndpointFlushWait},
	{"ConcurrentSendersStress", contractConcurrentSenders},
	{"KillDropsDataButNotControl", contractKillDropsData},
	{"KillDropsInFlightData", contractKillDropsInFlight},
	{"FaultDuplicates", contractFaultDuplicates},
	{"FaultWireLoss", contractFaultWireLoss},
	{"FaultStragglerDelay", contractFaultStraggler},
	{"SendAfterCloseDropped", contractSendAfterClose},
	{"CloseIdempotent", contractCloseIdempotent},
	{"CloseDrainsInFlight", contractCloseDrains},
	{"CloseStopsGoroutines", contractCloseStopsGoroutines},
	{"ConcurrentSendCloseWaitIdle", contractSendCloseRace},
	{"DoubleRegisterPanics", contractDoubleRegister},
	{"BadEndpointsPanic", contractBadEndpoints},
}

func TestTransportContract(t *testing.T) {
	for _, b := range backends {
		t.Run(b.name, func(t *testing.T) {
			for _, c := range contractCases {
				t.Run(c.name, func(t *testing.T) { c.run(t, b) })
			}
		})
	}
}

func data(from, to cluster.WorkerID, bytes int, v float64) cluster.Message {
	return cluster.Message{From: from, To: to, Kind: cluster.Data, Bytes: bytes, Payload: batch(0, v)}
}

func first(m cluster.Message) float64 { return m.Payload.([]msgstore.Entry[float64])[0].Msg }

// hookFunc injects a fixed fate for data messages and counts deliveries.
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

func contractSendDelivers(t *testing.T, b backend) {
	tr := b.new(t, 2)
	defer tr.Close()
	got := make(chan cluster.Message, 1)
	tr.RegisterHandler(0, func(m cluster.Message) {})
	tr.RegisterHandler(1, func(m cluster.Message) { got <- m })
	sent := batch(7, 1.5, 2.5, 3.5)
	tr.Send(cluster.Message{From: 0, To: 1, Kind: cluster.Data, Bytes: 100, Payload: sent})
	select {
	case m := <-got:
		if m.From != 0 || m.To != 1 || m.Kind != cluster.Data || m.Bytes != 100 {
			t.Errorf("envelope corrupted in transit: %+v", m)
		}
		if !reflect.DeepEqual(m.Payload, sent) {
			t.Errorf("batch corrupted: got %+v want %+v", m.Payload, sent)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("message never delivered")
	}
}

func contractFIFOPerLane(t *testing.T, b backend) {
	tr := b.new(t, 2)
	defer tr.Close()
	tr.RegisterHandler(0, func(m cluster.Message) {})
	var mu sync.Mutex
	var order []float64
	done := make(chan struct{})
	tr.RegisterHandler(1, func(m cluster.Message) {
		mu.Lock()
		order = append(order, first(m))
		if len(order) == 1000 {
			close(done)
		}
		mu.Unlock()
	})
	for i := 0; i < 1000; i++ {
		tr.Send(data(0, 1, 0, float64(i)))
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

// contractWaitIdleAndStats holds every data message on the wire for a few
// milliseconds, so WaitIdle has something to wait for, and then checks the
// per-kind ledger counts each message with its sender's declared bytes.
func contractWaitIdleAndStats(t *testing.T, b backend) {
	tr := b.new(t, 2)
	defer tr.Close()
	tr.SetFaultHook(&hookFunc{fate: cluster.Fate{Delay: 2 * time.Millisecond}})
	var delivered atomic.Int32
	tr.RegisterHandler(0, func(m cluster.Message) {})
	tr.RegisterHandler(1, func(m cluster.Message) { delivered.Add(1) })
	for i := 0; i < 10; i++ {
		tr.Send(data(0, 1, 100, 1))
	}
	tr.Send(cluster.Message{From: 1, To: 0, Kind: cluster.Control, Bytes: 64, Payload: chandy.Ctrl{}})
	tr.Send(cluster.Message{From: 1, To: 0, Kind: cluster.Ack, Bytes: 16, Payload: cluster.AckMsg{Seq: 1}})
	tr.WaitIdle()
	if got := delivered.Load(); got != 10 {
		t.Errorf("WaitIdle returned with %d/10 delivered", got)
	}
	if cluster.InFlight(tr) != 0 {
		t.Errorf("InFlight = %d after WaitIdle", cluster.InFlight(tr))
	}
	s := tr.Stats().Load()
	if s.DataMessages != 10 || s.DataBytes != 1000 {
		t.Errorf("data stats %+v", s)
	}
	if s.ControlMessages != 1 || s.ControlBytes != 64 || s.AckMessages != 1 || s.DroppedMessages != 0 {
		t.Errorf("control stats %+v", s)
	}
	if s.TotalMessages() != 12 {
		t.Errorf("TotalMessages = %d", s.TotalMessages())
	}
	if diff := tr.Stats().Load().Sub(s); diff.TotalMessages() != 0 {
		t.Errorf("Sub of equal snapshots nonzero: %+v", diff)
	}
	// The true wire ledger: every accepted frame was written and read.
	if s.WireBytesSent != s.WireBytesReceived || b.wire != (s.WireBytesSent > 0) {
		t.Errorf("wire bytes sent %d, received %d", s.WireBytesSent, s.WireBytesReceived)
	}
}

func contractHandlerMaySend(t *testing.T, b backend) {
	// Ping-pong through handlers must not deadlock.
	tr := b.new(t, 2)
	defer tr.Close()
	done := make(chan struct{})
	pong := func(from, to cluster.WorkerID) cluster.Handler {
		return func(m cluster.Message) {
			seq := m.Payload.(cluster.FlushMarker).Seq
			if seq >= 100 {
				close(done)
				return
			}
			tr.Send(cluster.Message{From: from, To: to, Kind: cluster.Control, Payload: cluster.FlushMarker{Seq: seq + 1}})
		}
	}
	tr.RegisterHandler(0, pong(0, 1))
	tr.RegisterHandler(1, pong(1, 0))
	tr.Send(cluster.Message{From: 1, To: 0, Kind: cluster.Control, Payload: cluster.FlushMarker{}})
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("ping-pong deadlocked")
	}
}

// contractHoldBlocksWaitIdle: a Hold counts like a message in flight. A
// handler that holds before it returns hands its unit of work on without the
// count passing through zero, and WaitIdle returns only after the Release.
func contractHoldBlocksWaitIdle(t *testing.T, b backend) {
	tr := b.new(t, 2)
	defer tr.Close()
	var released atomic.Bool
	tr.RegisterHandler(0, func(cluster.Message) {})
	tr.RegisterHandler(1, func(cluster.Message) {
		tr.Hold()
		go func() {
			time.Sleep(5 * time.Millisecond)
			released.Store(true)
			tr.Release()
		}()
	})
	tr.Send(cluster.Message{From: 0, To: 1, Kind: cluster.Control, Payload: cluster.FlushMarker{}})
	tr.WaitIdle()
	if !released.Load() {
		t.Fatal("WaitIdle returned while a Hold was outstanding")
	}
	if n := cluster.InFlight(tr); n != 0 {
		t.Errorf("InFlight = %d after WaitIdle", n)
	}
}

func contractSelfSend(t *testing.T, b backend) {
	tr := b.new(t, 1)
	defer tr.Close()
	got := make(chan cluster.Message, 1)
	tr.RegisterHandler(0, func(m cluster.Message) { got <- m })
	tr.Send(cluster.Message{From: 0, To: 0, Kind: cluster.Data, Payload: batch(3, 42)})
	select {
	case m := <-got:
		if v := first(m); v != 42 {
			t.Errorf("payload = %v", m.Payload)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("self-send not delivered")
	}
}

func contractEndpointFlushWait(t *testing.T, b backend) {
	tr := b.new(t, 3)
	defer tr.Close()
	tr.SetFaultHook(&hookFunc{fate: cluster.Fate{Delay: 2 * time.Millisecond}})
	var received [3]atomic.Int32
	var eps [3]*cluster.Endpoint
	for w := 0; w < 3; w++ {
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
	eps[0].FlushWait([]cluster.WorkerID{0, 1, 2}) // self in targets is skipped
	if received[1].Load() != 5 || received[2].Load() != 5 {
		t.Errorf("flush acked before data applied: %d/%d",
			received[1].Load(), received[2].Load())
	}
}

func contractConcurrentSenders(t *testing.T, b backend) {
	tr := b.new(t, 4)
	defer tr.Close()
	var count atomic.Int64
	for w := 0; w < 4; w++ {
		tr.RegisterHandler(cluster.WorkerID(w), func(m cluster.Message) { count.Add(1) })
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 500; i++ {
					tr.Send(data(cluster.WorkerID(w), cluster.WorkerID(i%4), 0, float64(i)))
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

func contractKillDropsData(t *testing.T, b backend) {
	tr := b.new(t, 2)
	defer tr.Close()
	var dataN, ctrlN atomic.Int64
	tr.RegisterHandler(0, func(m cluster.Message) {})
	tr.RegisterHandler(1, func(m cluster.Message) {
		if m.Kind == cluster.Data {
			dataN.Add(1)
		} else {
			ctrlN.Add(1)
		}
	})
	tr.Kill(1)
	if tr.Alive(1) {
		t.Fatal("worker 1 alive after Kill")
	}
	tr.Send(data(0, 1, 0, 1))                                                                    // to dead: dropped
	tr.Send(data(1, 0, 0, 1))                                                                    // from dead: dropped
	tr.Send(cluster.Message{From: 0, To: 1, Kind: cluster.Control, Payload: chandy.Ctrl{}})      // control flows
	tr.Send(cluster.Message{From: 0, To: 1, Kind: cluster.Ack, Payload: cluster.AckMsg{Seq: 1}}) // acks flow
	tr.WaitIdle()
	if got := dataN.Load(); got != 0 {
		t.Errorf("dead worker received %d data messages", got)
	}
	if got := ctrlN.Load(); got != 2 {
		t.Errorf("control/ack delivered = %d, want 2", got)
	}
	if got := tr.Stats().Load().DroppedMessages; got != 2 {
		t.Errorf("DroppedMessages = %d, want 2", got)
	}
	if d := tr.DeadWorkers(); len(d) != 1 || d[0] != 1 {
		t.Errorf("DeadWorkers = %v, want [1]", d)
	}

	tr.Revive(1)
	tr.Send(data(0, 1, 0, 1))
	tr.WaitIdle()
	if got := dataN.Load(); got != 1 {
		t.Errorf("revived worker received %d data messages, want 1", got)
	}
	if d := tr.DeadWorkers(); d != nil {
		t.Errorf("DeadWorkers after Revive = %v, want none", d)
	}
}

func contractKillDropsInFlight(t *testing.T, b backend) {
	// A data message already on the wire when its receiver dies is lost.
	tr := b.new(t, 2)
	defer tr.Close()
	tr.SetFaultHook(&oneShotDelayHook{delay: 50 * time.Millisecond})
	tr.RegisterHandler(0, func(m cluster.Message) {})
	tr.RegisterHandler(1, func(m cluster.Message) { t.Error("delivered to dead worker") })
	tr.Send(data(0, 1, 0, 1))
	tr.Kill(1)
	tr.WaitIdle()
	s := tr.Stats().Load()
	if s.DroppedMessages != 1 {
		t.Errorf("DroppedMessages = %d, want 1", s.DroppedMessages)
	}
	// Counted when sent, and again as a wire loss.
	if s.DataMessages != 1 {
		t.Errorf("DataMessages = %d, want 1", s.DataMessages)
	}
}

func contractFaultDuplicates(t *testing.T, b backend) {
	tr := b.new(t, 2)
	defer tr.Close()
	hook := &hookFunc{fate: cluster.Fate{Duplicates: 1}}
	tr.SetFaultHook(hook)
	var got atomic.Int64
	tr.RegisterHandler(0, func(m cluster.Message) {})
	tr.RegisterHandler(1, func(m cluster.Message) { got.Add(1) })
	tr.Send(data(0, 1, 10, 1))
	tr.WaitIdle()
	if got.Load() != 2 {
		t.Errorf("duplicate not delivered: got %d copies, want 2", got.Load())
	}
	// Each copy is sent traffic, counted with its declared bytes.
	if s := tr.Stats().Load(); s.DataMessages != 2 || s.DataBytes != 20 {
		t.Errorf("duplicate accounting: %+v", s)
	}
	if hook.delivered.Load() != 2 {
		t.Errorf("OnDeliver ran %d times, want 2", hook.delivered.Load())
	}
}

func contractFaultWireLoss(t *testing.T, b backend) {
	tr := b.new(t, 2)
	defer tr.Close()
	hook := &hookFunc{fate: cluster.Fate{DropDelivery: true}}
	tr.SetFaultHook(hook)
	tr.RegisterHandler(0, func(m cluster.Message) {})
	tr.RegisterHandler(1, func(m cluster.Message) { t.Error("wire-lost message delivered") })
	tr.Send(data(0, 1, 10, 1))
	tr.WaitIdle()
	s := tr.Stats().Load()
	// Lost on the wire: counted when sent (the sender paid for it), then
	// counted dropped at delivery.
	if s.DataMessages != 1 || s.DroppedMessages != 1 {
		t.Errorf("wire-loss accounting: %+v", s)
	}
	if hook.delivered.Load() != 0 {
		t.Errorf("OnDeliver ran for a wire-lost message")
	}
	if b.wire && s.WireBytesReceived == 0 {
		t.Error("wire-lost frame never crossed the wire")
	}
}

func contractFaultStraggler(t *testing.T, b backend) {
	// The injected delay holds its lane head-of-line: an undelayed message
	// sent right behind the straggler must still arrive after it. Ordering
	// is verified by channel receives, not wall-clock windows (upper-bound
	// sleeps flake under -race on loaded machines); the only timing
	// assertion left is the flake-free lower bound.
	tr := b.new(t, 2)
	defer tr.Close()
	tr.SetFaultHook(&oneShotDelayHook{delay: 50 * time.Millisecond})
	got := make(chan float64, 2)
	tr.RegisterHandler(0, func(m cluster.Message) {})
	tr.RegisterHandler(1, func(m cluster.Message) { got <- first(m) })
	start := time.Now()
	tr.Send(data(0, 1, 0, 1)) // straggler
	tr.Send(data(0, 1, 0, 2)) // right behind it
	recv := func() float64 {
		select {
		case v := <-got:
			return v
		case <-time.After(10 * time.Second):
			t.Fatal("straggler never delivered")
			return 0
		}
	}
	if v := recv(); v != 1 {
		t.Fatalf("message %v overtook the head-of-line straggler", v)
	}
	if d := time.Since(start); d < 40*time.Millisecond {
		t.Errorf("straggler delivered after %v, want >= ~50ms", d)
	}
	if v := recv(); v != 2 {
		t.Fatalf("second message corrupted: got %v", v)
	}
}

func contractSendAfterClose(t *testing.T, b backend) {
	tr := b.new(t, 2)
	tr.RegisterHandler(0, func(m cluster.Message) {})
	tr.RegisterHandler(1, func(m cluster.Message) { t.Error("delivered after close") })
	tr.Close()
	tr.Send(data(0, 1, 0, 1))
	if got := tr.Stats().Load().DroppedMessages; got != 1 {
		t.Errorf("DroppedMessages = %d, want 1 (send after Close)", got)
	}
}

func contractCloseIdempotent(t *testing.T, b backend) {
	tr := b.new(t, 2)
	tr.RegisterHandler(0, func(m cluster.Message) {})
	tr.RegisterHandler(1, func(m cluster.Message) {})
	tr.Close()
	tr.Close() // second close must be a no-op
}

func contractCloseDrains(t *testing.T, b backend) {
	// Close must deliver (or count dropped) everything accepted before it.
	tr := b.new(t, 3)
	var delivered atomic.Int64
	for w := 0; w < 3; w++ {
		tr.RegisterHandler(cluster.WorkerID(w), func(m cluster.Message) { delivered.Add(1) })
	}
	const n = 300
	for i := 0; i < n; i++ {
		tr.Send(data(cluster.WorkerID(i%3), cluster.WorkerID((i+1)%3), 0, float64(i)))
	}
	tr.Close()
	s := tr.Stats().Load()
	if got := delivered.Load() + s.DroppedMessages; got != n {
		t.Errorf("delivered %d + dropped %d != sent %d", delivered.Load(), s.DroppedMessages, n)
	}
	if cluster.InFlight(tr) != 0 {
		t.Errorf("InFlight = %d after Close", cluster.InFlight(tr))
	}
}

func contractCloseStopsGoroutines(t *testing.T, b backend) {
	if b.wire {
		requireLoopback(t) // before counting: a skipped listen leaks nothing
	}
	before := runtime.NumGoroutine()
	tr := b.new(t, 4) // 16 lanes and their consumers (on TCP, writers and pumps)
	// Messages still held on the wire at Close: Mem's wire clock must stop
	// with deadlines pending.
	tr.SetFaultHook(&hookFunc{fate: cluster.Fate{Delay: 100 * time.Microsecond}})
	for w := 0; w < 4; w++ {
		tr.RegisterHandler(cluster.WorkerID(w), func(m cluster.Message) {})
	}
	for i := 0; i < 100; i++ {
		tr.Send(data(cluster.WorkerID(i%4), cluster.WorkerID((i+1)%4), 0, 1))
	}
	tr.Close()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before+2 { // slack for test runner internals
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked after Close: before=%d now=%d",
				before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func contractSendCloseRace(t *testing.T, b backend) {
	// Senders racing Close must never strand an in-flight count: every
	// message either delivers or is counted dropped, and WaitIdle returns.
	for iter := 0; iter < 20; iter++ {
		tr := b.new(t, 3)
		var delivered atomic.Int64
		for w := 0; w < 3; w++ {
			tr.RegisterHandler(cluster.WorkerID(w), func(m cluster.Message) { delivered.Add(1) })
		}
		const senders, perSender = 6, 200
		var wg sync.WaitGroup
		start := make(chan struct{})
		for g := 0; g < senders; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for i := 0; i < perSender; i++ {
					tr.Send(data(cluster.WorkerID(g%3), cluster.WorkerID(i%3), 0, 1))
				}
			}()
		}
		close(start)
		tr.Close() // races the senders
		wg.Wait()

		idle := make(chan struct{})
		go func() { tr.WaitIdle(); close(idle) }()
		select {
		case <-idle:
		case <-time.After(5 * time.Second):
			t.Fatalf("iter %d: WaitIdle hung after Send/Close race (inflight=%d)",
				iter, cluster.InFlight(tr))
		}
		if got := delivered.Load() + tr.Stats().Load().DroppedMessages; got != senders*perSender {
			t.Fatalf("iter %d: delivered %d + dropped %d != sent %d",
				iter, delivered.Load(), got-delivered.Load(), senders*perSender)
		}
	}
}

func contractDoubleRegister(t *testing.T, b backend) {
	tr := b.new(t, 1)
	defer tr.Close()
	tr.RegisterHandler(0, func(m cluster.Message) {})
	defer func() {
		if recover() == nil {
			t.Error("double register did not panic")
		}
	}()
	tr.RegisterHandler(0, func(m cluster.Message) {})
}

func contractBadEndpoints(t *testing.T, b backend) {
	tr := b.new(t, 2)
	defer tr.Close()
	tr.RegisterHandler(0, func(m cluster.Message) {})
	tr.RegisterHandler(1, func(m cluster.Message) {})
	defer func() {
		if recover() == nil {
			t.Error("out-of-range destination did not panic")
		}
	}()
	tr.Send(data(0, 9, 0, 1))
}

package cluster

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestSendDeliversToHandler(t *testing.T) {
	tr := New(2, LatencyModel{})
	defer tr.Close()
	got := make(chan Message, 1)
	tr.RegisterHandler(0, func(m Message) {})
	tr.RegisterHandler(1, func(m Message) { got <- m })
	tr.Send(Message{From: 0, To: 1, Kind: Data, Bytes: 100, Payload: "hi"})
	select {
	case m := <-got:
		if m.Payload != "hi" || m.From != 0 {
			t.Errorf("got %+v", m)
		}
	case <-time.After(time.Second):
		t.Fatal("message never delivered")
	}
}

func TestFIFOPerLane(t *testing.T) {
	tr := New(2, LatencyModel{})
	defer tr.Close()
	tr.RegisterHandler(0, func(m Message) {})
	var mu sync.Mutex
	var order []int
	done := make(chan struct{})
	tr.RegisterHandler(1, func(m Message) {
		mu.Lock()
		order = append(order, m.Payload.(int))
		if len(order) == 1000 {
			close(done)
		}
		mu.Unlock()
	})
	for i := 0; i < 1000; i++ {
		tr.Send(Message{From: 0, To: 1, Kind: Data, Payload: i})
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("not all messages delivered")
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("order[%d] = %d: FIFO violated", i, v)
		}
	}
}

func TestPropagationDelay(t *testing.T) {
	tr := New(2, LatencyModel{Propagation: 30 * time.Millisecond})
	defer tr.Close()
	tr.RegisterHandler(0, func(m Message) {})
	got := make(chan time.Time, 1)
	tr.RegisterHandler(1, func(m Message) { got <- time.Now() })
	start := time.Now()
	tr.Send(Message{From: 0, To: 1, Kind: Control})
	at := <-got
	if d := at.Sub(start); d < 25*time.Millisecond {
		t.Errorf("delivered after %v, want >= ~30ms", d)
	}
}

func TestBandwidthSerialization(t *testing.T) {
	// 10 KB at 100 KB/s = 100ms serialization delay.
	tr := New(2, LatencyModel{BytesPerSec: 100_000})
	defer tr.Close()
	tr.RegisterHandler(0, func(m Message) {})
	got := make(chan time.Time, 2)
	tr.RegisterHandler(1, func(m Message) { got <- time.Now() })
	start := time.Now()
	tr.Send(Message{From: 0, To: 1, Kind: Data, Bytes: 5000})
	tr.Send(Message{From: 0, To: 1, Kind: Data, Bytes: 5000})
	<-got
	second := <-got
	// The two messages need 100ms of combined serialization.
	if d := second.Sub(start); d < 80*time.Millisecond {
		t.Errorf("second message delivered after %v, want >= ~100ms", d)
	}
}

func TestLatencyDoesNotSerializeAcrossLanes(t *testing.T) {
	// Messages on distinct lanes should be delayed in parallel: total time
	// for 4 lanes at 30ms each must be ~30ms, not 120ms.
	tr := New(4, LatencyModel{Propagation: 30 * time.Millisecond})
	defer tr.Close()
	var wg sync.WaitGroup
	wg.Add(3)
	for w := 1; w < 4; w++ {
		tr.RegisterHandler(WorkerID(w), func(m Message) { wg.Done() })
	}
	tr.RegisterHandler(0, func(m Message) {})
	start := time.Now()
	for w := 1; w < 4; w++ {
		tr.Send(Message{From: 0, To: WorkerID(w), Kind: Control})
	}
	wg.Wait()
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Errorf("parallel lanes took %v, want ~30ms", d)
	}
}

func TestStatsAccounting(t *testing.T) {
	tr := New(2, LatencyModel{})
	defer tr.Close()
	tr.RegisterHandler(0, func(m Message) {})
	tr.RegisterHandler(1, func(m Message) {})
	tr.Send(Message{From: 0, To: 1, Kind: Data, Bytes: 100})
	tr.Send(Message{From: 0, To: 1, Kind: Data, Bytes: 50})
	tr.Send(Message{From: 1, To: 0, Kind: Control, Bytes: 64})
	tr.Send(Message{From: 1, To: 0, Kind: Ack, Bytes: 16})
	tr.WaitIdle()
	s := tr.Stats().Load()
	if s.DataMessages != 2 || s.DataBytes != 150 {
		t.Errorf("data stats %+v", s)
	}
	if s.ControlMessages != 1 || s.ControlBytes != 64 || s.AckMessages != 1 {
		t.Errorf("control stats %+v", s)
	}
	if s.TotalMessages() != 4 {
		t.Errorf("TotalMessages = %d", s.TotalMessages())
	}
	diff := tr.Stats().Load().Sub(s)
	if diff.TotalMessages() != 0 {
		t.Errorf("Sub of equal snapshots nonzero: %+v", diff)
	}
}

// TestLaneSteadyStateAllocatesNothing guards the lane queue: a lane that has
// seen its peak burst delivers further bursts out of the two queue buffers
// it swaps, instead of regrowing a slice whose head it keeps cutting off.
func TestLaneSteadyStateAllocatesNothing(t *testing.T) {
	tr := New(2, LatencyModel{})
	defer tr.Close()
	var got atomic.Int64
	tr.RegisterHandler(0, func(Message) {})
	tr.RegisterHandler(1, func(Message) { got.Add(1) })
	var payload any = "fork"
	const burstLen = 64
	burst := func() {
		for i := 0; i < burstLen; i++ {
			tr.Send(Message{From: 0, To: 1, Kind: Control, Bytes: CtrlBytes, Payload: payload})
		}
		tr.WaitIdle()
	}
	for i := 0; i < 20; i++ {
		burst() // both queue buffers reach the burst size
	}
	if allocs := testing.AllocsPerRun(100, burst); allocs != 0 {
		t.Errorf("a steady-state burst of %d sends allocates %v objects, want 0", burstLen, allocs)
	}
	if want := int64(121 * burstLen); got.Load() != want || tr.InFlight() != 0 {
		t.Errorf("delivered %d of %d, %d in flight", got.Load(), want, tr.InFlight())
	}
}

func TestWaitIdle(t *testing.T) {
	tr := New(2, LatencyModel{Propagation: 20 * time.Millisecond})
	defer tr.Close()
	var delivered atomic.Int32
	tr.RegisterHandler(0, func(m Message) {})
	tr.RegisterHandler(1, func(m Message) { delivered.Add(1) })
	for i := 0; i < 10; i++ {
		tr.Send(Message{From: 0, To: 1, Kind: Data})
	}
	tr.WaitIdle()
	if got := delivered.Load(); got != 10 {
		t.Errorf("WaitIdle returned with %d/10 delivered", got)
	}
	if tr.InFlight() != 0 {
		t.Errorf("InFlight = %d after WaitIdle", tr.InFlight())
	}
}

func TestHandlerMaySend(t *testing.T) {
	// Ping-pong through handlers must not deadlock.
	tr := New(2, LatencyModel{})
	defer tr.Close()
	done := make(chan struct{})
	tr.RegisterHandler(0, func(m Message) {
		if m.Payload.(int) >= 100 {
			close(done)
			return
		}
		tr.Send(Message{From: 0, To: 1, Kind: Control, Payload: m.Payload.(int) + 1})
	})
	tr.RegisterHandler(1, func(m Message) {
		tr.Send(Message{From: 1, To: 0, Kind: Control, Payload: m.Payload.(int) + 1})
	})
	tr.Send(Message{From: 1, To: 0, Kind: Control, Payload: 0})
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("ping-pong deadlocked")
	}
}

func TestSendAfterCloseDropped(t *testing.T) {
	tr := New(2, LatencyModel{})
	tr.RegisterHandler(0, func(m Message) {})
	tr.RegisterHandler(1, func(m Message) { t.Error("delivered after close") })
	tr.Close()
	tr.Send(Message{From: 0, To: 1, Kind: Data})
	time.Sleep(20 * time.Millisecond)
	if got := tr.Stats().Load().DroppedMessages; got != 1 {
		t.Errorf("DroppedMessages = %d, want 1 (send after Close)", got)
	}
}

func TestConcurrentSendCloseWaitIdle(t *testing.T) {
	// Senders racing Close must never strand an in-flight count: every
	// message either delivers or is counted dropped, and WaitIdle returns.
	for iter := 0; iter < 20; iter++ {
		tr := New(3, LatencyModel{})
		var delivered atomic.Int64
		for w := 0; w < 3; w++ {
			tr.RegisterHandler(WorkerID(w), func(m Message) { delivered.Add(1) })
		}
		const senders, perSender = 6, 200
		var wg sync.WaitGroup
		start := make(chan struct{})
		for g := 0; g < senders; g++ {
			g := g
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for i := 0; i < perSender; i++ {
					tr.Send(Message{From: WorkerID(g % 3), To: WorkerID(i % 3), Kind: Data})
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
				iter, tr.InFlight())
		}
		s := tr.Stats().Load()
		if got := delivered.Load() + s.DroppedMessages; got != senders*perSender {
			t.Fatalf("iter %d: delivered %d + dropped %d != sent %d",
				iter, delivered.Load(), s.DroppedMessages, senders*perSender)
		}
	}
}

func TestCloseStopsGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	// 64 lanes, 64 delivery goroutines, and the wire clock they wait on.
	tr := New(8, LatencyModel{Propagation: 100 * time.Microsecond})
	for w := 0; w < 8; w++ {
		tr.RegisterHandler(WorkerID(w), func(m Message) {})
	}
	for i := 0; i < 100; i++ {
		tr.Send(Message{From: WorkerID(i % 8), To: WorkerID((i + 1) % 8), Kind: Data})
	}
	tr.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= before+2 { // slack for test runner internals
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked after Close: before=%d now=%d",
				before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestKillDropsDataButNotControl(t *testing.T) {
	tr := New(2, LatencyModel{})
	defer tr.Close()
	var data, ctrl atomic.Int64
	tr.RegisterHandler(0, func(m Message) {})
	tr.RegisterHandler(1, func(m Message) {
		if m.Kind == Data {
			data.Add(1)
		} else {
			ctrl.Add(1)
		}
	})
	tr.Kill(1)
	if tr.Alive(1) {
		t.Fatal("worker 1 alive after Kill")
	}
	tr.Send(Message{From: 0, To: 1, Kind: Data})    // to dead: dropped
	tr.Send(Message{From: 1, To: 0, Kind: Data})    // from dead: dropped
	tr.Send(Message{From: 0, To: 1, Kind: Control}) // control flows
	tr.Send(Message{From: 0, To: 1, Kind: Ack})     // acks flow
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
	if d := tr.DeadWorkers(); len(d) != 1 || d[0] != 1 {
		t.Errorf("DeadWorkers = %v, want [1]", d)
	}

	tr.Revive(1)
	tr.Send(Message{From: 0, To: 1, Kind: Data})
	tr.WaitIdle()
	if got := data.Load(); got != 1 {
		t.Errorf("revived worker received %d data messages, want 1", got)
	}
	if d := tr.DeadWorkers(); d != nil {
		t.Errorf("DeadWorkers after Revive = %v, want none", d)
	}
}

func TestKillDropsInFlightData(t *testing.T) {
	// A data message already on the wire when its receiver dies is lost.
	tr := New(2, LatencyModel{Propagation: 50 * time.Millisecond})
	defer tr.Close()
	tr.RegisterHandler(0, func(m Message) {})
	tr.RegisterHandler(1, func(m Message) { t.Error("delivered to dead worker") })
	tr.Send(Message{From: 0, To: 1, Kind: Data})
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

func TestEndpointFlushWait(t *testing.T) {
	tr := New(3, LatencyModel{Propagation: 10 * time.Millisecond})
	defer tr.Close()
	var received [3]atomic.Int32
	var eps [3]*Endpoint
	for w := 0; w < 3; w++ {
		w := w
		eps[w] = NewEndpoint(tr, WorkerID(w),
			func(from WorkerID, payload any) { received[w].Add(int32(payload.(int))) },
			nil)
	}
	for i := 0; i < 5; i++ {
		eps[0].SendData(1, 1, 10)
		eps[0].SendData(2, 1, 10)
	}
	eps[0].FlushWait([]WorkerID{0, 1, 2}) // self in targets is skipped
	if received[1].Load() != 5 || received[2].Load() != 5 {
		t.Errorf("flush acked before data applied: %d/%d",
			received[1].Load(), received[2].Load())
	}
}

func TestEndpointCtrlDispatch(t *testing.T) {
	tr := New(2, LatencyModel{})
	defer tr.Close()
	gotCtrl := make(chan any, 1)
	NewEndpoint(tr, 0, nil, nil)
	e1ctrl := func(from WorkerID, payload any) { gotCtrl <- payload }
	NewEndpoint(tr, 1, nil, e1ctrl)
	tr.Send(Message{From: 0, To: 1, Kind: Control, Payload: "fork"})
	select {
	case p := <-gotCtrl:
		if p != "fork" {
			t.Errorf("payload = %v", p)
		}
	case <-time.After(time.Second):
		t.Fatal("control not dispatched")
	}
}

func TestConcurrentSendersStress(t *testing.T) {
	tr := New(4, LatencyModel{})
	defer tr.Close()
	var count atomic.Int64
	for w := 0; w < 4; w++ {
		tr.RegisterHandler(WorkerID(w), func(m Message) { count.Add(1) })
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		w := w
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 500; i++ {
					tr.Send(Message{From: WorkerID(w), To: WorkerID(i % 4), Kind: Data})
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

func TestCloseIdempotent(t *testing.T) {
	tr := New(2, LatencyModel{})
	tr.RegisterHandler(0, func(m Message) {})
	tr.RegisterHandler(1, func(m Message) {})
	tr.Close()
	tr.Close() // second close must be a no-op
}

func TestDoubleRegisterPanics(t *testing.T) {
	tr := New(1, LatencyModel{})
	defer tr.Close()
	tr.RegisterHandler(0, func(m Message) {})
	defer func() {
		if recover() == nil {
			t.Error("double register did not panic")
		}
	}()
	tr.RegisterHandler(0, func(m Message) {})
}

func TestBadEndpointsPanic(t *testing.T) {
	tr := New(2, LatencyModel{})
	defer tr.Close()
	tr.RegisterHandler(0, func(m Message) {})
	tr.RegisterHandler(1, func(m Message) {})
	defer func() {
		if recover() == nil {
			t.Error("out-of-range destination did not panic")
		}
	}()
	tr.Send(Message{From: 0, To: 9})
}

func TestKindStrings(t *testing.T) {
	for k, want := range map[Kind]string{Data: "data", Control: "control", Ack: "ack"} {
		if k.String() != want {
			t.Errorf("%d.String() = %q", k, k.String())
		}
	}
}

func TestSelfSendGoesThroughSimulatedPath(t *testing.T) {
	tr := New(1, LatencyModel{})
	defer tr.Close()
	got := make(chan Message, 1)
	tr.RegisterHandler(0, func(m Message) { got <- m })
	tr.Send(Message{From: 0, To: 0, Kind: Data, Payload: 42})
	select {
	case m := <-got:
		if m.Payload != 42 {
			t.Errorf("payload = %v", m.Payload)
		}
	case <-time.After(time.Second):
		t.Fatal("self-send not delivered")
	}
}

// pingPong runs n control round trips between two workers over tr — the
// reply is sent from the delivery goroutine — and returns every one-way
// flight time, send call to handler entry.
func pingPong(t *testing.T, tr *Mem, n int) []time.Duration {
	t.Helper()
	oneWay := make([]time.Duration, 0, 2*n)
	pong := make(chan struct{}, 1)
	tr.RegisterHandler(1, func(m Message) {
		oneWay = append(oneWay, time.Since(m.Payload.(time.Time)))
		tr.Send(Message{From: 1, To: 0, Kind: Control, Payload: time.Now()})
	})
	tr.RegisterHandler(0, func(m Message) {
		oneWay = append(oneWay, time.Since(m.Payload.(time.Time)))
		pong <- struct{}{}
	})
	for i := 0; i < n; i++ {
		tr.Send(Message{From: 0, To: 1, Kind: Control, Payload: time.Now()})
		select {
		case <-pong: // orders the handlers' appends before the next send
		case <-time.After(10 * time.Second):
			t.Fatalf("round trip %d never completed", i)
		}
	}
	return oneWay
}

func TestWireClockNeverEarlyAndPrecise(t *testing.T) {
	const hop = 50 * time.Microsecond
	tr := New(2, LatencyModel{Propagation: hop})
	defer tr.Close()
	oneWay := pingPong(t, tr, 200)
	for i, d := range oneWay {
		if d < hop {
			t.Fatalf("flight %d took %v: delivered before its %v deadline", i, d, hop)
		}
	}
	if testing.Short() || raceEnabled {
		return // the upper bound is a timing assertion
	}
	sort.Slice(oneWay, func(i, j int) bool { return oneWay[i] < oneWay[j] })
	if med := oneWay[len(oneWay)/2]; med > 250*time.Microsecond {
		t.Errorf("median one-way flight %v for a %v hop: the clock is waiting on a coarse timer", med, hop)
	}
}

func TestWireClockStragglerDelayAndBandwidthShareDeadline(t *testing.T) {
	// 1000 B at 1 MB/s is 1 ms of serialization, plus 200µs propagation,
	// plus the hook's 2 ms straggler delay: one deadline, 3.2 ms out.
	tr := New(2, LatencyModel{Propagation: 200 * time.Microsecond, BytesPerSec: 1e6})
	defer tr.Close()
	tr.SetFaultHook(delayHook(2 * time.Millisecond))
	got := make(chan time.Time, 1)
	tr.RegisterHandler(0, func(Message) {})
	tr.RegisterHandler(1, func(Message) { got <- time.Now() })
	start := time.Now()
	tr.Send(Message{From: 0, To: 1, Kind: Data, Bytes: 1000})
	if d := (<-got).Sub(start); d < 3200*time.Microsecond {
		t.Errorf("delivered after %v, want >= 3.2ms", d)
	}
}

type delayHook time.Duration

func (d delayHook) OnSend(Message) Fate { return Fate{Delay: time.Duration(d)} }
func (delayHook) OnDeliver(Message)     {}

func TestFIFOPerLaneUnderLatency(t *testing.T) {
	// Deadlines on one lane are non-decreasing, and the lane registers only
	// its head with the clock, so order survives any mix of sizes.
	tr := New(2, LatencyModel{Propagation: 20 * time.Microsecond, BytesPerSec: 1e9})
	defer tr.Close()
	tr.RegisterHandler(0, func(Message) {})
	var order []int
	tr.RegisterHandler(1, func(m Message) { order = append(order, m.Payload.(int)) })
	const n = 500
	for i := 0; i < n; i++ {
		tr.Send(Message{From: 0, To: 1, Kind: Data, Bytes: (i * 7919) % 4096, Payload: i})
	}
	tr.WaitIdle()
	if len(order) != n {
		t.Fatalf("delivered %d of %d", len(order), n)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("order[%d] = %d: FIFO violated", i, v)
		}
	}
}

func TestWireClockParksWhenIdle(t *testing.T) {
	tr := New(2, LatencyModel{Propagation: 30 * time.Millisecond})
	defer tr.Close()
	tr.RegisterHandler(0, func(Message) {})
	delivered := make(chan struct{})
	tr.RegisterHandler(1, func(Message) { close(delivered) })

	// Nothing in flight: the clock is parked, not spinning.
	before := tr.clock.spins.Load()
	time.Sleep(10 * time.Millisecond)
	if got := tr.clock.spins.Load(); got != before {
		t.Fatalf("idle clock spun %d times", got-before)
	}

	// A deadline 30 ms out is waited for on the runtime timer; spinning may
	// only start within spinHorizon of it.
	start := time.Now()
	tr.Send(Message{From: 0, To: 1, Kind: Control})
	time.Sleep(10 * time.Millisecond)
	if early := tr.clock.spins.Load() - before; early != 0 && time.Since(start) < 30*time.Millisecond-spinHorizon {
		t.Fatalf("clock spun %d times with its deadline still over 2 ms away", early)
	}
	<-delivered
	tr.WaitIdle()

	// And it parks again once the message is delivered.
	time.Sleep(time.Millisecond)
	before = tr.clock.spins.Load()
	time.Sleep(10 * time.Millisecond)
	if got := tr.clock.spins.Load(); got != before {
		t.Fatalf("clock spun %d times after the transport went idle", got-before)
	}
}

func TestWireClockLivenessOnOneP(t *testing.T) {
	// With a single P the clock's spin must yield: the lanes, the handlers
	// that Send from delivery goroutines, and this test all share that P.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	tr := New(2, LatencyModel{Propagation: 50 * time.Microsecond})
	defer tr.Close()
	pingPong(t, tr, 100) // fails the test if a round trip starves
}

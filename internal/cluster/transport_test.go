package cluster

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

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

// TestStatsAccounting checks Mem's per-kind ledger with no latency model,
// and that Sub of two equal snapshots is zero.
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

// TestWaitIdle checks that WaitIdle waits out Mem's propagation latency,
// not only a fault hook's delay.
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
	if InFlight(tr) != 0 {
		t.Errorf("InFlight = %d after WaitIdle", InFlight(tr))
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
	if want := int64(121 * burstLen); got.Load() != want || InFlight(tr) != 0 {
		t.Errorf("delivered %d of %d, %d in flight", got.Load(), want, InFlight(tr))
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

func TestKindStrings(t *testing.T) {
	for k, want := range map[Kind]string{Data: "data", Control: "control", Ack: "ack"} {
		if k.String() != want {
			t.Errorf("%d.String() = %q", k, k.String())
		}
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

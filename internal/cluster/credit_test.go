package cluster_test

// Credit-flow tests: the Flow window semantics (blocking, oversized
// admission, release clamping, abort/reset), and the end-to-end credit
// protocol on both transport backends — after WaitIdle every ordered
// pair's window must reconcile to zero outstanding bytes, on clean runs
// and on every drop/duplicate/kill path.

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"serialgraph/internal/cluster"
	"serialgraph/internal/metrics"
)

func TestFlowAcquireBlocksAtWindow(t *testing.T) {
	f := cluster.NewFlow(2, 100)
	reg := metrics.New()
	f.SetMetrics(reg)
	f.Acquire(0, 1, 60) // fits
	acquired := make(chan struct{})
	go func() {
		f.Acquire(0, 1, 60) // 120 > 100: must block until credit returns
		close(acquired)
	}()
	select {
	case <-acquired:
		t.Fatal("second Acquire did not block at a full window")
	case <-time.After(50 * time.Millisecond):
	}
	if err := f.CheckBalanced(); err == nil {
		t.Fatal("CheckBalanced accepted a window with outstanding bytes")
	}
	f.Release(0, 1, 60)
	select {
	case <-acquired:
	case <-time.After(5 * time.Second):
		t.Fatal("Acquire still blocked after Release")
	}
	f.Release(0, 1, 60)
	if err := f.CheckBalanced(); err != nil {
		t.Fatalf("balanced flow rejected: %v", err)
	}
	if reg.Get(metrics.CreditWaitNs) == 0 {
		t.Error("blocked Acquire recorded no credit_wait_ns")
	}
}

func TestFlowOversizedAdmission(t *testing.T) {
	// A batch larger than the whole window must be admitted once the lane
	// is empty — blocking it forever would deadlock oversized sends.
	f := cluster.NewFlow(2, 100)
	done := make(chan struct{})
	go func() {
		f.Acquire(0, 1, 5000)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("oversized Acquire on an empty lane blocked")
	}
	f.Release(0, 1, 5000)
	if err := f.CheckBalanced(); err != nil {
		t.Fatalf("after oversized round trip: %v", err)
	}
}

func TestFlowReleaseClampsAtZero(t *testing.T) {
	// At-least-once delivery means duplicate releases: each extra copy of
	// a data message returns credit that was only acquired once. Releases
	// clamp at zero outstanding so granted − released == outstanding
	// stays an exact invariant.
	f := cluster.NewFlow(2, 100)
	f.Acquire(0, 1, 40)
	f.Release(0, 1, 40)
	f.Release(0, 1, 40) // the duplicate
	f.Release(1, 0, 99) // release with no acquire at all
	if err := f.CheckBalanced(); err != nil {
		t.Fatalf("clamped releases broke the invariant: %v", err)
	}
	f.Acquire(0, 1, 40) // the window must still have its full capacity
	f.Release(0, 1, 40)
	if err := f.CheckBalanced(); err != nil {
		t.Fatalf("window corrupted by over-release: %v", err)
	}
}

func TestFlowAbortAndReset(t *testing.T) {
	f := cluster.NewFlow(2, 100)
	f.Acquire(0, 1, 100)
	unblocked := make(chan struct{})
	go func() {
		f.Acquire(0, 1, 100)
		close(unblocked)
	}()
	time.Sleep(20 * time.Millisecond) // let the goroutine park
	f.Abort()
	select {
	case <-unblocked:
	case <-time.After(5 * time.Second):
		t.Fatal("Abort did not unblock a parked Acquire")
	}
	// Aborted flows admit immediately (recovery is tearing down).
	f.Acquire(0, 1, 500)
	f.Reset()
	if err := f.CheckBalanced(); err != nil {
		t.Fatalf("Reset left lanes imbalanced: %v", err)
	}
	// After Reset the window blocks again.
	f.Acquire(0, 1, 100)
	blocked := make(chan struct{})
	go func() {
		f.Acquire(0, 1, 100)
		close(blocked)
	}()
	select {
	case <-blocked:
		t.Fatal("window not re-armed after Reset")
	case <-time.After(50 * time.Millisecond):
	}
	f.Abort() // release the parked goroutine before the test exits
	<-blocked
}

func TestFlowNilSafe(t *testing.T) {
	var f *cluster.Flow
	f.Acquire(0, 1, 10)
	f.Release(0, 1, 10)
	f.Abort()
	f.Reset()
	f.SetMetrics(nil)
	if err := f.CheckBalanced(); err != nil {
		t.Fatalf("nil flow imbalanced: %v", err)
	}
	if f.Window() != 0 {
		t.Fatalf("nil flow window = %d", f.Window())
	}
}

func TestWindowForBudget(t *testing.T) {
	if got := cluster.WindowForBudget(0, 4); got != cluster.DefaultCreditWindow {
		t.Errorf("zero budget window = %d, want default", got)
	}
	if got := cluster.WindowForBudget(1<<30, 4); got != (1<<30)/8 {
		t.Errorf("1GiB/4w window = %d, want %d", got, (1<<30)/8)
	}
	if got := cluster.WindowForBudget(1024, 16); got != 64<<10 {
		t.Errorf("tiny budget window = %d, want the 64KiB floor", got)
	}
}

// runFlowTraffic pushes concurrent multi-sender data traffic (larger
// than the tiny window, so senders must block and recycle credit) plus
// control traffic through tr, then checks the conservation invariant at
// an idle barrier.
func runFlowTraffic(t *testing.T, tr cluster.Transport, n int) {
	t.Helper()
	f := cluster.NewFlow(n, 256)
	tr.SetFlow(f)
	var delivered atomic.Int64
	eps := make([]*cluster.Endpoint, n)
	for w := 0; w < n; w++ {
		eps[w] = cluster.NewEndpoint(tr, cluster.WorkerID(w),
			func(from cluster.WorkerID, payload any) { delivered.Add(1) }, nil)
	}
	const perSender = 50
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perSender; i++ {
				// 100-byte batches against a 256-byte window: at most two
				// may be outstanding per lane, so credit must round-trip
				// for the run to finish at all.
				eps[w].SendData(cluster.WorkerID(i%n), batch(0, float64(i)), 100)
			}
		}()
	}
	wg.Wait()
	tr.WaitIdle()
	if err := f.CheckBalanced(); err != nil {
		t.Fatalf("after idle barrier: %v", err)
	}
	if got := delivered.Load(); got != int64(n*perSender) {
		t.Fatalf("delivered %d of %d", got, n*perSender)
	}
	// A second barrier after more traffic: windows must balance at every
	// barrier, not just the first.
	eps[0].SendData(cluster.WorkerID(n-1), batch(0, 1), 1000) // oversized vs window
	tr.WaitIdle()
	if err := f.CheckBalanced(); err != nil {
		t.Fatalf("after oversized send: %v", err)
	}
}

func TestMemFlowBalancedAtIdle(t *testing.T) {
	tr := cluster.New(3, cluster.LatencyModel{})
	defer tr.Close()
	runFlowTraffic(t, tr, 3)
}

func TestTCPFlowBalancedAtIdle(t *testing.T) {
	tr := newTCP(t, 3)
	defer tr.Close()
	runFlowTraffic(t, tr, 3)
	// Credit frames are real wire traffic: the byte ledger must still
	// balance with grants crossing the sockets in both directions.
	tr.WaitIdle()
	s := tr.Stats().Load()
	if s.WireBytesSent == 0 || s.WireBytesSent != s.WireBytesReceived {
		t.Errorf("wire ledger skewed with credit frames: sent %d received %d",
			s.WireBytesSent, s.WireBytesReceived)
	}
}

// dropEveryOtherHook alternates Drop / DropDelivery / clean on data.
type dropEveryOtherHook struct{ n atomic.Int64 }

func (h *dropEveryOtherHook) OnSend(m cluster.Message) cluster.Fate {
	if m.Kind != cluster.Data {
		return cluster.Fate{}
	}
	switch h.n.Add(1) % 3 {
	case 0:
		return cluster.Fate{Drop: true}
	case 1:
		return cluster.Fate{DropDelivery: true}
	default:
		return cluster.Fate{Duplicates: 1}
	}
}
func (h *dropEveryOtherHook) OnDeliver(cluster.Message) {}

// runFlowFaults drives every loss path — send-time drops, wire losses,
// duplicates, a killed receiver — and requires balanced windows at idle:
// credit acquired by a message that never arrives must still be returned.
func runFlowFaults(t *testing.T, tr cluster.Transport, n int) {
	t.Helper()
	f := cluster.NewFlow(n, 512)
	tr.SetFlow(f)
	tr.SetFaultHook(&dropEveryOtherHook{})
	eps := make([]*cluster.Endpoint, n)
	for w := 0; w < n; w++ {
		eps[w] = cluster.NewEndpoint(tr, cluster.WorkerID(w),
			func(from cluster.WorkerID, payload any) {}, nil)
	}
	for i := 0; i < 60; i++ {
		eps[i%n].SendData(cluster.WorkerID((i+1)%n), batch(0, float64(i)), 100)
	}
	tr.WaitIdle()
	if err := f.CheckBalanced(); err != nil {
		t.Fatalf("after faulty traffic: %v", err)
	}
	// Kill a worker: sends touching it drop at send time, in-flight data
	// to it drops at delivery. Both must return credit.
	tr.Kill(cluster.WorkerID(n - 1))
	for i := 0; i < 20; i++ {
		eps[0].SendData(cluster.WorkerID(n-1), batch(0, float64(i)), 100)
		eps[n-1].SendData(0, batch(0, float64(i)), 100)
	}
	tr.WaitIdle()
	if err := f.CheckBalanced(); err != nil {
		t.Fatalf("after killed-worker traffic: %v", err)
	}
	tr.Revive(cluster.WorkerID(n - 1))
}

func TestMemFlowFaultPathsReleaseCredit(t *testing.T) {
	tr := cluster.New(3, cluster.LatencyModel{})
	defer tr.Close()
	runFlowFaults(t, tr, 3)
}

func TestTCPFlowFaultPathsReleaseCredit(t *testing.T) {
	tr := newTCP(t, 3)
	defer tr.Close()
	runFlowFaults(t, tr, 3)
}

func TestFlowSendAfterCloseReleases(t *testing.T) {
	tr := cluster.New(2, cluster.LatencyModel{})
	f := cluster.NewFlow(2, 256)
	tr.SetFlow(f)
	e0 := cluster.NewEndpoint(tr, 0, func(cluster.WorkerID, any) {}, nil)
	cluster.NewEndpoint(tr, 1, func(cluster.WorkerID, any) {}, nil)
	tr.Close()
	e0.SendData(1, batch(0, 1), 100) // dropped at Send; credit must return
	if err := f.CheckBalanced(); err != nil {
		t.Fatalf("send-after-close leaked credit: %v", err)
	}
}

// TestTCPFlowCreditInvisibleToLedgers pins the accounting contract: the
// credit protocol adds zero messages to the per-kind counters and zero
// drops, so every existing conservation oracle holds bit-for-bit with
// flow control armed.
func TestTCPFlowCreditInvisibleToLedgers(t *testing.T) {
	tr := newTCP(t, 2)
	defer tr.Close()
	f := cluster.NewFlow(2, 1<<20)
	tr.SetFlow(f)
	var delivered atomic.Int64
	e0 := cluster.NewEndpoint(tr, 0, func(cluster.WorkerID, any) {}, nil)
	cluster.NewEndpoint(tr, 1, func(cluster.WorkerID, any) { delivered.Add(1) }, nil)
	for i := 0; i < 10; i++ {
		e0.SendData(1, batch(0, float64(i)), 100)
	}
	tr.WaitIdle()
	s := tr.Stats().Load()
	if s.DataMessages != 10 || s.DataBytes != 1000 {
		t.Errorf("data ledger skewed by credit traffic: %+v", s)
	}
	if s.ControlMessages != 0 || s.AckMessages != 0 || s.DroppedMessages != 0 {
		t.Errorf("credit frames leaked into message ledgers: %+v", s)
	}
	if delivered.Load() != 10 {
		t.Errorf("delivered %d of 10", delivered.Load())
	}
	if err := f.CheckBalanced(); err != nil {
		t.Fatal(err)
	}
	if s.WireBytesSent != s.WireBytesReceived {
		t.Errorf("wire ledger: sent %d != received %d", s.WireBytesSent, s.WireBytesReceived)
	}
}

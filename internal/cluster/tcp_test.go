package cluster_test

// Tests of what only the TCP backend has: control payloads round-tripping
// the production codec over loopback sockets, and the peer barrier of a
// multi-process run. The delivery contract both backends share is tested
// once, on both, in contract_test.go.

import (
	"net"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"serialgraph/internal/chandy"
	"serialgraph/internal/cluster"
	"serialgraph/internal/graph"
	"serialgraph/internal/metrics"
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
	reg := metrics.New()
	cluster.LockSender[chandy.Ctrl](ep, reg)(1, &want)
	if n, bytes := reg.Get(metrics.CtrlMessages), reg.Get(metrics.CtrlBytes); n != 1 || bytes != cluster.CtrlBytes+2*cluster.CtrlEntryBytes {
		t.Errorf("counted %d messages, %d bytes for a batch of 3", n, bytes)
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

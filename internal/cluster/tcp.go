package cluster

// tcp.go is the real-socket transport backend. It keeps the exact
// delivery semantics of the Mem simulator — per-pair FIFO, never-blocking
// Send, inflight accounting for WaitIdle, Kill/Revive drop rules, fault
// hook fidelity — but moves every message through a loopback TCP
// connection as encoded frames:
//
//   - one persistent connection per ordered (sender, receiver) pair,
//     including self-pairs, so a lane is exactly a socket and TCP's
//     byte-stream ordering is the FIFO guarantee;
//   - a writer goroutine per connection that encodes everything queued
//     since its last write into one reused buffer and writes it at once
//     (write coalescing: bursts of batches share one syscall);
//   - a read pump per connection that reads frames into one reused buffer,
//     decodes them sequentially and invokes the receiver's handler,
//     preserving send order;
//   - connection setup with capped-backoff dial retry, and clean
//     shutdown via write-side close so pumps drain to EOF.
//
// Fault injection maps onto the wire: Fate.Duplicates writes the frame
// again (two real frames cross the socket), Fate.DropDelivery sets
// FlagWireLost so the frame crosses the wire and is discarded on arrival,
// and Fate.Delay rides in the frame header and is slept in the read pump
// (head-of-line, matching a Mem lane). The simulated Message.Bytes ledger
// is carried in the frame header and counted exactly as Mem counts it, so
// every conservation contract holds unchanged; true encoded bytes are
// reported separately in Stats.WireBytesSent/WireBytesReceived.

import (
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"serialgraph/internal/metrics"
)

// tcpLane is the sender side of one ordered-pair connection.
type tcpLane struct {
	mu     sync.Mutex
	cond   *sync.Cond
	q      []tcpQueued
	closed bool
	conn   net.Conn
}

type tcpQueued struct {
	msg      Message
	delay    time.Duration
	wireLost bool
}

// TCP is the loopback-socket transport backend.
type TCP struct {
	n        int
	latency  LatencyModel
	codec    PayloadCodec
	handlers []Handler
	stats    Stats
	dead     []atomic.Bool
	hook     FaultHook
	flow     *Flow // optional credit windows; nil when flow control is off
	reg      atomic.Pointer[metrics.Registry]

	inflightMu sync.Mutex
	inflight   int
	idleCond   *sync.Cond

	listeners []net.Listener
	lanes     []*tcpLane // n*n, index from*n+to

	wg     sync.WaitGroup
	closed atomic.Bool
}

var _ Transport = (*TCP)(nil)

// DialRetry dials addr with exponential backoff capped at 250ms until it
// connects or the overall timeout elapses.
func DialRetry(addr string, timeout time.Duration) (net.Conn, error) {
	deadline := time.Now().Add(timeout)
	backoff := time.Millisecond
	for {
		c, err := net.DialTimeout("tcp", addr, timeout)
		if err == nil {
			return c, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("cluster: dial %s: %w", addr, err)
		}
		time.Sleep(backoff)
		if backoff *= 2; backoff > 250*time.Millisecond {
			backoff = 250 * time.Millisecond
		}
	}
}

// helloPayload encodes the connection-opening handshake: protocol
// version, then the dialing lane's (from, to) pair so the accepting side
// can route the connection.
func helloPayload(from, to WorkerID) []byte {
	p := AppendZigzag(nil, ProtocolVersion)
	p = AppendZigzag(p, int64(from))
	p = AppendZigzag(p, int64(to))
	return p
}

func parseHello(f Frame) (from, to WorkerID, err error) {
	if f.Type != FrameHello {
		return 0, 0, fmt.Errorf("cluster: expected hello frame, got type 0x%02x", f.Type)
	}
	b := f.Payload
	ver, n := Zigzag(b)
	if n <= 0 {
		return 0, 0, ErrFrameCorrupt
	}
	b = b[n:]
	if ver != ProtocolVersion {
		return 0, 0, fmt.Errorf("cluster: protocol version mismatch: peer %d, local %d", ver, ProtocolVersion)
	}
	fr, n := Zigzag(b)
	if n <= 0 {
		return 0, 0, ErrFrameCorrupt
	}
	b = b[n:]
	t, n := Zigzag(b)
	if n <= 0 {
		return 0, 0, ErrFrameCorrupt
	}
	return WorkerID(fr), WorkerID(t), nil
}

// NewTCPLoopback creates a TCP transport for n workers, all inside this
// process, connected over 127.0.0.1 sockets. codec encodes and decodes
// frame payloads (the engine passes wire.NewCodec for its message type).
// The latency model is recorded (Latency returns it) but not enforced:
// the real wire provides the timing.
func NewTCPLoopback(n int, latency LatencyModel, codec PayloadCodec) (*TCP, error) {
	if n < 1 {
		panic("cluster: need at least one worker")
	}
	if codec == nil {
		panic("cluster: TCP transport needs a payload codec")
	}
	t := &TCP{
		n:        n,
		latency:  latency,
		codec:    codec,
		handlers: make([]Handler, n),
		dead:     make([]atomic.Bool, n),
		lanes:    make([]*tcpLane, n*n),
	}
	t.idleCond = sync.NewCond(&t.inflightMu)
	for i := range t.lanes {
		l := &tcpLane{}
		l.cond = sync.NewCond(&l.mu)
		t.lanes[i] = l
	}

	t.listeners = make([]net.Listener, n)
	for w := 0; w < n; w++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.teardown()
			return nil, fmt.Errorf("cluster: listen for worker %d: %w", w, err)
		}
		t.listeners[w] = ln
	}

	// Accept side: every listener receives exactly n connections (one per
	// sender, self included). The dialer's hello frame routes each
	// accepted conn to its lane and starts that lane's read pump.
	errCh := make(chan error, 2*n*n)
	var setup sync.WaitGroup
	for w := 0; w < n; w++ {
		setup.Add(1)
		go func(w int) {
			defer setup.Done()
			for k := 0; k < t.n; k++ {
				conn, err := t.listeners[w].Accept()
				if err != nil {
					errCh <- err
					return
				}
				fr := NewFrameReader(conn)
				f, _, err := fr.Read()
				if err != nil {
					conn.Close()
					errCh <- fmt.Errorf("cluster: handshake read: %w", err)
					return
				}
				from, to, err := parseHello(f)
				if err != nil || int(to) != w || from < 0 || int(from) >= t.n {
					conn.Close()
					if err == nil {
						err = fmt.Errorf("cluster: misrouted hello %d->%d at listener %d", from, to, w)
					}
					errCh <- err
					return
				}
				t.wg.Add(1)
				go t.pump(fr)
			}
		}(w)
	}

	// Dial side: connect every ordered pair, with capped-backoff retry.
	for from := 0; from < n; from++ {
		for to := 0; to < n; to++ {
			setup.Add(1)
			go func(from, to int) {
				defer setup.Done()
				conn, err := DialRetry(t.listeners[to].Addr().String(), 5*time.Second)
				if err != nil {
					errCh <- err
					return
				}
				hello := AppendFrame(nil, &Frame{
					Type: FrameHello, From: WorkerID(from), To: WorkerID(to),
					Payload: helloPayload(WorkerID(from), WorkerID(to)),
				})
				if _, err := conn.Write(hello); err != nil {
					conn.Close()
					errCh <- err
					return
				}
				l := t.lanes[from*n+to]
				l.mu.Lock()
				l.conn = conn
				l.mu.Unlock()
			}(from, to)
		}
	}
	setup.Wait()
	select {
	case err := <-errCh:
		t.teardown()
		return nil, err
	default:
	}
	for _, l := range t.lanes {
		t.wg.Add(1)
		go t.writer(l)
	}
	return t, nil
}

// teardown releases sockets after a failed construction.
func (t *TCP) teardown() {
	for _, ln := range t.listeners {
		if ln != nil {
			ln.Close()
		}
	}
	for _, l := range t.lanes {
		if l != nil && l.conn != nil {
			l.conn.Close()
		}
	}
}

// SetMetrics points the transport at a metrics registry; the writer and
// pump goroutines then record wire_encode_ns / wire_decode_ns /
// wire_flush_ns phase time. Call it before traffic flows.
func (t *TCP) SetMetrics(reg *metrics.Registry) { t.reg.Store(reg) }

// NumWorkers returns the cluster size.
func (t *TCP) NumWorkers() int { return t.n }

// Latency returns the configured (reported, not enforced) latency model.
func (t *TCP) Latency() LatencyModel { return t.latency }

// Stats returns the traffic counters.
func (t *TCP) Stats() *Stats { return &t.stats }

// RegisterHandler installs the delivery callback for worker w.
func (t *TCP) RegisterHandler(w WorkerID, h Handler) {
	if t.handlers[w] != nil {
		panic(fmt.Sprintf("cluster: handler for worker %d registered twice", w))
	}
	t.handlers[w] = h
}

// SetFaultHook installs a fault-injection hook. It must be called before
// any traffic flows.
func (t *TCP) SetFaultHook(h FaultHook) { t.hook = h }

// SetFlow attaches the credit windows senders acquired against and arms
// the credit protocol: for every data frame a pump consumes it sends a
// Credit frame back on the reverse lane, and receiving a Credit frame
// releases the original sender's window. Must be set before any traffic
// flows.
func (t *TCP) SetFlow(f *Flow) { t.flow = f }

// releaseCredit returns m's window bytes directly for a data message
// dropped on the sender's side, before any frame crossed the wire.
func (t *TCP) releaseCredit(m Message) {
	if m.Kind == Data {
		t.flow.Release(m.From, m.To, m.Bytes)
	}
}

// Kill marks worker w as crashed; see (*Mem).Kill for the semantics.
func (t *TCP) Kill(w WorkerID) { t.dead[w].Store(true) }

// Revive clears worker w's crash flag.
func (t *TCP) Revive(w WorkerID) { t.dead[w].Store(false) }

// Alive reports whether worker w is not currently killed.
func (t *TCP) Alive(w WorkerID) bool { return !t.dead[w].Load() }

// DeadWorkers returns the IDs of all currently killed workers.
func (t *TCP) DeadWorkers() []WorkerID {
	var dead []WorkerID
	for w := range t.dead {
		if t.dead[w].Load() {
			dead = append(dead, WorkerID(w))
		}
	}
	return dead
}

// Send enqueues m for transmission. Semantics match (*Mem).Send exactly:
// it never blocks, and sends after Close, data sends touching a killed
// worker, and hook-dropped sends are discarded and counted.
func (t *TCP) Send(m Message) {
	if m.From < 0 || int(m.From) >= t.n || m.To < 0 || int(m.To) >= t.n {
		panic(fmt.Sprintf("cluster: bad endpoints %d->%d", m.From, m.To))
	}
	if t.closed.Load() {
		t.stats.DroppedMessages.Add(1)
		t.releaseCredit(m)
		return
	}
	if m.Kind == Data && (t.dead[m.From].Load() || t.dead[m.To].Load()) {
		t.stats.DroppedMessages.Add(1)
		t.releaseCredit(m)
		return
	}
	var fate Fate
	if t.hook != nil {
		fate = t.hook.OnSend(m)
		if fate.Drop {
			t.stats.DroppedMessages.Add(1)
			t.releaseCredit(m)
			return
		}
	}
	for c := 0; c <= fate.Duplicates; c++ {
		t.enqueue(m, fate.Delay, fate.DropDelivery)
	}
}

// enqueue places one copy of m on its lane's write queue, counting it as
// traffic, or counts a drop if the lane is already closed. The closed
// check runs under the lane lock so a Send racing Close can never strand
// an in-flight count after the writer exits.
func (t *TCP) enqueue(m Message, extraDelay time.Duration, wireLost bool) {
	l := t.lanes[int(m.From)*t.n+int(m.To)]
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		t.stats.DroppedMessages.Add(1)
		t.releaseCredit(m)
		return
	}
	switch m.Kind {
	case Data:
		t.stats.DataMessages.Add(1)
		t.stats.DataBytes.Add(int64(m.Bytes))
	case Control:
		t.stats.ControlMessages.Add(1)
		t.stats.ControlBytes.Add(int64(m.Bytes))
	case Ack:
		t.stats.AckMessages.Add(1)
	}
	t.inflightMu.Lock()
	t.inflight++
	t.inflightMu.Unlock()
	l.q = append(l.q, tcpQueued{m, extraDelay, wireLost})
	l.cond.Signal()
	l.mu.Unlock()
}

// enqueueCredit queues a Credit frame returning bytes of window from
// granter (the worker whose pump consumed a data frame) back to sender.
// Credit is transport-level traffic: it rides a real frame on the
// (granter, sender) lane — so WireBytesSent/Received stay a balanced
// ledger — but is invisible to the per-kind message counters and the
// drop ledger, which the engine's conservation checks pin exactly. It
// does count as in flight, so WaitIdle cannot return while a grant (and
// therefore a window imbalance) is still on the wire. If the reverse
// lane is already closed the window is released directly: the run is
// tearing down and the sender must still be unblocked.
func (t *TCP) enqueueCredit(granter, sender WorkerID, bytes int) {
	l := t.lanes[int(granter)*t.n+int(sender)]
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		t.flow.Release(sender, granter, bytes)
		return
	}
	t.inflightMu.Lock()
	t.inflight++
	t.inflightMu.Unlock()
	l.q = append(l.q, tcpQueued{msg: Message{
		From: granter, To: sender, Kind: Control,
		Payload: CreditGrant{Bytes: int64(bytes)},
	}})
	l.cond.Signal()
	l.mu.Unlock()
}

// TestHookAfterFlush, nil outside tests, runs in a lane writer between
// putting a burst on the socket and recording that write's time.
var TestHookAfterFlush func()

// writer drains one lane's queue onto its socket. Everything queued while
// the previous burst was being written is encoded into buffers the writer
// owns and reuses (scratch for one payload, buf for the burst's frames) and
// goes out in one write — the write-coalescing path. Once encoded a payload
// is dead to the transport (the codec may recycle it; see PayloadCodec).
func (t *TCP) writer(l *tcpLane) {
	defer t.wg.Done()
	var buf, scratch []byte
	var batch []tcpQueued
	for {
		l.mu.Lock()
		for len(l.q) == 0 && !l.closed {
			l.cond.Wait()
		}
		if len(l.q) == 0 {
			l.mu.Unlock()
			break
		}
		batch, l.q = l.q, batch[:0] // swap queues: no allocation in steady state
		l.mu.Unlock()

		reg := t.reg.Load()
		start := time.Now()
		buf = buf[:0]
		for i := range batch {
			q := &batch[i]
			f := Frame{From: q.msg.From, To: q.msg.To, Declared: q.msg.Bytes, Delay: q.delay}
			if q.wireLost {
				f.Flags |= FlagWireLost
			}
			var err error
			if f.Type, scratch, err = t.codec.EncodePayload(q.msg.Payload, scratch[:0]); err != nil {
				panic(fmt.Sprintf("cluster: cannot encode %d->%d payload: %v", q.msg.From, q.msg.To, err))
			}
			f.Payload = scratch
			buf = AppendFrame(buf, &f)
			q.msg.Payload = nil // the reused queue slot must not pin it
		}
		flushStart := time.Now()
		if reg != nil {
			reg.AddPhase(metrics.PhaseWireEncode, flushStart.Sub(start))
		}
		// Counted before the write so a receiver that races ahead can
		// never observe received > sent.
		t.stats.WireBytesSent.Add(int64(len(buf)))
		if _, err := l.conn.Write(buf); err != nil {
			panic(fmt.Sprintf("cluster: lane %d->%d write: %v", batch[0].msg.From, batch[0].msg.To, err))
		}
		if TestHookAfterFlush != nil {
			TestHookAfterFlush()
		}
		if reg != nil {
			reg.AddPhase(metrics.PhaseWireFlush, time.Since(flushStart))
		}
	}
	if tc, ok := l.conn.(*net.TCPConn); ok {
		tc.CloseWrite() // EOF to the peer's read pump once drained
	} else {
		l.conn.Close()
	}
}

// pump is the read side of one connection: it decodes frames in stream
// order and delivers them, mirroring a Mem lane's deliver goroutine
// (including head-of-line straggler sleeps and wire-loss drops).
func (t *TCP) pump(fr *FrameReader) {
	defer t.wg.Done()
	for {
		f, wireBytes, err := fr.Read()
		if err != nil {
			// EOF after the peer's write-side close: the lane is drained.
			return
		}
		t.stats.WireBytesReceived.Add(int64(wireBytes))
		if f.Type == FrameCredit {
			// Transport-level credit return: release the original data
			// sender's (f.To → f.From) window and consume the frame here —
			// it never reaches a handler or the per-kind ledger.
			n, k := binary.Uvarint(f.Payload)
			if k <= 0 {
				panic(fmt.Sprintf("cluster: corrupt credit frame %d->%d", f.From, f.To))
			}
			t.flow.Release(f.To, f.From, int(n))
			t.inflightMu.Lock()
			t.inflight--
			if t.inflight == 0 {
				t.idleCond.Broadcast()
			}
			t.inflightMu.Unlock()
			continue
		}
		reg := t.reg.Load()
		start := time.Now()
		payload, err := t.codec.DecodePayload(f.Type, f.Payload)
		if err != nil {
			panic(fmt.Sprintf("cluster: corrupt %d->%d frame type 0x%02x: %v", f.From, f.To, f.Type, err))
		}
		if reg != nil {
			reg.AddPhase(metrics.PhaseWireDecode, time.Since(start))
		}
		m := Message{From: f.From, To: f.To, Kind: KindOfFrame(f.Type), Bytes: f.Declared, Payload: payload}
		if f.Delay > 0 {
			time.Sleep(f.Delay)
		}
		if f.Flags&FlagWireLost != 0 || (m.Kind == Data && t.dead[m.To].Load()) {
			t.stats.DroppedMessages.Add(1)
		} else {
			if h := t.handlers[m.To]; h != nil {
				h(m)
			}
			if t.hook != nil {
				t.hook.OnDeliver(m)
			}
		}
		// The frame crossed the wire and is consumed either way
		// (delivered or lost): return its window. The grant is queued
		// before this frame's in-flight count drops, so WaitIdle holds
		// until the credit lands and the windows balance.
		if m.Kind == Data && t.flow != nil {
			t.enqueueCredit(m.To, m.From, m.Bytes)
		}
		t.inflightMu.Lock()
		t.inflight--
		if t.inflight == 0 {
			t.idleCond.Broadcast()
		}
		t.inflightMu.Unlock()
	}
}

// WaitIdle blocks until no messages are in flight anywhere: queued,
// buffered in a socket, or mid-delivery.
func (t *TCP) WaitIdle() {
	t.inflightMu.Lock()
	for t.inflight > 0 {
		t.idleCond.Wait()
	}
	t.inflightMu.Unlock()
}

// InFlight returns the number of undelivered messages.
func (t *TCP) InFlight() int {
	t.inflightMu.Lock()
	defer t.inflightMu.Unlock()
	return t.inflight
}

// Close drains all lanes and shuts the sockets down. Writers flush their
// queues and close the write side; read pumps consume to EOF, so every
// accepted message is delivered (or counted dropped) before Close
// returns. Sends after Close are dropped and counted.
func (t *TCP) Close() {
	if !t.closed.CompareAndSwap(false, true) {
		return
	}
	for _, l := range t.lanes {
		l.mu.Lock()
		l.closed = true
		l.cond.Signal()
		l.mu.Unlock()
	}
	t.wg.Wait()
	for _, ln := range t.listeners {
		ln.Close()
	}
	for _, l := range t.lanes {
		l.conn.Close()
	}
}

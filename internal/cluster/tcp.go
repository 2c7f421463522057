package cluster

// tcp.go is the real-socket transport backend. The delivery contract —
// never-blocking Send, the drop rules, the byte ledger, in-flight
// accounting for WaitIdle — is core's (core.go), shared with Mem; TCP is
// only the wire, moving every message through a TCP connection as encoded
// frames:
//
//   - one persistent connection per ordered (sender, receiver) pair,
//     including self-pairs, so a lane is exactly a socket and TCP's
//     byte-stream ordering is the FIFO guarantee. A loopback transport
//     (NewTCPLoopback) hosts every worker and so every lane; a peer
//     transport (NewTCPPeer) hosts one worker of a multi-process run and
//     only the lanes into and out of it. Both connect through connectRow;
//     a peer ends a superstep with Barrier, because the in-flight count
//     WaitIdle relies on cannot see other processes;
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
// (head-of-line, matching a Mem lane). The sender's Message.Bytes rides in
// the frame header and is counted by core.accept on the sending side, as on
// Mem, so every conservation contract holds unchanged; true encoded bytes
// are reported separately in Stats.WireBytesSent/WireBytesReceived.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"slices"
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

// inLane is the receiving side of one connection, routed by its hello.
type inLane struct {
	conn net.Conn
	fr   *FrameReader
	from WorkerID
}

// TCP is the socket transport backend.
type TCP struct {
	core
	// me is the one worker a peer transport (NewTCPPeer) hosts; -1 on a
	// loopback transport, which hosts them all.
	me    int
	codec PayloadCodec
	reg   atomic.Pointer[metrics.Registry]

	// Barrier state of a peer transport: barGen counts the barriers this
	// worker has sent, barSeen[j] is the last one received from worker j and
	// barDown[j] marks an inbound lane whose pump has exited.
	barGen  uint64
	barMu   sync.Mutex
	barCond sync.Cond
	barSeen []uint64
	barDown []bool

	listeners []net.Listener
	lanes     []*tcpLane // n*n, index from*n+to; nil where the sender is in another process

	wg sync.WaitGroup
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

func newTCP(n, me int, codec PayloadCodec) *TCP {
	if codec == nil {
		panic("cluster: TCP transport needs a payload codec")
	}
	t := &TCP{me: me, codec: codec}
	t.init(n, t.enqueue)
	t.lanes = make([]*tcpLane, n*n)
	t.barCond.L = &t.barMu
	for i := range t.lanes {
		if me < 0 || i/n == me {
			l := &tcpLane{}
			l.cond = sync.NewCond(&l.mu)
			t.lanes[i] = l
		}
	}
	return t
}

// NewTCPLoopback creates a TCP transport for n workers, all inside this
// process, connected over 127.0.0.1 sockets. codec encodes and decodes
// frame payloads (the engine passes wire.NewCodec for its message type).
// The latency model is not enforced over sockets: the real wire provides
// the timing.
func NewTCPLoopback(n int, _ LatencyModel, codec PayloadCodec) (*TCP, error) {
	t := newTCP(n, -1, codec)
	addrs := make([]string, n)
	for w := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.teardown()
			return nil, fmt.Errorf("cluster: listen for worker %d: %w", w, err)
		}
		t.listeners = append(t.listeners, ln)
		addrs[w] = ln.Addr().String()
	}
	ins := make([][]inLane, n)
	errs := make([]error, n)
	var rows sync.WaitGroup
	for w := range addrs {
		rows.Add(1)
		go func() {
			defer rows.Done()
			ins[w], errs[w] = t.connectRow(w, t.listeners[w], addrs, 5*time.Second)
		}()
	}
	rows.Wait()
	return t.start(slices.Concat(ins...), errors.Join(errs...))
}

// NewTCPPeer creates the transport of worker me of an n-worker cluster
// whose workers run in separate processes: it connects only this worker's
// row of lanes, dialing me→j at addrs[j] and accepting j→me on ln, which it
// takes over. Such a transport hosts one handler (me's) and ends a
// superstep with Barrier instead of WaitIdle. Dials retry and accepts wait
// up to timeout, so the processes may start in any order.
func NewTCPPeer(n, me int, ln net.Listener, addrs []string, codec PayloadCodec, timeout time.Duration) (*TCP, error) {
	if me < 0 || me >= n || len(addrs) != n {
		return nil, fmt.Errorf("cluster: peer %d of %d workers with %d addresses", me, n, len(addrs))
	}
	t := newTCP(n, me, codec)
	t.barSeen = make([]uint64, n)
	t.barDown = make([]bool, n)
	t.listeners = []net.Listener{ln}
	return t.start(t.connectRow(me, ln, addrs, timeout))
}

// connectRow connects worker me's row of lanes, self-lane included: it
// dials me→j at addrs[j] for every j, opening each connection with a hello
// frame that names its lane, and accepts the n lanes j→me on ln, routing
// each by its hello.
func (t *TCP) connectRow(me int, ln net.Listener, addrs []string, timeout time.Duration) ([]inLane, error) {
	var dialErr error
	dialed := make(chan struct{})
	go func() {
		defer close(dialed)
		for to := range addrs {
			conn, err := DialRetry(addrs[to], timeout)
			if err != nil {
				dialErr = err
				return
			}
			hello := AppendFrame(nil, &Frame{
				Type: FrameHello, From: WorkerID(me), To: WorkerID(to),
				Payload: helloPayload(WorkerID(me), WorkerID(to)),
			})
			if _, err := conn.Write(hello); err != nil {
				conn.Close()
				dialErr = err
				return
			}
			t.lanes[me*t.n+to].conn = conn
		}
	}()
	// A peer that never dials in must not wedge Accept forever.
	if tl, ok := ln.(*net.TCPListener); ok {
		tl.SetDeadline(time.Now().Add(timeout))
		defer tl.SetDeadline(time.Time{})
	}
	var in []inLane
	seen := make([]bool, t.n)
	for len(in) < t.n {
		conn, err := ln.Accept()
		if err != nil {
			<-dialed
			return in, fmt.Errorf("cluster: accept lane to worker %d: %w", me, err)
		}
		fr := NewFrameReader(conn)
		f, _, err := fr.Read()
		var from, to WorkerID
		if err == nil {
			from, to, err = parseHello(f)
		}
		if err == nil && (int(to) != me || from < 0 || int(from) >= t.n || seen[from]) {
			err = fmt.Errorf("cluster: misrouted hello %d->%d at worker %d", from, to, me)
		}
		if err != nil {
			conn.Close()
			<-dialed
			return in, fmt.Errorf("cluster: handshake: %w", err)
		}
		seen[from] = true
		in = append(in, inLane{conn: conn, fr: fr, from: from})
	}
	<-dialed
	return in, dialErr
}

// start launches the pumps and lane writers of a connected transport, or
// releases every socket of one whose setup failed.
func (t *TCP) start(in []inLane, err error) (*TCP, error) {
	if err != nil {
		for _, c := range in {
			c.conn.Close()
		}
		t.teardown()
		return nil, err
	}
	for _, c := range in {
		t.wg.Add(1)
		go t.pump(c)
	}
	for _, l := range t.lanes {
		if l != nil {
			t.wg.Add(1)
			go t.writer(l)
		}
	}
	return t, nil
}

// teardown closes the listeners and the dialed sockets: at the end of
// Close, or after a failed construction.
func (t *TCP) teardown() {
	for _, ln := range t.listeners {
		ln.Close()
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

// Send enqueues m for transmission (see core.Send). A peer transport
// carries only its own worker's traffic.
func (t *TCP) Send(m Message) {
	if t.me >= 0 && int(m.From) != t.me {
		panic(fmt.Sprintf("cluster: bad endpoints %d->%d", m.From, m.To))
	}
	t.core.Send(m)
}

// enqueue places one copy of m on its lane's write queue, or drops it if
// the lane is already closed.
func (t *TCP) enqueue(m Message, delay time.Duration, wireLost bool) {
	l := t.lanes[int(m.From)*t.n+int(m.To)]
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		t.drop()
		return
	}
	t.accept(m)
	l.q = append(l.q, tcpQueued{m, delay, wireLost})
	l.cond.Signal()
	l.mu.Unlock()
}

// push queues a transport-level barrier frame on the lane from→to: in
// flight like any frame, so it crosses the wire and the true wire-byte
// counters see it, but outside the per-kind counters. Nothing is queued
// once the lane is closed.
func (t *TCP) push(from, to WorkerID, payload any) {
	l := t.lanes[int(from)*t.n+int(to)]
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return
	}
	t.Hold()
	l.q = append(l.q, tcpQueued{msg: Message{From: from, To: to, Kind: Control, Payload: payload}})
	l.cond.Signal()
}

// Barrier ends a superstep on a peer transport, where it stands in for
// WaitIdle: it queues one barrier frame on every lane to another worker,
// behind everything already sent there, and returns once one has arrived
// on every lane from another worker. A pump applies its lane's frames in
// order, so when Barrier returns every data frame any peer sent before
// its barrier has been applied. It fails if an inbound lane closed first.
func (t *TCP) Barrier() error {
	t.barGen++
	for to := 0; to < t.n; to++ {
		if to != t.me {
			t.push(WorkerID(t.me), WorkerID(to), BarrierMarker{Seq: t.barGen})
		}
	}
	t.barMu.Lock()
	defer t.barMu.Unlock()
	for {
		waiting := false
		for from, seen := range t.barSeen {
			if from == t.me || seen >= t.barGen {
				continue
			}
			if t.barDown[from] {
				return fmt.Errorf("cluster: lane from worker %d closed before barrier %d", from, t.barGen)
			}
			waiting = true
		}
		if !waiting {
			return nil
		}
		t.barCond.Wait()
	}
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
// (including head-of-line straggler sleeps and wire-loss drops). Barrier
// frames end here too; on a peer transport an exiting pump marks its lane
// down, so a Barrier waiting on it fails instead of hanging.
func (t *TCP) pump(c inLane) {
	defer t.wg.Done()
	defer c.conn.Close()
	if t.barDown != nil {
		defer func() {
			t.barMu.Lock()
			t.barDown[c.from] = true
			t.barCond.Broadcast()
			t.barMu.Unlock()
		}()
	}
	for {
		f, wireBytes, err := c.fr.Read()
		if err != nil {
			// EOF after the peer's write-side close: the lane is drained.
			return
		}
		t.stats.WireBytesReceived.Add(int64(wireBytes))
		if f.Type == FrameBarrier {
			seq, k := binary.Uvarint(f.Payload)
			if k <= 0 || t.barSeen == nil {
				panic(fmt.Sprintf("cluster: unexpected barrier frame %d->%d", f.From, f.To))
			}
			t.barMu.Lock()
			t.barSeen[c.from] = seq
			t.barCond.Broadcast()
			t.barMu.Unlock()
			t.Release()
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
		t.deliver(m, f.Flags&FlagWireLost != 0)
		t.Release()
	}
}

// Close drains all lanes and shuts the sockets down. Writers flush their
// queues and close the write side; read pumps consume to EOF, so every
// accepted message is delivered (or counted dropped) before Close
// returns — on a peer transport, once every peer has closed too. Sends
// after Close are dropped and counted.
func (t *TCP) Close() {
	if !t.closed.CompareAndSwap(false, true) {
		return
	}
	for _, l := range t.lanes {
		if l == nil {
			continue
		}
		l.mu.Lock()
		l.closed = true
		l.cond.Signal()
		l.mu.Unlock()
	}
	t.wg.Wait()
	t.teardown()
}

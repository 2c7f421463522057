// Package cluster connects the workers of a shared-nothing cluster. Two
// backends implement the same Transport interface:
//
//   - Mem (the default, returned by New) simulates the network inside a
//     single process: workers are goroutines, all inter-worker traffic
//     flows through per-(sender, receiver) FIFO lanes that impose
//     propagation latency and serialization (bandwidth) delay.
//   - TCP (returned by NewTCPLoopback) moves the same traffic over real
//     TCP sockets with a length-prefixed binary frame codec, per-peer
//     persistent connections, write coalescing, and read pumps.
//
// Both preserve FIFO order per (sender, receiver) pair — as TCP does
// between two Giraph workers — and count every message and byte.
//
// The paper's evaluation is entirely about the communication/parallelism
// trade-off of synchronization techniques, so the transport makes both
// measurable: wall-clock computation time includes simulated network
// delays, and Stats exposes message/byte/flush counts per traffic class.
package cluster

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// WorkerID identifies a simulated worker machine: 0 <= id < NumWorkers.
type WorkerID int32

// Kind classifies traffic for accounting.
type Kind uint8

const (
	// Data messages carry vertex messages (remote replica updates).
	Data Kind = iota
	// Control messages carry forks, tokens, barriers, and flush markers.
	Control
	// Ack messages confirm delivery of a flush.
	Ack
)

func (k Kind) String() string {
	switch k {
	case Data:
		return "data"
	case Control:
		return "control"
	case Ack:
		return "ack"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Message is a unit of simulated network traffic.
type Message struct {
	From, To WorkerID
	Kind     Kind
	Bytes    int // simulated wire size
	Payload  any
}

// LatencyModel describes the simulated network.
type LatencyModel struct {
	// Propagation is the one-way delay added to every message.
	Propagation time.Duration
	// BytesPerSec is per-lane bandwidth; 0 means infinite.
	BytesPerSec float64
}

// Delay returns the serialization time for a message of the given size.
func (l LatencyModel) serialization(bytes int) time.Duration {
	if l.BytesPerSec <= 0 {
		return 0
	}
	return time.Duration(float64(bytes) / l.BytesPerSec * float64(time.Second))
}

// Handler receives delivered messages. Handlers for one (sender, receiver)
// pair run sequentially in send order; handlers for different pairs run
// concurrently. A handler may call Send.
type Handler func(m Message)

// Fate is a fault hook's verdict on one message.
type Fate struct {
	// Drop discards the message; it is counted in DroppedMessages and
	// never delivered.
	Drop bool
	// DropDelivery loses the message on the wire instead: it is counted as
	// sent in the per-kind counters (the sender paid for it) but is
	// discarded at delivery time and counted in DroppedMessages, like a
	// message whose receiver died in flight. This is the only way to lose
	// control traffic without skewing the send-side control ledger, which
	// the metrics conservation checks reconcile exactly.
	DropDelivery bool
	// Duplicates enqueues this many extra copies (at-least-once delivery).
	Duplicates int
	// Delay adds straggler latency on top of the latency model.
	Delay time.Duration
}

// FaultHook intercepts transport traffic for fault injection. OnSend runs
// on the sender's goroutine before a message is enqueued and returns its
// fate; OnDeliver runs on the delivery goroutine after a message has been
// handed to its handler. Implementations must be safe for concurrent use.
type FaultHook interface {
	OnSend(m Message) Fate
	OnDeliver(m Message)
}

// Stats holds cumulative traffic counters. All fields are atomically
// updated and may be read while the transport is active.
type Stats struct {
	DataMessages    atomic.Int64
	DataBytes       atomic.Int64
	ControlMessages atomic.Int64
	ControlBytes    atomic.Int64
	AckMessages     atomic.Int64
	// DroppedMessages counts messages discarded instead of delivered:
	// sends after Close, traffic to or from killed workers, and drops
	// injected by a fault hook. Messages dropped at send time are not
	// counted in the per-kind counters above; a message lost on the wire
	// (its receiver died in flight) was already counted when sent and
	// additionally counts here.
	DroppedMessages atomic.Int64
	// WireBytesSent/WireBytesReceived count true encoded frame bytes on
	// the wire, including frame headers. The Mem backend leaves them zero
	// (its byte ledger is the simulated per-kind counters above); the TCP
	// backend fills them in alongside the simulated counters, so the
	// conservation contracts over DataBytes/ControlBytes hold unchanged on
	// either backend.
	WireBytesSent     atomic.Int64
	WireBytesReceived atomic.Int64
}

// Snapshot is a plain-value copy of Stats.
type Snapshot struct {
	DataMessages, DataBytes       int64
	ControlMessages, ControlBytes int64
	AckMessages                   int64
	DroppedMessages               int64
	WireBytesSent                 int64
	WireBytesReceived             int64
}

// Load copies the counters.
func (s *Stats) Load() Snapshot {
	return Snapshot{
		DataMessages: s.DataMessages.Load(), DataBytes: s.DataBytes.Load(),
		ControlMessages: s.ControlMessages.Load(), ControlBytes: s.ControlBytes.Load(),
		AckMessages:       s.AckMessages.Load(),
		DroppedMessages:   s.DroppedMessages.Load(),
		WireBytesSent:     s.WireBytesSent.Load(),
		WireBytesReceived: s.WireBytesReceived.Load(),
	}
}

// Sub returns s - o, the traffic between two snapshots.
func (s Snapshot) Sub(o Snapshot) Snapshot {
	return Snapshot{
		DataMessages: s.DataMessages - o.DataMessages, DataBytes: s.DataBytes - o.DataBytes,
		ControlMessages: s.ControlMessages - o.ControlMessages, ControlBytes: s.ControlBytes - o.ControlBytes,
		AckMessages:       s.AckMessages - o.AckMessages,
		DroppedMessages:   s.DroppedMessages - o.DroppedMessages,
		WireBytesSent:     s.WireBytesSent - o.WireBytesSent,
		WireBytesReceived: s.WireBytesReceived - o.WireBytesReceived,
	}
}

// TotalMessages is the sum of all message counters.
func (s Snapshot) TotalMessages() int64 { return s.DataMessages + s.ControlMessages + s.AckMessages }

// lane is the FIFO link for one (sender, receiver) pair.
type lane struct {
	mu         sync.Mutex
	q          []timed
	cond       *sync.Cond
	lastDepart time.Time
	closed     bool
	wake       chan struct{} // the wire clock's wake-up for this lane's head-of-line wait
}

type timed struct {
	msg       Message
	deliverAt time.Time
	wireLost  bool // discard at delivery time (Fate.DropDelivery)
}

// Transport is the wire connecting n workers. The engine, message stores,
// Chandy–Misra managers, and fault injector are written against this
// interface so the simulated in-process backend (Mem) and the real TCP
// backend (TCP) are interchangeable.
//
// Semantics every backend must provide:
//
//   - FIFO delivery per (sender, receiver) pair; handlers for one pair run
//     sequentially in send order, different pairs concurrently.
//   - Send never blocks and never delivers inline on the caller.
//   - A message is "in flight" from the moment Send accepts it until its
//     handler returns (or it is counted dropped); WaitIdle blocks until no
//     messages are in flight.
//   - Kill/Revive dead-worker semantics and Stats drop accounting exactly
//     as documented on Mem's methods.
type Transport interface {
	// NumWorkers returns the cluster size.
	NumWorkers() int
	// Latency returns the configured latency model. The Mem backend
	// enforces it; the TCP backend reports it but lets the real wire set
	// the timing.
	Latency() LatencyModel
	// Stats returns the live traffic counters.
	Stats() *Stats
	// RegisterHandler installs the delivery callback for worker w. It must
	// be called for every worker before any Send, and panics if a worker
	// is registered twice.
	RegisterHandler(w WorkerID, h Handler)
	// SetFaultHook installs a fault-injection hook; it must be called
	// before any traffic flows.
	SetFaultHook(h FaultHook)
	// Kill marks worker w as crashed; Revive clears the flag.
	Kill(w WorkerID)
	Revive(w WorkerID)
	// Alive reports whether worker w is not currently killed.
	Alive(w WorkerID) bool
	// DeadWorkers returns the IDs of all currently killed workers.
	DeadWorkers() []WorkerID
	// Send enqueues m for delivery. It never blocks.
	Send(m Message)
	// WaitIdle blocks until no messages are in flight.
	WaitIdle()
	// InFlight returns the number of undelivered messages.
	InFlight() int
	// Close shuts the backend down, draining in-flight traffic. It is
	// idempotent; sends after Close are dropped and counted.
	Close()
}

// Mem is the in-process simulated backend: per-pair FIFO lanes with
// modeled propagation latency and serialization delay.
type Mem struct {
	n        int
	latency  LatencyModel
	handlers []Handler
	lanes    []*lane // n*n, index from*n+to
	stats    Stats
	dead     []atomic.Bool // per-worker crash flags
	hook     FaultHook     // set before any traffic; nil when faults are off
	flow     *Flow         // optional credit windows; nil when flow control is off

	inflightMu sync.Mutex
	inflight   int
	idleCond   *sync.Cond

	// clock is the transport's one wire clock (clock.go): lanes wait for
	// their head-of-line deliverAt on it instead of calling time.Sleep.
	clock *wireClock

	wg     sync.WaitGroup
	closed atomic.Bool
}

var _ Transport = (*Mem)(nil)

// New creates an in-process simulated transport for n workers with the
// given latency model. RegisterHandler must be called for every worker
// before any Send.
func New(n int, latency LatencyModel) *Mem {
	if n < 1 {
		panic("cluster: need at least one worker")
	}
	t := &Mem{
		n:        n,
		latency:  latency,
		handlers: make([]Handler, n),
		lanes:    make([]*lane, n*n),
		dead:     make([]atomic.Bool, n),
	}
	t.idleCond = sync.NewCond(&t.inflightMu)
	t.clock = newWireClock(n * n) // at most one deadline per lane
	for i := range t.lanes {
		l := &lane{wake: make(chan struct{}, 1)}
		l.cond = sync.NewCond(&l.mu)
		t.lanes[i] = l
		t.wg.Add(1)
		go t.deliver(l)
	}
	return t
}

// NumWorkers returns the cluster size.
func (t *Mem) NumWorkers() int { return t.n }

// Latency returns the latency model in use.
func (t *Mem) Latency() LatencyModel { return t.latency }

// Stats returns the traffic counters.
func (t *Mem) Stats() *Stats { return &t.stats }

// RegisterHandler installs the delivery callback for worker w.
func (t *Mem) RegisterHandler(w WorkerID, h Handler) {
	if t.handlers[w] != nil {
		panic(fmt.Sprintf("cluster: handler for worker %d registered twice", w))
	}
	t.handlers[w] = h
}

// SetFaultHook installs a fault-injection hook. It must be called before
// any traffic flows (the engine attaches it right after New, before
// workers start).
func (t *Mem) SetFaultHook(h FaultHook) { t.hook = h }

// SetFlow attaches the credit windows senders acquired against, so the
// backend can return credit the moment a data message leaves its lane —
// delivered or dropped. Must be set before any traffic flows.
func (t *Mem) SetFlow(f *Flow) { t.flow = f }

// releaseCredit returns m's window bytes for a data message that is done
// (delivered, or dropped anywhere on its path). Credit acquired in
// Endpoint.SendData must be returned on every exit path or senders would
// park forever on a window that never refills.
func (t *Mem) releaseCredit(m Message) {
	if m.Kind == Data {
		t.flow.Release(m.From, m.To, m.Bytes)
	}
}

// Kill marks worker w as crashed. From then on the worker's data traffic
// is lost — data messages sent by or addressed to it are dropped (and
// counted in DroppedMessages), and in-flight data messages addressed to
// it are discarded at delivery time. Control and ack traffic still flows:
// the simulation keeps the blocking coordination protocols (Chandy–Misra
// forks, flush acks) drainable so every worker reaches the next barrier,
// where the master detects the death and rolls the cluster back —
// discarding all of the dead worker's superstep state anyway, exactly as
// a real whole-cluster rollback would.
func (t *Mem) Kill(w WorkerID) { t.dead[w].Store(true) }

// Revive clears worker w's crash flag, modeling the failed machine's
// replacement rejoining the cluster before a rollback.
func (t *Mem) Revive(w WorkerID) { t.dead[w].Store(false) }

// Alive reports whether worker w is not currently killed.
func (t *Mem) Alive(w WorkerID) bool { return !t.dead[w].Load() }

// DeadWorkers returns the IDs of all currently killed workers.
func (t *Mem) DeadWorkers() []WorkerID {
	var dead []WorkerID
	for w := range t.dead {
		if t.dead[w].Load() {
			dead = append(dead, WorkerID(w))
		}
	}
	return dead
}

// Send enqueues m for delivery. It never blocks. Sending to yourself is
// allowed and goes through the same simulated path (engines bypass the
// transport for truly local traffic). Sends after Close, data sends
// touching a killed worker, and sends dropped by the fault hook are
// discarded and counted in Stats.DroppedMessages.
func (t *Mem) Send(m Message) {
	if m.From < 0 || int(m.From) >= t.n || m.To < 0 || int(m.To) >= t.n {
		panic(fmt.Sprintf("cluster: bad endpoints %d->%d", m.From, m.To))
	}
	if t.closed.Load() {
		// Shutting down; drop, as a dying cluster would — but account for it.
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

// enqueue places one copy of m on its lane, counting it as traffic. It
// returns without enqueuing (counting a drop instead) when the lane has
// already been closed — the check runs under the lane lock, so a Send
// racing Close can never strand an in-flight count after the delivery
// goroutines exit.
func (t *Mem) enqueue(m Message, extraDelay time.Duration, wireLost bool) {
	l := t.lanes[int(m.From)*t.n+int(m.To)]
	now := time.Now()
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
	depart := now
	if l.lastDepart.After(depart) {
		depart = l.lastDepart
	}
	depart = depart.Add(t.latency.serialization(m.Bytes))
	l.lastDepart = depart
	l.q = append(l.q, timed{m, depart.Add(t.latency.Propagation + extraDelay), wireLost})
	l.cond.Signal()
	l.mu.Unlock()
}

// deliver is the per-lane consumer: it takes everything queued since its
// last burst, waits on the wire clock until each message's delivery time
// and invokes the receiver's handler, preserving FIFO order.
func (t *Mem) deliver(l *lane) {
	defer t.wg.Done()
	var batch []timed
	for {
		l.mu.Lock()
		for len(l.q) == 0 && !l.closed {
			l.cond.Wait()
		}
		if len(l.q) == 0 {
			l.mu.Unlock()
			return
		}
		batch, l.q = l.q, batch[:0] // swap queues: no allocation in steady state
		l.mu.Unlock()
		for i := range batch {
			tm := &batch[i]
			if time.Until(tm.deliverAt) > 0 {
				t.clock.sleepUntil(tm.deliverAt, l.wake)
			}
			if tm.wireLost || (tm.msg.Kind == Data && t.dead[tm.msg.To].Load()) {
				// Lost on the wire: injected (DropDelivery) or the receiver
				// crashed while the message was in flight.
				t.stats.DroppedMessages.Add(1)
			} else {
				if h := t.handlers[tm.msg.To]; h != nil {
					h(tm.msg)
				}
				if t.hook != nil {
					t.hook.OnDeliver(tm.msg)
				}
			}
			// Credit returns before the in-flight count drops, so a WaitIdle
			// barrier always observes fully balanced windows.
			t.releaseCredit(tm.msg)
			tm.msg.Payload = nil // the reused queue slot must not pin it

			t.inflightMu.Lock()
			t.inflight--
			if t.inflight == 0 {
				t.idleCond.Broadcast()
			}
			t.inflightMu.Unlock()
		}
	}
}

// WaitIdle blocks until no messages are in flight. Note that a handler may
// inject new messages; callers are responsible for ensuring senders are
// quiescent (e.g. all workers at a barrier) when using this for
// termination decisions.
func (t *Mem) WaitIdle() {
	t.inflightMu.Lock()
	for t.inflight > 0 {
		t.idleCond.Wait()
	}
	t.inflightMu.Unlock()
}

// InFlight returns the number of undelivered messages.
func (t *Mem) InFlight() int {
	t.inflightMu.Lock()
	defer t.inflightMu.Unlock()
	return t.inflight
}

// Close drains all lanes, then joins their goroutines and the wire clock.
// Sends after Close are dropped.
func (t *Mem) Close() {
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
	t.clock.stop()
}

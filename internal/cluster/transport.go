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
// Both embed one core (core.go) that owns the delivery contract — the
// handler registry, Send's admission and drop rules, the byte ledger, the
// in-flight count (messages plus holds) behind WaitIdle — and supply only their wire. Both
// preserve FIFO order per (sender, receiver) pair — as TCP does between
// two Giraph workers — and count every message and byte.
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
// Semantics every backend provides (core.go owns them):
//
//   - FIFO delivery per (sender, receiver) pair; handlers for one pair run
//     sequentially in send order, different pairs concurrently.
//   - Send never blocks and never delivers inline on the caller.
//   - A message is "in flight" from the moment Send accepts it until its
//     handler returns (or it is counted dropped). Hold and Release add and
//     remove units of outstanding work in the same count, and WaitIdle
//     blocks until it is zero: it is the barriers' drain and the
//     barrierless runs' termination test.
//   - Kill/Revive dead-worker semantics and Stats drop accounting exactly
//     as documented on core's methods.
type Transport interface {
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
	// Hold counts one unit of outstanding work as in flight; Release
	// removes one.
	Hold()
	Release()
	// WaitIdle blocks until no message or Hold is in flight.
	WaitIdle()
	// Close shuts the backend down, draining in-flight traffic. It is
	// idempotent; sends after Close are dropped and counted.
	Close()
}

// Mem is the in-process simulated backend: per-pair FIFO lanes with
// modeled propagation latency and serialization delay.
type Mem struct {
	core
	latency LatencyModel
	lanes   []*lane // n*n, index from*n+to

	// clock is the transport's one wire clock (clock.go): lanes wait for
	// their head-of-line deliverAt on it instead of calling time.Sleep.
	clock *wireClock

	wg sync.WaitGroup
}

var _ Transport = (*Mem)(nil)

// New creates an in-process simulated transport for n workers with the
// given latency model. RegisterHandler must be called for every worker
// before any Send.
func New(n int, latency LatencyModel) *Mem {
	t := &Mem{latency: latency}
	t.init(n, t.enqueue)
	t.lanes = make([]*lane, n*n)
	t.clock = newWireClock(n * n) // at most one deadline per lane
	for i := range t.lanes {
		l := &lane{wake: make(chan struct{}, 1)}
		l.cond = sync.NewCond(&l.mu)
		t.lanes[i] = l
		t.wg.Add(1)
		go t.consume(l)
	}
	return t
}

// enqueue places one copy of m on its lane, stamped with the time the
// latency model delivers it, or drops it if the lane is already closed.
func (t *Mem) enqueue(m Message, extraDelay time.Duration, wireLost bool) {
	l := t.lanes[int(m.From)*t.n+int(m.To)]
	now := time.Now()
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		t.drop()
		return
	}
	t.accept(m)
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

// consume is the per-lane consumer: it takes everything queued since its
// last burst, waits on the wire clock until each message's delivery time
// and delivers it, preserving FIFO order.
func (t *Mem) consume(l *lane) {
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
			t.deliver(tm.msg, tm.wireLost)
			tm.msg.Payload = nil // the reused queue slot must not pin it
			t.Release()
		}
	}
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

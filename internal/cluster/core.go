package cluster

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// core is the delivery contract both backends share: the handler registry,
// the dead-worker flags, Send's admission and drop rules, the per-kind byte
// ledger and the in-flight count behind WaitIdle (messages plus Holds). Mem
// and TCP embed it and supply only their wire: enqueue puts one accepted
// copy of a message on its lane, and the lane's consumer hands each message
// that comes off the wire to deliver and then calls Release. A rule changed here changes in both
// deployments at once.
type core struct {
	n        int
	handlers []Handler
	stats    Stats
	dead     []atomic.Bool // per-worker crash flags
	hook     FaultHook     // set before any traffic; nil when faults are off
	flow     *Flow         // credit windows; nil when flow control is off

	inflightMu sync.Mutex
	inflight   int
	idleCond   sync.Cond

	// Every Send reads these two; they sit after idleCond, a cache line
	// away from inflightMu, which every Hold and Release writes.
	//
	// enqueue is the backend's wire: it places one copy of m on its lane,
	// calling accept under the lane lock, or drop if the lane is closed.
	enqueue func(m Message, delay time.Duration, wireLost bool)
	closed  atomic.Bool
}

func (c *core) init(n int, enqueue func(Message, time.Duration, bool)) {
	if n < 1 {
		panic("cluster: need at least one worker")
	}
	c.n = n
	c.handlers = make([]Handler, n)
	c.dead = make([]atomic.Bool, n)
	c.enqueue = enqueue
	c.idleCond.L = &c.inflightMu
}

// Stats returns the traffic counters.
func (c *core) Stats() *Stats { return &c.stats }

// RegisterHandler installs the delivery callback for worker w.
func (c *core) RegisterHandler(w WorkerID, h Handler) {
	if c.handlers[w] != nil {
		panic(fmt.Sprintf("cluster: handler for worker %d registered twice", w))
	}
	c.handlers[w] = h
}

// SetFaultHook installs a fault-injection hook. It must be called before
// any traffic flows (the engine attaches it right after construction,
// before workers start).
func (c *core) SetFaultHook(h FaultHook) { c.hook = h }

// SetFlow arms credit-based flow control (DESIGN.md §12): Endpoint.SendData
// acquires on these windows, and every data message returns its bytes once
// it is consumed or dropped — Mem as it leaves its lane, TCP with a Credit
// frame on the reverse lane. Must be set before any traffic flows.
func (c *core) SetFlow(f *Flow) { c.flow = f }

// windows returns the credit windows SetFlow armed (nil when off).
func (c *core) windows() *Flow { return c.flow }

// Kill marks worker w as crashed. From then on the worker's data traffic
// is lost — data messages sent by or addressed to it are dropped (and
// counted in DroppedMessages), and in-flight data messages addressed to
// it are discarded at delivery time. Control traffic still flows: the
// simulation keeps the blocking coordination protocol (Chandy–Misra forks)
// drainable so every worker reaches the next barrier,
// where the master detects the death and rolls the cluster back —
// discarding all of the dead worker's superstep state anyway, exactly as
// a real whole-cluster rollback would.
func (c *core) Kill(w WorkerID) { c.dead[w].Store(true) }

// Revive clears worker w's crash flag, modeling the failed machine's
// replacement rejoining the cluster before a rollback.
func (c *core) Revive(w WorkerID) { c.dead[w].Store(false) }

// Alive reports whether worker w is not currently killed.
func (c *core) Alive(w WorkerID) bool { return !c.dead[w].Load() }

// DeadWorkers returns the IDs of all currently killed workers.
func (c *core) DeadWorkers() []WorkerID {
	var dead []WorkerID
	for w := range c.dead {
		if c.dead[w].Load() {
			dead = append(dead, WorkerID(w))
		}
	}
	return dead
}

// Send enqueues m for delivery. It never blocks. Sending to yourself is
// allowed and goes through the same wire (engines bypass the transport for
// truly local traffic). Sends after Close, data sends touching a killed
// worker, and sends dropped by the fault hook are discarded and counted in
// Stats.DroppedMessages; a hook's Duplicates enqueue extra copies.
func (c *core) Send(m Message) {
	if m.From < 0 || int(m.From) >= c.n || m.To < 0 || int(m.To) >= c.n {
		panic(fmt.Sprintf("cluster: bad endpoints %d->%d", m.From, m.To))
	}
	if c.closed.Load() || (m.Kind == Data && (c.dead[m.From].Load() || c.dead[m.To].Load())) {
		c.drop(m)
		return
	}
	var fate Fate
	if c.hook != nil {
		if fate = c.hook.OnSend(m); fate.Drop {
			c.drop(m)
			return
		}
	}
	for i := 0; i <= fate.Duplicates; i++ {
		c.enqueue(m, fate.Delay, fate.DropDelivery)
	}
}

// drop discards m before it reached a lane: it counts the drop and returns
// the message's credit.
func (c *core) drop(m Message) {
	c.stats.DroppedMessages.Add(1)
	c.refund(m)
}

// refund returns a data message's window bytes. Credit acquired in
// Endpoint.SendData must come back on every exit path, or senders would
// park forever on a window that never refills.
func (c *core) refund(m Message) {
	if m.Kind == Data {
		c.flow.Release(m.From, m.To, m.Bytes)
	}
}

// accept counts one copy of m as sent traffic and puts it in flight. The
// backend calls it under the lock that guards its lane's closed flag, so a
// Send racing Close can never strand an in-flight count after the lane's
// consumer exits.
func (c *core) accept(m Message) {
	switch m.Kind {
	case Data:
		c.stats.DataMessages.Add(1)
		c.stats.DataBytes.Add(int64(m.Bytes))
	case Control:
		c.stats.ControlMessages.Add(1)
		c.stats.ControlBytes.Add(int64(m.Bytes))
	case Ack:
		c.stats.AckMessages.Add(1)
	}
	c.Hold()
}

// Hold counts one unit into flight: accept calls it for every message, TCP
// for its transport-level credit and barrier frames, and the barrierless
// engines for a worker that has work. WaitIdle cannot return before the
// matching Release, so with every worker's hold released and nothing on
// the wire no work can appear any more, and WaitIdle is their termination
// test.
func (c *core) Hold() {
	c.inflightMu.Lock()
	c.inflight++
	c.inflightMu.Unlock()
}

// deliver hands a message that came off the wire to its receiver. A wire
// loss (Fate.DropDelivery) or a receiver that died while the data was in
// flight counts as a drop instead; the message was already counted as sent.
func (c *core) deliver(m Message, wireLost bool) {
	if wireLost || (m.Kind == Data && c.dead[m.To].Load()) {
		c.stats.DroppedMessages.Add(1)
		return
	}
	if h := c.handlers[m.To]; h != nil {
		h(m)
	}
	if c.hook != nil {
		c.hook.OnDeliver(m)
	}
}

// Release counts one unit out of flight — a frame consumed, or a Hold
// ended — waking WaitIdle at zero.
func (c *core) Release() {
	c.inflightMu.Lock()
	c.inflight--
	if c.inflight == 0 {
		c.idleCond.Broadcast()
	}
	c.inflightMu.Unlock()
}

// WaitIdle blocks until nothing is in flight: no message queued, on the
// wire or mid-delivery, and no Hold outstanding. A handler may inject new
// messages, so callers must make senders quiescent (all workers at a
// barrier, or every worker's hold released) before using it for
// termination decisions. On a TCP peer transport each process counts only
// its own side of a lane, so the count means nothing there; TCP.Barrier
// ends a superstep instead.
func (c *core) WaitIdle() {
	c.inflightMu.Lock()
	for c.inflight > 0 {
		c.idleCond.Wait()
	}
	c.inflightMu.Unlock()
}

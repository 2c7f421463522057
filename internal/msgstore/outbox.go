package msgstore

import "sync"

// Outbox is the one owner of condition C1's send order (§6.1 buffer cache,
// §6.3 flush before fork handoff, Prop. 2): per destination it buffers
// outgoing items, sends them in batches of at most cap, and makes FlushTo a
// promise — when FlushTo(dest) returns, everything added for dest before the
// call is on dest's lane, including a full batch another thread took out a
// moment earlier and is still sending. A lock manager passes FlushTo as its
// preHandoff, so a fork handed over after it follows every replica update on
// the same FIFO lane.
type Outbox[T any] struct {
	dests []destBuf[T]
	cap   int
	send  func(dest int, batch []T)
	// fresh, when set, supplies the slice the batch after a full one starts
	// in (nil, or no fresh: make one of cap).
	fresh func() []T
	// reset, when set, runs under a destination's lock whenever its pending
	// items leave — sent or discarded — so per-batch indexes can follow.
	reset func(dest int)
}

// destBuf is one destination's pending items, handed out locked by lock.
type destBuf[T any] struct {
	o     *Outbox[T]
	dest  int
	mu    sync.Mutex
	items []T
	full  [][]T // batches taken under mu, sent by unlock
	// sendMu orders the sends of batches taken out of items: whoever takes
	// one locks sendMu before unlocking mu (handoff), so batches reach the
	// transport in the order they were taken — and a FlushTo returns only
	// when every batch taken before it is on its lane, not merely out of the
	// buffer.
	sendMu sync.Mutex
}

// NewOutbox creates an outbox for dests destinations that sends a batch as
// soon as cap items (at least 1) are pending for one destination. send owns
// each batch from then on.
func NewOutbox[T any](dests, cap int, send func(dest int, batch []T)) *Outbox[T] {
	o := &Outbox[T]{dests: make([]destBuf[T], dests), cap: max(cap, 1), send: send}
	for i := range o.dests {
		o.dests[i].o, o.dests[i].dest = o, i
	}
	return o
}

// lock locks dest's buffer for a run of about n appends and reserves room
// for them: after a flush the buffer restarts from nil, and letting append
// double element by element costs a growslice chain per destination per
// superstep. It restarts from a fresh slice when one is available, then grows
// geometrically (so repeated runs stay amortized-linear) to at least the
// whole run, clamped to cap — a buffer never holds cap items between sends.
// The caller must unlock.
func (o *Outbox[T]) lock(dest, n int) *destBuf[T] {
	d := &o.dests[dest]
	d.mu.Lock()
	if d.items == nil && o.fresh != nil {
		if s := o.fresh(); s != nil {
			d.items = s[:0]
		}
	}
	if need := len(d.items) + n; cap(d.items) < need && cap(d.items) < o.cap {
		ne := make([]T, len(d.items), min(max(2*cap(d.items), need), o.cap))
		copy(ne, d.items)
		d.items = ne
	}
	return d
}

// add appends one item. Reaching cap takes the pending items out as a full
// batch, which unlock sends. The destination just proved it fills whole
// batches, so the next one starts at full capacity — one allocation (or a
// fresh slice) instead of doubling up. FlushTo deliberately does not: its
// batches are usually far below cap.
func (d *destBuf[T]) add(it T) {
	d.items = append(d.items, it)
	if len(d.items) >= d.o.cap {
		d.take()
	}
}

// take moves the full pending items to the batches unlock sends.
func (d *destBuf[T]) take() {
	d.full = append(d.full, d.drain())
	if d.o.fresh != nil {
		d.items = d.o.fresh()
	}
	if d.items == nil {
		d.items = make([]T, 0, d.o.cap)
	}
	d.items = d.items[:0]
}

// drain takes the pending items out, under mu.
func (d *destBuf[T]) drain() []T {
	items := d.items
	d.items = nil
	if d.o.reset != nil {
		d.o.reset(d.dest)
	}
	return items
}

// unlock ends a lock: the batches taken under it are sent, in taking order
// relative to every other taker.
func (d *destBuf[T]) unlock() { d.handoff(nil) }

// handoff ends a critical section of mu, sending the full batches and then
// last (if any) under sendMu, which it locks before mu is unlocked.
func (d *destBuf[T]) handoff(last []T) {
	full := d.full
	d.full = nil
	d.sendMu.Lock()
	d.mu.Unlock()
	for _, b := range full {
		d.o.send(d.dest, b)
	}
	if len(last) > 0 {
		d.o.send(d.dest, last)
	}
	d.sendMu.Unlock()
}

// Add buffers one item for dest, sending the batch it fills.
func (o *Outbox[T]) Add(dest int, it T) {
	d := o.lock(dest, 1)
	d.add(it)
	d.unlock()
}

// flush sends dest's pending items and returns how many there were. It
// returns only once every batch taken for dest before it is on the lane.
func (o *Outbox[T]) flush(dest int) int {
	d := &o.dests[dest]
	d.mu.Lock()
	var batch []T
	if len(d.items) > 0 {
		batch = d.drain()
	}
	d.handoff(batch)
	return len(batch)
}

// FlushTo sends dest's pending items. When it returns, everything added for
// dest before the call has been handed to send.
func (o *Outbox[T]) FlushTo(dest int) { o.flush(dest) }

// FlushAll flushes every destination and returns the number of items sent.
func (o *Outbox[T]) FlushAll() int {
	n := 0
	for dest := range o.dests {
		n += o.flush(dest)
	}
	return n
}

// Clear discards every pending item without sending it. The engine calls it
// during a rollback: messages buffered when the cluster failed belong to the
// discarded superstep and must not leak into the replay.
func (o *Outbox[T]) Clear() {
	for i := range o.dests {
		d := &o.dests[i]
		d.mu.Lock()
		d.drain()
		d.mu.Unlock()
	}
}

// Pending returns the number of items buffered for dest.
func (o *Outbox[T]) Pending(dest int) int {
	d := &o.dests[dest]
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.items)
}

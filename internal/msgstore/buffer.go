package msgstore

import (
	"sync"

	"serialgraph/internal/graph"
	"serialgraph/internal/metrics"
)

// Entry is one vertex message in a remote batch. Slot optionally carries
// the position of Src in Dst's in-neighbor list, biased by one (0 means
// unknown): senders that walk their out-edge list know it for free from
// the engine's precomputed edge→slot table, and carrying it saves the
// store a binary search per Overwrite-mode delivery. A zero Slot is always
// safe — the store falls back to looking the position up.
type Entry[M any] struct {
	Dst, Src graph.VertexID
	Msg      M
	Ver      uint32
	Slot     uint32
}

// Buffer is the message buffer cache of §6.1: outgoing remote messages are
// batched per destination worker to use the (simulated) network
// efficiently. Batches flush automatically when full and manually before a
// worker hands over a token or fork (the C1 write-all flush).
type Buffer[M any] struct {
	perDest  []*destBuf[M]
	cap      int
	msgBytes int
	hdr      int // batch header bytes
	entryHdr int // per-entry header bytes
	combine  func(a, b M) M
	send     func(dest int, batch []Entry[M], bytes int)
	reg      *metrics.Registry
	alloc    func() []Entry[M]
}

type destBuf[M any] struct {
	mu      sync.Mutex
	entries []Entry[M]
	// sendMu orders the sends of batches taken out of entries: whoever takes
	// one locks sendMu before unlocking mu (handoff), so batches reach the
	// transport in the order they were taken — and a FlushTo, which is what a
	// fork or token waits for, returns only when every batch taken before it
	// is on its lane, not merely out of the buffer.
	sendMu sync.Mutex
	// slot maps a destination vertex to its combined entry's index when
	// sender-side combining is on.
	slot map[graph.VertexID]int
}

// NewBuffer creates a buffer cache for nWorkers destinations. cap is the
// flush threshold in entries; send is invoked with the drained batch and
// its simulated wire size.
func NewBuffer[M any](nWorkers, cap, msgBytes, batchHeader, entryHeader int, send func(dest int, batch []Entry[M], bytes int)) *Buffer[M] {
	if cap < 1 {
		cap = 1
	}
	b := &Buffer[M]{cap: cap, msgBytes: msgBytes, hdr: batchHeader, entryHdr: entryHeader, send: send}
	b.perDest = make([]*destBuf[M], nWorkers)
	for i := range b.perDest {
		b.perDest[i] = &destBuf[M]{}
	}
	return b
}

// SetCombiner enables sender-side combining (Giraph's combiner support):
// messages buffered for the same destination vertex are folded with fn
// before they ever reach the network, shrinking batches for algorithms
// like SSSP and WCC. Call before any Add.
func (b *Buffer[M]) SetCombiner(fn func(a, b M) M) { b.combine = fn }

// SetAlloc installs a batch allocator, letting the engine recycle spent
// batch slices through a pool instead of allocating a fresh full-capacity
// slice per emitted batch. fn may return nil (or a slice of any capacity);
// the buffer falls back to make. Call before any Add.
func (b *Buffer[M]) SetAlloc(fn func() []Entry[M]) { b.alloc = fn }

// newBatch returns an empty slice to start the next batch in, preferring
// the engine-provided recycler.
func (b *Buffer[M]) newBatch() []Entry[M] {
	if b.alloc != nil {
		if s := b.alloc(); s != nil {
			return s[:0]
		}
	}
	return make([]Entry[M], 0, b.cap)
}

// SetMetrics attaches a metrics registry. Counting lives inside the buffer
// — not at its call sites — because every remote-send path (capacity
// flush, end-of-superstep FlushAll, the Chandy–Misra pre-handoff FlushTo)
// funnels through emit, so no path can silently skip the counters. Call
// before any Add.
func (b *Buffer[M]) SetMetrics(reg *metrics.Registry) { b.reg = reg }

// emit counts and sends one drained batch.
func (b *Buffer[M]) emit(dest int, batch []Entry[M]) {
	bytes := b.batchBytes(len(batch))
	if b.reg != nil {
		b.reg.Add(metrics.RemoteBatches, 1)
		b.reg.Add(metrics.RemoteBatchBytes, int64(bytes))
		b.reg.Add(metrics.RemoteEntriesFlushed, int64(len(batch)))
		b.reg.Observe(metrics.HistBatchEntries, int64(len(batch)))
	}
	b.send(dest, batch, bytes)
}

// handoff ends a critical section of d.mu that took batches out of d and
// sends them, in taking order relative to every other taker (see sendMu).
func (b *Buffer[M]) handoff(dest int, d *destBuf[M], batches ...[]Entry[M]) {
	d.sendMu.Lock()
	d.mu.Unlock()
	for _, batch := range batches {
		if len(batch) > 0 {
			b.emit(dest, batch)
		}
	}
	d.sendMu.Unlock()
}

// Add buffers a message bound for a vertex on worker dest, flushing that
// destination if the buffer is full.
func (b *Buffer[M]) Add(dest int, e Entry[M]) {
	if b.reg != nil {
		// Counts messages as buffered, before sender-side combining folds
		// them, so combining's effectiveness is remote_entries vs.
		// remote_entries_flushed.
		b.reg.Add(metrics.RemoteEntries, 1)
	}
	d := b.perDest[dest]
	d.mu.Lock()
	if b.combine != nil {
		if d.slot == nil {
			d.slot = make(map[graph.VertexID]int)
		}
		if i, ok := d.slot[e.Dst]; ok {
			d.entries[i].Msg = b.combine(d.entries[i].Msg, e.Msg)
			d.mu.Unlock()
			return
		}
		d.slot[e.Dst] = len(d.entries)
	}
	d.entries = append(d.entries, e)
	if len(d.entries) >= b.cap {
		batch := d.entries
		// Ownership of the full batch transfers to the receiver. This
		// destination just proved it fills whole batches, so start the next
		// one at full capacity — one allocation (or a recycled slice) instead
		// of doubling up. (FlushTo deliberately does NOT preallocate:
		// end-of-superstep flushes are usually far below cap, and zeroing a
		// full-cap slice per destination per superstep costs more than it
		// saves.)
		d.entries = b.newBatch()
		d.slot = nil
		b.handoff(dest, d, batch)
		return
	}
	d.mu.Unlock()
}

// AddBatch buffers a run of messages for one destination worker with a
// single lock acquisition and a single counter update, emitting full
// batches as the buffer fills. Semantically identical to calling Add per
// entry; the caller keeps ownership of es (entries are copied in). The
// engine's compute threads use it to fold a partition's worth of staged
// remote messages in at once instead of taking the destination mutex per
// message.
func (b *Buffer[M]) AddBatch(dest int, es []Entry[M]) {
	if len(es) == 0 {
		return
	}
	if b.reg != nil {
		// As in Add: counted before sender-side combining folds entries.
		b.reg.Add(metrics.RemoteEntries, int64(len(es)))
	}
	d := b.perDest[dest]
	var full [][]Entry[M]
	d.mu.Lock()
	// Reserve up front: after a flush the buffer restarts from nil, and
	// letting append double element-by-element costs a growslice chain per
	// destination per superstep. Restart from a recycled batch when one is
	// available, then grow geometrically (so repeated AddBatch calls stay
	// amortized-linear) to at least the whole run, clamped to cap —
	// len(d.entries) never reaches cap between emits.
	if d.entries == nil && b.alloc != nil {
		if s := b.alloc(); s != nil {
			d.entries = s[:0]
		}
	}
	if need := len(d.entries) + len(es); cap(d.entries) < need && cap(d.entries) < b.cap {
		newCap := 2 * cap(d.entries)
		if newCap < need {
			newCap = need
		}
		if newCap > b.cap {
			newCap = b.cap
		}
		ne := make([]Entry[M], len(d.entries), newCap)
		copy(ne, d.entries)
		d.entries = ne
	}
	for _, e := range es {
		if b.combine != nil {
			if d.slot == nil {
				d.slot = make(map[graph.VertexID]int)
			}
			if i, ok := d.slot[e.Dst]; ok {
				d.entries[i].Msg = b.combine(d.entries[i].Msg, e.Msg)
				continue
			}
			d.slot[e.Dst] = len(d.entries)
		}
		d.entries = append(d.entries, e)
		if len(d.entries) >= b.cap {
			full = append(full, d.entries)
			d.entries = b.newBatch()
			d.slot = nil
		}
	}
	b.handoff(dest, d, full...)
}

// FlushTo drains the buffer for one destination, returning the number of
// entries sent. When it returns, everything added for dest before the call
// has been handed to send — including a full batch another thread took out
// a moment earlier and is still sending.
func (b *Buffer[M]) FlushTo(dest int) int {
	d := b.perDest[dest]
	d.mu.Lock()
	batch := d.entries
	if len(batch) > 0 {
		d.entries, d.slot = nil, nil
	}
	b.handoff(dest, d, batch)
	return len(batch)
}

// FlushAll drains every destination buffer.
func (b *Buffer[M]) FlushAll() {
	for dest := range b.perDest {
		b.FlushTo(dest)
	}
}

// Clear discards every buffered entry without sending it. The engine
// calls it during a rollback: messages buffered when the cluster failed
// belong to the discarded superstep and must not leak into the replay.
func (b *Buffer[M]) Clear() {
	for _, d := range b.perDest {
		d.mu.Lock()
		d.entries = nil
		d.slot = nil
		d.mu.Unlock()
	}
}

// Pending returns the number of buffered entries for dest.
func (b *Buffer[M]) Pending(dest int) int {
	d := b.perDest[dest]
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.entries)
}

func (b *Buffer[M]) batchBytes(n int) int {
	return b.hdr + n*(b.entryHdr+b.msgBytes)
}

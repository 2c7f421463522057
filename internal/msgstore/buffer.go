package msgstore

import (
	"serialgraph/internal/graph"
	"serialgraph/internal/metrics"
)

// Entry is one vertex message in a batch. Dst == FanOut makes it a fan-out
// entry, one message for every owned out-neighbor of Src (see FanOut).
// Slot optionally carries the position of Src in Dst's in-neighbor list,
// biased by one (0 means unknown): a sender's local targets know it for
// free from its FanOutTable row, and carrying it saves the store a binary
// search per Overwrite-mode delivery. A zero Slot is always safe — the
// store falls back to looking the position up. Only local entries carry
// one: the wire does not (package wire), and no remote sender sets it.
type Entry[M any] struct {
	Dst, Src graph.VertexID
	Msg      M
	Ver      uint32
	Slot     uint32
}

// Buffer is the message buffer cache of §6.1: outgoing remote messages are
// batched per destination worker to use the (simulated) network
// efficiently. Batches flush automatically when full and manually before a
// worker hands over a token or fork (the C1 write-all flush). The embedded
// Outbox owns the batching and its send order (FlushTo, FlushAll, Clear,
// Pending); Buffer adds what is specific to vertex messages: sender-side
// combining, the metrics counters and the declared wire size.
type Buffer[M any] struct {
	*Outbox[Entry[M]]
	msgBytes int
	hdr      int // batch header bytes
	entryHdr int // per-entry header bytes
	combine  func(a, b M) M
	// slot maps, per destination, a destination vertex to its combined
	// entry's index when sender-side combining is on; guarded by the
	// destination's outbox lock. A drain empties a map but keeps it, so
	// batches after the first reuse its buckets.
	slot []map[graph.VertexID]int
	send func(dest int, batch []Entry[M], bytes int)
	reg  *metrics.Registry
}

// NewBuffer creates a buffer cache for nWorkers destinations. cap is the
// flush threshold in entries; send is invoked with the drained batch and
// its simulated wire size.
func NewBuffer[M any](nWorkers, cap, msgBytes, batchHeader, entryHeader int, send func(dest int, batch []Entry[M], bytes int)) *Buffer[M] {
	b := &Buffer[M]{msgBytes: msgBytes, hdr: batchHeader, entryHdr: entryHeader, send: send}
	b.Outbox = NewOutbox(nWorkers, cap, b.emit)
	return b
}

// SetCombiner enables sender-side combining (Giraph's combiner support):
// messages buffered for the same destination vertex are folded with fn
// before they ever reach the network, shrinking batches for algorithms
// like SSSP and WCC. Call before any Add.
func (b *Buffer[M]) SetCombiner(fn func(a, b M) M) {
	b.combine = fn
	b.slot = make([]map[graph.VertexID]int, len(b.dests))
	b.reset = func(dest int) { clear(b.slot[dest]) }
}

// SetMetrics attaches a metrics registry. Counting lives inside the buffer
// — not at its call sites — because every remote-send path (capacity
// flush, end-of-superstep FlushAll, the Chandy–Misra pre-handoff FlushTo)
// funnels through emit, so no path can silently skip the counters. Call
// before any Add.
func (b *Buffer[M]) SetMetrics(reg *metrics.Registry) { b.reg = reg }

// emit counts and sends one drained batch.
func (b *Buffer[M]) emit(dest int, batch []Entry[M]) {
	bytes := b.hdr + len(batch)*(b.entryHdr+b.msgBytes)
	if b.reg != nil {
		b.reg.Add(metrics.RemoteBatches, 1)
		b.reg.Add(metrics.RemoteBatchBytes, int64(bytes))
		b.reg.Add(metrics.RemoteEntriesFlushed, int64(len(batch)))
		b.reg.Observe(metrics.HistBatchEntries, int64(len(batch)))
	}
	b.send(dest, batch, bytes)
}

// Add buffers a message bound for a vertex on worker dest, flushing that
// destination if the buffer is full.
func (b *Buffer[M]) Add(dest int, e Entry[M]) { b.AddBatch(dest, []Entry[M]{e}) }

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
		// Counts messages as buffered, before sender-side combining folds
		// them, so combining's effectiveness is remote_entries vs.
		// remote_entries_flushed.
		b.reg.Add(metrics.RemoteEntries, int64(len(es)))
	}
	d := b.lock(dest, len(es))
	for _, e := range es {
		if b.combine != nil {
			slot := b.slot[dest]
			if slot == nil {
				slot = make(map[graph.VertexID]int)
				b.slot[dest] = slot
			}
			if i, ok := slot[e.Dst]; ok {
				d.items[i].Msg = b.combine(d.items[i].Msg, e.Msg)
				continue
			}
			slot[e.Dst] = len(d.items)
		}
		d.add(e)
	}
	d.unlock()
}

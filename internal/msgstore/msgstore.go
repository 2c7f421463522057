// Package msgstore implements the per-worker message stores of §6.1: all
// incoming vertex messages for a worker's vertices are buffered here, with
// three pluggable semantics (queue, combine, overwrite-per-source) chosen
// by the algorithm. Local messages are written directly by compute threads
// (eager local replicas); remote messages arrive in batches through the
// transport and are applied on delivery.
//
// The overwrite mode stores one slot per in-edge, making the store exactly
// the read-only replica table of the paper's formalism (§3.1): reading a
// vertex's messages is reading the replicas of its in-edge neighbors, and
// slots carry version numbers so the history checker can verify freshness
// (condition C1).
//
// Hot-path layout (DESIGN.md §9): lock striping is BLOCK-based — each
// stripe covers a contiguous range of local indices — rather than modulo.
// The engine's owned-vertex order concatenates partitions, so one
// partition's vertices occupy a contiguous local-index range and map to
// very few stripes. Compute threads writing eagerly to their own partition
// therefore never contend, and the batched appliers (PutBatch) acquire
// each stripe once per contiguous run instead of once per message. The
// unread-message flags are one bitset over local indices, maintained at
// delivery time and read outside the stripe locks: it is the store's half
// of the engine's frontier, so a superstep (and Clear) visits the vertices
// that have messages instead of scanning for them.
package msgstore

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"

	"serialgraph/internal/graph"
	"serialgraph/internal/model"
)

const (
	stripes    = 64 // lock striping granularity
	subBuckets = 8  // PutBatch sort buckets per stripe, at most
)

// Store holds incoming messages for the vertices owned by one worker.
type Store[M any] struct {
	g       *graph.Graph
	kind    model.Semantics
	combine func(a, b M) M

	local []int32 // global vertex -> local dense index, -1 if not owned
	owned []graph.VertexID

	// One cache line per lock: appliers on different stripes share none.
	locks [stripes]struct {
		sync.Mutex
		_ [56]byte
	}
	// blockSize is the local-index width of one stripe: stripe(li) =
	// li/blockSize, so contiguous indices share stripes (see the package
	// comment for why). It is a multiple of 1<<bucketShift, the width of
	// PutBatch's sort buckets (li>>bucketShift), so a bucket is whole
	// unread words inside one stripe.
	blockSize   int32
	bucketShift int32
	buckets     int // number of sort buckets

	// Queue mode: one slice per owned vertex.
	queues [][]M

	// Combine mode: one slot per owned vertex.
	slot    []M
	hasSlot []bool

	// Overwrite mode — the replica table of §3.1: one slot per in-edge in
	// owned-vertex order, vertex li's at ow[owOff[li]:owOff[li+1]] in the
	// order of g.InNeighbors, so a hinted delivery is one offset load and
	// one slot write. Presence is epoch-stamped: a slot is present when
	// hasE == epoch, so Clear — called on every BSP store swap — bumps the
	// epoch in O(1) instead of wiping O(in-edges) flags. Whether a vertex
	// has unread replicas is its unread bit alone.
	ow    []owSlot[M]
	owOff []int32
	epoch uint32

	// scratch pools batchScratch workspaces for PutBatch.
	scratch sync.Pool

	fan *FanOutTable // expands fan-out entries (SetFanOut)

	// unread has one bit per owned vertex: unseen message since last read.
	// A stripe is whole words, so a bit is flipped by its stripe's lock
	// holder alone (keeping flag and payload consistent for lock holders)
	// and read lock-free by the engine's frontier scans. Queue and Combine
	// payloads exist only under a set bit (Read consumes both together),
	// which is what lets Clear visit set bits only.
	unread Bits
}

// owSlot is one in-edge's replica: its source's last message and version.
type owSlot[M any] struct {
	msg       M
	ver, hasE uint32
}

// New creates a store for the given owned vertices.
func New[M any](g *graph.Graph, owned []graph.VertexID, kind model.Semantics, combine func(a, b M) M) *Store[M] {
	if kind == model.Combine && combine == nil {
		panic("msgstore: Combine semantics require a combine function")
	}
	s := &Store[M]{g: g, kind: kind, combine: combine, owned: owned}
	s.local = make([]int32, g.NumVertices())
	for i := range s.local {
		s.local[i] = -1
	}
	for i, v := range owned {
		s.local[v] = int32(i)
	}
	n := len(owned)
	// Whole sort buckets per stripe, at most subBuckets; a bucket is whole
	// unread words, at least one.
	per := max((n+stripes-1)/stripes, 1)
	s.bucketShift = 6
	for per > subBuckets<<s.bucketShift {
		s.bucketShift++
	}
	unit := 1 << s.bucketShift
	s.blockSize = int32((per + unit - 1) &^ (unit - 1))
	s.buckets = (n + unit - 1) >> s.bucketShift
	s.unread = NewBits(n)
	switch kind {
	case model.Queue:
		s.queues = make([][]M, n)
	case model.Combine:
		s.slot = make([]M, n)
		s.hasSlot = make([]bool, n)
	case model.Overwrite:
		s.epoch = 1
		s.owOff = make([]int32, n+1)
		for i, v := range owned {
			s.owOff[i+1] = s.owOff[i] + int32(g.InDegree(v))
		}
		s.ow = make([]owSlot[M], s.owOff[n])
	default:
		panic(fmt.Sprintf("msgstore: unknown semantics %v", kind))
	}
	return s
}

// SetFanOut lets the store take fan-out entries, expanding them through t
// (built over its graph and owned vertices; nil: none). Call before any put.
func (s *Store[M]) SetFanOut(t *FanOutTable) { s.fan = t }

// Owns reports whether dst is stored here.
func (s *Store[M]) Owns(dst graph.VertexID) bool { return s.local[dst] >= 0 }

func (s *Store[M]) idx(dst graph.VertexID) int32 {
	li := s.local[dst]
	if li < 0 {
		panic(fmt.Sprintf("msgstore: vertex %d not owned by this store", dst))
	}
	return li
}

// stripeOf maps a local index to its stripe (block striping).
func (s *Store[M]) stripeOf(li int32) int32 { return li / s.blockSize }

// putLocked records message m's payload into local slot li; the caller
// holds li's stripe lock and sets li's unread bit. slot, when non-zero, is
// the in-neighbor position of src in the in-list of li's vertex biased by
// one, sparing the Overwrite path its binary search. Returns false when the
// message is an Overwrite-mode message from a non-in-neighbor (the caller
// unlocks, then panics, so the store is not left locked).
func (s *Store[M]) putLocked(li int32, src graph.VertexID, m M, ver uint32, slot uint32) bool {
	switch s.kind {
	case model.Queue:
		s.queues[li] = append(s.queues[li], m)
	case model.Combine:
		if s.hasSlot[li] {
			s.slot[li] = s.combine(s.slot[li], m)
		} else {
			s.slot[li] = m
			s.hasSlot[li] = true
		}
	case model.Overwrite:
		pos := int(slot) - 1
		if slot == 0 {
			var ok bool
			pos, ok = s.g.InSlot(s.owned[li], src)
			if !ok {
				return false
			}
		}
		row := s.ow[s.owOff[li]:s.owOff[li+1]]
		row[pos] = owSlot[M]{msg: m, ver: ver, hasE: s.epoch}
	}
	return true
}

// Put records message m from src to dst. ver is src's value version at send
// time (0 when history tracking is off). Safe for concurrent use.
func (s *Store[M]) Put(dst, src graph.VertexID, m M, ver uint32) {
	s.PutSlot(dst, src, m, ver, 0)
}

// PutSlot is Put with a precomputed in-slot hint (Entry.Slot encoding:
// position+1, 0 = unknown).
func (s *Store[M]) PutSlot(dst, src graph.VertexID, m M, ver uint32, slot uint32) {
	li := s.idx(dst)
	lk := &s.locks[s.stripeOf(li)]
	lk.Lock()
	ok := s.putLocked(li, src, m, ver, slot)
	if ok {
		s.unread.orLocked(int(li>>6), 1<<(li&63))
	}
	lk.Unlock()
	if !ok {
		panic(fmt.Sprintf("msgstore: overwrite message from non-in-neighbor %d to %d", src, dst))
	}
}

// ref is one slot write of a PutBatch: batch entry e's message for local
// index li, with an in-slot hint biased by one like Entry.Slot.
type ref struct {
	e, li int32
	slot  uint32
}

// batchScratch is the reusable workspace of one PutBatch call, pooled per
// store so concurrent appliers never share one.
type batchScratch struct {
	lis    []int32 // point entries' local indices, by batch position
	refs   []ref   // the slot writes, grouped by bucket
	counts []int32 // per bucket: its size, then its placement cursor
}

// smallBatch is the size up to which PutBatch applies in batch order:
// bucketing a handful of entries costs more than relocking.
const smallBatch = 16

// PutBatch applies a batch of messages, amortizing lock acquisition, and
// returns the number of slots its fan-out entries wrote. Each slot write
// becomes a 12-byte reference to its batch entry — a fan-out entry expands
// into one per target straight from the fan-out table — and the references
// are grouped with a stable two-pass counting sort (no comparisons) by
// bucket: whole unread words in ascending order, at most subBuckets per
// stripe. Each stripe is then locked once per batch, a word's unread bits
// are published once per run of references into it (once per batch while
// a bucket is one word), and message and version are read from the batch
// entry under the lock. Stable grouping preserves per-destination
// arrival order, so every semantics observes exactly the messages (and
// order) that per-message Puts would have produced; Combine folds
// duplicates as it applies them. The batch is not modified. Safe for
// concurrent use by multiple appliers.
func (s *Store[M]) PutBatch(batch []Entry[M]) (fanned int) {
	if len(batch) == 0 {
		return 0
	}
	sc, _ := s.scratch.Get().(*batchScratch)
	if sc == nil {
		sc = &batchScratch{counts: make([]int32, s.buckets+1)}
	}
	// A small batch puts every reference in bucket 0: batch order.
	shift, counts := s.bucketShift, sc.counts
	if len(batch) <= smallBatch {
		shift, counts = 31, counts[:2]
	}
	sc.lis = slices.Grow(sc.lis[:0], len(batch))[:len(batch)]
	lis := sc.lis
	total := 0
	for i := range batch {
		if batch[i].Dst == FanOut {
			row := s.fan.Row(batch[i].Src)
			for _, t := range row {
				counts[t.Local>>shift+1]++
			}
			total += len(row)
			fanned += len(row)
			continue
		}
		li := s.idx(batch[i].Dst)
		lis[i] = li
		counts[li>>shift+1]++
		total++
	}
	for k := 1; k < len(counts); k++ {
		counts[k] += counts[k-1]
	}
	sc.refs = slices.Grow(sc.refs[:0], total)[:total]
	refs := sc.refs
	for i := range batch {
		if batch[i].Dst == FanOut {
			for _, t := range s.fan.Row(batch[i].Src) {
				k := t.Local >> shift
				refs[counts[k]] = ref{e: int32(i), li: t.Local, slot: t.Slot}
				counts[k]++
			}
			continue
		}
		k := lis[i] >> shift
		refs[counts[k]] = ref{e: int32(i), li: lis[i], slot: batch[i].Slot}
		counts[k]++
	}
	clear(counts)

	// A stripe is whole words, so a new stripe is always a new word.
	cur, word, mask := int32(-1), int32(-1), uint64(0)
	for _, r := range refs {
		if w := r.li >> 6; w != word {
			if mask != 0 {
				s.unread.orLocked(int(word), mask)
			}
			word, mask = w, 0
			if st := s.stripeOf(r.li); st != cur {
				if cur >= 0 {
					s.locks[cur].Unlock()
				}
				cur = st
				s.locks[cur].Lock()
			}
		}
		e := &batch[r.e]
		if !s.putLocked(r.li, e.Src, e.Msg, e.Ver, r.slot) {
			s.locks[cur].Unlock()
			panic(fmt.Sprintf("msgstore: overwrite message from non-in-neighbor %d to %d", e.Src, s.owned[r.li]))
		}
		mask |= 1 << (r.li & 63)
	}
	if cur >= 0 {
		s.unread.orLocked(int(word), mask)
		s.locks[cur].Unlock()
	}
	s.scratch.Put(sc)
	return fanned
}

// HasNew reports whether dst has messages it has not yet read. Lock-free:
// the answer is a point-in-time observation, exactly like the locked
// variant was for callers that dropped the lock before acting on it.
func (s *Store[M]) HasNew(dst graph.VertexID) bool {
	return s.unread.Test(s.idx(dst))
}

// NewCount returns the number of owned vertices with unread messages.
func (s *Store[M]) NewCount() int64 { return s.unread.Count() }

// Unread returns the live unread-message bitset, indexed like the owned
// slice the store was built with. Callers only read it.
func (s *Store[M]) Unread() Bits { return s.unread }

// Reader is a reusable scratch buffer for reading a vertex's messages
// without allocation. Each compute thread owns one.
type Reader[M any] struct {
	Msgs []M
	// Srcs and Vers are filled only in Overwrite mode, parallel to Msgs:
	// the in-neighbor each slot belongs to and the version it carried.
	Srcs []graph.VertexID
	Vers []uint32
}

func (r *Reader[M]) reset() {
	r.Msgs = r.Msgs[:0]
	r.Srcs = r.Srcs[:0]
	r.Vers = r.Vers[:0]
}

// Read collects the messages visible to an execution of dst into r and
// returns whether any were present. Queue and Combine consume; Overwrite
// retains slots but clears the new-message flag.
func (s *Store[M]) Read(dst graph.VertexID, r *Reader[M]) bool {
	r.reset()
	li := s.idx(dst)
	lk := &s.locks[s.stripeOf(li)]
	lk.Lock()
	defer lk.Unlock()
	if w, m := &s.unread[li>>6], uint64(1)<<(li&63); w.Load()&m != 0 {
		w.Store(w.Load() &^ m) // the stripe's lock holder is the word's one writer
	}
	switch s.kind {
	case model.Queue:
		if len(s.queues[li]) == 0 {
			return false
		}
		r.Msgs = append(r.Msgs, s.queues[li]...)
		s.queues[li] = s.queues[li][:0]
	case model.Combine:
		if !s.hasSlot[li] {
			return false
		}
		r.Msgs = append(r.Msgs, s.slot[li])
		s.hasSlot[li] = false
	case model.Overwrite:
		in := s.g.InNeighbors(dst)
		row := s.ow[s.owOff[li]:s.owOff[li+1]]
		for pos := range row {
			sl := &row[pos]
			if sl.hasE != s.epoch {
				continue
			}
			r.Msgs = append(r.Msgs, sl.msg)
			r.Srcs = append(r.Srcs, in[pos])
			r.Vers = append(r.Vers, sl.ver)
		}
		return len(r.Msgs) > 0
	}
	return true
}

// Clear atomically drains all state; the BSP engine calls it on every
// store swap. Overwrite mode clears by bumping the presence epoch — O(1)
// for the slot table instead of wiping a flag per in-edge per superstep —
// and the other modes visit only the vertices whose unread bit is set, so
// a swap costs the words of the bitset plus what the superstep left unread.
func (s *Store[M]) Clear() {
	for i := range s.locks {
		s.locks[i].Lock()
	}
	if s.kind == model.Overwrite {
		s.epoch++
	}
	for wi := range s.unread {
		w := s.unread[wi].Load()
		if w == 0 {
			continue
		}
		s.unread[wi].Store(0) // every writer of a bit holds a stripe lock
		if s.kind == model.Overwrite {
			continue
		}
		for ; w != 0; w &= w - 1 {
			li := wi<<6 + bits.TrailingZeros64(w)
			switch s.kind {
			case model.Queue:
				s.queues[li] = s.queues[li][:0]
			case model.Combine:
				s.hasSlot[li] = false
			}
		}
	}
	for i := range s.locks {
		s.locks[i].Unlock()
	}
}

// DumpEntry is one message-store record for checkpointing. Src is -1 for
// Queue and Combine modes, which do not track senders. IsNew is Dst's
// unread bit.
type DumpEntry[M any] struct {
	Dst, Src graph.VertexID
	Msg      M
	Ver      uint32
	IsNew    bool
}

// Dump snapshots the store's full contents for a checkpoint (§6.4). Call
// only while the cluster is quiescent (at a global barrier). The output
// is preallocated from the live slot counts, so a large store dumps with
// a single allocation.
func (s *Store[M]) Dump() []DumpEntry[M] {
	n := 0
	for li := range s.owned {
		switch s.kind {
		case model.Queue:
			n += len(s.queues[li])
		case model.Combine:
			if s.hasSlot[li] {
				n++
			}
		}
	}
	for i := range s.ow {
		if s.ow[i].hasE == s.epoch {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]DumpEntry[M], 0, n)
	for li, v := range s.owned {
		isNew := s.unread.Test(int32(li))
		switch s.kind {
		case model.Queue:
			for _, m := range s.queues[li] {
				out = append(out, DumpEntry[M]{Dst: v, Src: -1, Msg: m, IsNew: isNew})
			}
		case model.Combine:
			if s.hasSlot[li] {
				out = append(out, DumpEntry[M]{Dst: v, Src: -1, Msg: s.slot[li], IsNew: isNew})
			}
		case model.Overwrite:
			in := s.g.InNeighbors(v)
			for pos, sl := range s.ow[s.owOff[li]:s.owOff[li+1]] {
				if sl.hasE == s.epoch {
					out = append(out, DumpEntry[M]{
						Dst: v, Src: in[pos], Msg: sl.msg,
						Ver: sl.ver, IsNew: isNew,
					})
				}
			}
		}
	}
	return out
}

// Load restores a dump produced by Dump into an empty store.
func (s *Store[M]) Load(entries []DumpEntry[M]) {
	s.Clear()
	for _, e := range entries {
		li := s.idx(e.Dst)
		switch s.kind {
		case model.Queue:
			s.queues[li] = append(s.queues[li], e.Msg)
		case model.Combine:
			s.slot[li] = e.Msg
			s.hasSlot[li] = true
		case model.Overwrite:
			pos, ok := s.g.InSlot(e.Dst, e.Src)
			if !ok {
				panic("msgstore: restored entry from non-in-neighbor")
			}
			// Dump lists a multi-edge's slots in order: fill the next one.
			in, row := s.g.InNeighbors(e.Dst), s.ow[s.owOff[li]:s.owOff[li+1]]
			for pos+1 < len(in) && in[pos+1] == e.Src && row[pos].hasE == s.epoch {
				pos++
			}
			row[pos] = owSlot[M]{msg: e.Msg, ver: e.Ver, hasE: s.epoch}
		}
		// Queue and Combine payloads are visible to Clear only through the
		// unread bit (and Dump never emits one without it), so they set it
		// whatever the entry says.
		if e.IsNew || s.kind != model.Overwrite {
			s.unread.Set(li)
		}
	}
}

// Package msgstore implements the per-worker message stores of §6.1: all
// incoming vertex messages for a worker's vertices are buffered here, with
// three pluggable semantics (queue, combine, overwrite-per-source) chosen
// by the algorithm. Local messages are written directly by compute threads
// (eager local replicas); remote messages arrive in batches through the
// transport and are applied on delivery.
//
// The overwrite mode is the read-only replica table of the paper's
// formalism (§3.1): reading a vertex's messages is reading the replicas of
// its in-edge neighbors, and replicas carry version numbers so the history
// checker can verify freshness (condition C1). Every Overwrite store the
// engine builds (NewAt), in every mode, keeps one replica per source, as
// the paper's workers do: a broadcast writes it once, and a read gathers it
// through the vertex's in-list. One replica cannot hold a message meant for
// one of its targets, so these stores take broadcasts only. Whether a read
// can overlap a write of the same replica is fixed when the store is built.
// Under BSP, and under every technique that orders a replica's reader after
// its writer through a fork or token handoff, it cannot, and the table
// takes no lock (NewPhased is that store over an index of its own). Under
// SyncNone in Async or BAP it can, and each write, and each run of a read
// over one source block, takes that block's stripe lock (DESIGN.md §9).
// New keeps the older layout, one slot per in-edge behind stripe locks,
// which takes point entries too; no engine run builds it.
//
// Hot-path layout (DESIGN.md §9): an engine store (NewAt) owns one worker's
// run of the partition map's vertex layout, partition by partition, and a
// vertex's local index is its layout position less the run's base. Lock
// striping is BLOCK-based — each stripe covers a contiguous range of local
// indices (of global sources, in an unordered replica store) — rather than
// modulo, so one partition's vertices map to very few stripes. Compute
// threads writing eagerly to their own partition therefore never contend,
// and the batched appliers (PutBatch) acquire each stripe once per
// contiguous run instead of once per message. The unread-message flags are
// one bitset over local indices, maintained at delivery time and read
// outside the stripe locks: it is the store's half of the engine's
// frontier, so a superstep (and Clear) visits the vertices that have
// messages instead of scanning for them.
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

	// owned[li] is the vertex at local index li; v is at local index
	// pos[v] − base when that lies in [0, len(owned)) (NewAt, New).
	owned []graph.VertexID
	pos   []int32
	base  int32

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

	// Overwrite mode — the replica table of §3.1. Replica layout (NewAt,
	// NewPhased): rep[u] is source u's replica, indexed by global vertex,
	// and a vertex's in-list is its index into rep. Per-edge layout (New):
	// one slot per in-edge in owned-vertex order, vertex li's at
	// ow[owOff[li]:owOff[li+1]] in the order of g.InNeighbors. Presence is
	// epoch-stamped: a slot is present when hasE ≥ floor, so Clear — called
	// on every BSP store swap — moves floor past every stamp in O(1) instead
	// of wiping a flag per slot; writes stamp epoch. Whether a vertex has
	// unread replicas is its unread bit alone.
	ow           []owSlot[M]
	owOff        []int32
	rep          []owSlot[M]
	epoch, floor uint32
	// masked holds the in-edges (dst, src) of a replica store whose source's
	// replica was loaded but not sent along them: edges a mutation added
	// after the broadcast (see Load). They hide the loaded replica (stamped
	// floor) alone; the source's next write is stamped later and shows on
	// them. Written by Load only; reads skip them until Clear.
	masked map[edgeKey]struct{}

	// scratch pools batchScratch workspaces for PutBatch.
	scratch sync.Pool

	fan *FanOutTable // expands fan-out entries (SetFanOut)

	// replicas: an Overwrite store laid out as rep, written by putReplicas
	// and Broadcast and read by gather. srcLocks (an unordered replica
	// store) makes each replica write, and each gather run over one source
	// block, hold locks[u>>srcShift]; without it they take no lock.
	replicas bool
	srcLocks bool
	srcShift uint8

	// unread has one bit per owned vertex: unseen message since last read.
	// In a locked store a stripe is whole words, so a bit is flipped by its
	// stripe's lock holder alone (keeping flag and payload consistent for
	// lock holders) and read lock-free by the engine's frontier scans; a
	// replica store's appliers and readers use atomic ORs and ANDs instead.
	// Queue and Combine payloads exist only under a set bit (Read consumes
	// both together), which is what lets Clear visit set bits only.
	unread Bits
}

// edgeKey names the in-edge src->dst.
type edgeKey struct{ dst, src graph.VertexID }

// owSlot is one replica — of a source, or of an in-edge in a per-edge
// store: the source's last message, its version and its presence epoch.
type owSlot[M any] struct {
	msg       M
	ver, hasE uint32
}

// layout is an Overwrite store's table and locking (DESIGN.md §9).
type layout uint8

const (
	perEdge        layout = iota // New: one slot per in-edge, stripe-locked
	replicas                     // one replica per source, no lock
	lockedReplicas               // one replica per source, source-block locks
)

// New creates a store for the given owned vertices, owned[i] at local
// index i, with an index of its own from global IDs to local indices. An
// Overwrite store keeps one slot per in-edge behind stripe locks and takes
// point entries as well as fan-out entries. No engine run builds one.
func New[M any](g *graph.Graph, owned []graph.VertexID, kind model.Semantics, combine func(a, b M) M) *Store[M] {
	return newStore(g, owned, inverse(g, owned), 0, kind, combine, perEdge)
}

// NewPhased is New for a store whose reads of a replica never overlap its
// writes, as under BSP, where a store is written during one superstep and
// read only after the barrier that ends it. An Overwrite store then keeps
// one replica per source, takes fan-out entries and Broadcast only, and
// goes without locks: it is NewAt's ordered store over an index of its
// own. Other semantics are unaffected.
func NewPhased[M any](g *graph.Graph, owned []graph.VertexID, kind model.Semantics, combine func(a, b M) M) *Store[M] {
	return newStore(g, owned, inverse(g, owned), 0, kind, combine, replicas)
}

// inverse is the index New builds: pos[owned[i]] = i, and -1 elsewhere.
func inverse(g *graph.Graph, owned []graph.VertexID) []int32 {
	pos := slices.Repeat([]int32{-1}, g.NumVertices())
	for i, v := range owned {
		pos[v] = int32(i)
	}
	return pos
}

// NewAt is the engine's store: owned is a worker's run of a layout that
// starts at position base and that pos, shared by every store of the run,
// inverts (partition.Map's Owned, Base and Positions). It allocates no
// index of its own. An Overwrite store keeps one replica per source.
// unordered says that a read of a replica may overlap a write of it — only
// SyncNone under Async or BAP, where no fork or token orders them — and
// makes the replica writes and reads take source-block stripe locks; an
// ordered store takes none (the argument per technique is DESIGN.md §9).
// Other semantics ignore it.
func NewAt[M any](g *graph.Graph, owned []graph.VertexID, pos []int32, base int32, kind model.Semantics, combine func(a, b M) M, unordered bool) *Store[M] {
	if unordered {
		return newStore(g, owned, pos, base, kind, combine, lockedReplicas)
	}
	return newStore(g, owned, pos, base, kind, combine, replicas)
}

func newStore[M any](g *graph.Graph, owned []graph.VertexID, pos []int32, base int32, kind model.Semantics, combine func(a, b M) M, lay layout) *Store[M] {
	if kind == model.Combine && combine == nil {
		panic("msgstore: Combine semantics require a combine function")
	}
	s := &Store[M]{g: g, kind: kind, combine: combine, owned: owned, pos: pos, base: base}
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
		s.epoch, s.floor = 1, 1
		if lay != perEdge {
			s.replicas = true
			s.rep = make([]owSlot[M], g.NumVertices())
			if s.srcLocks = lay == lockedReplicas; s.srcLocks {
				for (g.NumVertices()-1)>>s.srcShift >= stripes {
					s.srcShift++
				}
			}
			break
		}
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
func (s *Store[M]) Owns(dst graph.VertexID) bool {
	return uint32(s.pos[dst]-s.base) < uint32(len(s.owned))
}

func (s *Store[M]) idx(dst graph.VertexID) int32 {
	li := s.pos[dst] - s.base
	if uint32(li) >= uint32(len(s.owned)) {
		panic(fmt.Sprintf("msgstore: vertex %d not owned by this store", dst))
	}
	return li
}

// stripeOf maps a local index to its stripe (block striping).
func (s *Store[M]) stripeOf(li int32) int32 { return li / s.blockSize }

// putLocked records message m's payload into local slot li; the caller
// holds li's stripe lock and sets li's unread bit. slot, when non-zero, is
// the in-neighbor position of src in the in-list of li's vertex biased by
// one, sparing a per-edge Overwrite store its binary search. Returns false
// when the message is an Overwrite-mode message from a non-in-neighbor
// (the caller unlocks, then panics, so the store is not left locked).
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
// time (0 when history tracking is off). A replica store takes no message
// for one target and panics. Safe for concurrent use.
func (s *Store[M]) Put(dst, src graph.VertexID, m M, ver uint32) {
	if s.replicas {
		panicPoint(dst, src)
	}
	li := s.idx(dst)
	lk := &s.locks[s.stripeOf(li)]
	lk.Lock()
	ok := s.putLocked(li, src, m, ver, 0)
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

	// putReplicas' unread bits by word, all zero between calls, and the
	// words that have bits in it.
	mask    []uint64
	touched []int32
}

// smallBatch is the size up to which PutBatch applies in batch order:
// bucketing a handful of entries costs more than relocking.
const smallBatch = 16

// PutBatch applies a batch of messages and returns the number of targets
// its fan-out entries reached. A replica store writes each entry's replica
// in one pass in batch order (putReplicas); the others amortize lock
// acquisition, as follows. Each slot write becomes a 12-byte reference to
// its batch entry — a fan-out entry expands into one per target straight
// from the fan-out table — and the references are grouped with a stable
// two-pass counting sort (no comparisons) by bucket: whole unread words in
// ascending order, at most subBuckets per stripe. Each stripe is then
// locked once per batch, a word's unread bits are published once per run
// of references into it (once per batch while a bucket is one word), and
// message and version are read from the batch entry under the lock. Stable
// grouping preserves per-destination arrival order, so every semantics
// observes exactly the messages (and order) that per-message Puts would
// have produced; Combine folds duplicates as it applies them. The batch is
// not modified. Safe for concurrent use by multiple appliers.
func (s *Store[M]) PutBatch(batch []Entry[M]) (fanned int) {
	if len(batch) == 0 {
		return 0
	}
	sc, _ := s.scratch.Get().(*batchScratch)
	if s.replicas {
		if sc == nil {
			sc = &batchScratch{mask: make([]uint64, len(s.unread))}
		}
		fanned = s.putReplicas(batch, sc)
		s.scratch.Put(sc)
		return fanned
	}
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
			for _, li := range row {
				counts[li>>shift+1]++
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
			src, slot := batch[i].Src, uint32(0)
			row := s.fan.Row(src)
			for j, li := range row {
				if s.ow != nil { // a multi-edge's targets are adjacent and take its consecutive slots
					if j > 0 && row[j-1] == li {
						slot++
					} else {
						pos, _ := s.g.InSlot(s.owned[li], src)
						slot = uint32(pos) + 1
					}
				}
				k := li >> shift
				refs[counts[k]] = ref{e: int32(i), li: li, slot: slot}
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

// putReplicas is PutBatch on a replica store: one pass in batch order,
// each fan-out entry writing its source's replica once and marking its
// targets unread, with no references or sort. A point entry panics: one
// replica cannot hold a message meant for one of its targets.
//
// A replica has one writer: only executions of u broadcast as u, the
// engine never runs a vertex concurrently with itself, its own worker
// writes u's replica from the executing thread (Broadcast, or a BSP
// thread's staged entry), and every other worker's broadcasts of u travel
// one lane, which one goroutine applies (Mem's consumer, TCP's pump) in
// send order; confined replay injects its batches before the workers
// start. Readers are ordered after the write they see by the BSP barrier
// or a fork or token handoff, except in an unordered store, whose writes
// and gather runs hold the source block's stripe lock (DESIGN.md §9).
//
// What appliers share is unread words, and readers of neighbouring vertices
// share them too, so readers clear their bit with an atomic AND, and an
// applier sets its bits in a private mask and publishes each touched word
// once with an atomic OR: an atomic OR per target contends on those lines
// for every target, and ran BSP PageRank ≈ 1.35 × slower (DESIGN.md §9).
func (s *Store[M]) putReplicas(batch []Entry[M], sc *batchScratch) (fanned int) {
	mask, touched := sc.mask, sc.touched[:0]
	for i := range batch {
		e := &batch[i]
		if e.Dst != FanOut {
			panicPoint(e.Dst, e.Src)
		}
		s.setReplica(e.Src, e.Msg, e.Ver)
		row := s.fan.Row(e.Src)
		for _, li := range row {
			w := li >> 6
			if mask[w] == 0 {
				touched = append(touched, w)
			}
			mask[w] |= 1 << (li & 63)
		}
		fanned += len(row)
	}
	for _, w := range touched {
		s.unread.or(int(w), mask[w])
		mask[w] = 0
	}
	sc.touched = touched
	return fanned
}

// setReplica writes source u's replica, under its source block's stripe
// lock in an unordered store.
func (s *Store[M]) setReplica(u graph.VertexID, m M, ver uint32) {
	sl := owSlot[M]{msg: m, ver: ver, hasE: s.epoch}
	if !s.srcLocks {
		s.rep[u] = sl
		return
	}
	lk := &s.locks[u>>s.srcShift]
	lk.Lock()
	s.rep[u] = sl
	lk.Unlock()
}

// Broadcast is a local SendToAllOut into a replica store under Async or
// BAP: it writes src's replica once and then sets the unread bits of src's
// source-table row at once, one atomic OR per word the row touches (the
// row ascends, so a run of targets in one word is one OR). Every local
// target can read the message from then on, in whichever partition it is.
// Safe for concurrent use by the threads of one worker.
func (s *Store[M]) Broadcast(src graph.VertexID, m M, ver uint32) {
	if !s.replicas {
		panic("msgstore: Broadcast needs a replica store (NewAt, NewPhased)")
	}
	s.setReplica(src, m, ver)
	word, mask := int32(-1), uint64(0)
	for _, li := range s.fan.Row(src) {
		if w := li >> 6; w != word {
			if mask != 0 {
				s.unread.or(int(word), mask)
			}
			word, mask = w, 0
		}
		mask |= 1 << (li & 63)
	}
	if mask != 0 {
		s.unread.or(int(word), mask)
	}
}

// panicPoint rejects a message for one target in a replica store.
func panicPoint(dst, src graph.VertexID) {
	panic(fmt.Sprintf("msgstore: message %d -> %d for one target in an Overwrite store that keeps one replica per source: broadcast with SendToAllOut", src, dst))
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
	// Srcs and Vers are filled only in Overwrite mode with Sources set,
	// parallel to Msgs: the in-neighbor each slot belongs to and the
	// version it carried. Only the history recorder needs them.
	Srcs    []graph.VertexID
	Vers    []uint32
	Sources bool
}

func (r *Reader[M]) reset() {
	r.Msgs = r.Msgs[:0]
	r.Srcs = r.Srcs[:0]
	r.Vers = r.Vers[:0]
}

// Read collects the messages visible to an execution of dst into r and
// returns whether any were present. Queue and Combine consume; Overwrite
// retains slots but clears the new-message flag, and fills Srcs and Vers
// only when r.Sources is set.
func (s *Store[M]) Read(dst graph.VertexID, r *Reader[M]) bool { return s.ReadLocal(s.idx(dst), r) }

// ReadLocal is Read of the vertex at local index li, for a caller that
// walks the store's own index order (the engine's frontier).
func (s *Store[M]) ReadLocal(li int32, r *Reader[M]) bool {
	r.reset()
	if s.replicas {
		return s.gather(li, r)
	}
	lk := &s.locks[s.stripeOf(li)]
	lk.Lock()
	defer lk.Unlock()
	if w, m := &s.unread[li>>6], uint64(1)<<(li&63); w.Load()&m != 0 {
		w.Store(w.Load() &^ m) // the word's one writer: the stripe's lock holder
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
		row := s.ow[s.owOff[li]:s.owOff[li+1]]
		var in []graph.VertexID
		if r.Sources {
			in = s.g.InNeighbors(s.owned[li])
		}
		for pos := range row {
			sl := &row[pos]
			if sl.hasE < s.floor {
				continue
			}
			r.Msgs = append(r.Msgs, sl.msg)
			if r.Sources {
				r.Srcs = append(r.Srcs, in[pos])
				r.Vers = append(r.Vers, sl.ver)
			}
		}
		return len(r.Msgs) > 0
	}
	return true
}

// gather is ReadLocal on a replica store (see putReplicas): it reads the
// replica of each in-neighbor u of li's vertex, in in-list order, that is
// present and not masked. An unordered store locks each run of the in-list
// that falls in one source block (the in-list ascends) while it reads it.
func (s *Store[M]) gather(li int32, r *Reader[M]) bool {
	s.unread.clearShared(li)
	v := s.owned[li]
	in := s.g.InNeighbors(v)
	if !s.srcLocks {
		s.gatherRun(v, in, r)
		return len(r.Msgs) > 0
	}
	for len(in) > 0 {
		b := in[0] >> s.srcShift
		n := 1
		for n < len(in) && in[n]>>s.srcShift == b {
			n++
		}
		lk := &s.locks[b]
		lk.Lock()
		s.gatherRun(v, in[:n], r)
		lk.Unlock()
		in = in[n:]
	}
	return len(r.Msgs) > 0
}

// gatherRun appends to r the present, unmasked replicas of the sources in
// run, in-neighbors of v.
func (s *Store[M]) gatherRun(v graph.VertexID, run []graph.VertexID, r *Reader[M]) {
	rep, floor, masked := s.rep, s.floor, len(s.masked) > 0
	for _, u := range run {
		sl := &rep[u]
		if sl.hasE < floor {
			continue
		}
		if masked && sl.hasE == floor {
			if _, ok := s.masked[edgeKey{v, u}]; ok {
				continue
			}
		}
		r.Msgs = append(r.Msgs, sl.msg)
		if r.Sources {
			r.Srcs = append(r.Srcs, u)
			r.Vers = append(r.Vers, sl.ver)
		}
	}
}

// Clear drains all state; the BSP engine calls it on every store swap, and
// every caller runs it while nothing writes or reads the store. Overwrite
// mode clears by moving the presence floor past every stamp — O(1) for the
// slot table instead of wiping a flag per in-edge per superstep — and the
// other modes visit only the vertices whose unread bit is set, so a swap
// costs the words of the bitset plus what the superstep left unread.
func (s *Store[M]) Clear() {
	for i := range s.locks {
		s.locks[i].Lock()
	}
	if s.kind == model.Overwrite {
		s.epoch++
		s.floor = s.epoch
		s.masked = nil
	}
	for wi := range s.unread {
		w := s.unread[wi].Load()
		if w == 0 {
			continue
		}
		s.unread[wi].Store(0)
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

// slotAt returns the Overwrite slot of in-edge pos, from u, of the vertex
// at local index li, or nil when it holds no message: either layout, one
// entry per in-edge.
func (s *Store[M]) slotAt(li int32, pos int, u graph.VertexID) *owSlot[M] {
	var sl *owSlot[M]
	if s.replicas {
		sl = &s.rep[u]
		if _, ok := s.masked[edgeKey{s.owned[li], u}]; ok && sl.hasE == s.floor {
			return nil
		}
	} else {
		sl = &s.ow[s.owOff[li]+int32(pos)]
	}
	if sl.hasE < s.floor {
		return nil
	}
	return sl
}

// Dump snapshots the store's full contents for a checkpoint (§6.4), an
// Overwrite store's as one entry per in-edge that holds a message in either
// layout. Call only while the cluster is quiescent (at a global barrier).
// The output is preallocated from the live slot counts, so a large store
// dumps with a single allocation.
func (s *Store[M]) Dump() []DumpEntry[M] {
	n := 0
	for li, v := range s.owned {
		switch s.kind {
		case model.Queue:
			n += len(s.queues[li])
		case model.Combine:
			if s.hasSlot[li] {
				n++
			}
		case model.Overwrite:
			for pos, u := range s.g.InNeighbors(v) {
				if s.slotAt(int32(li), pos, u) != nil {
					n++
				}
			}
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
			for pos, u := range s.g.InNeighbors(v) {
				if sl := s.slotAt(int32(li), pos, u); sl != nil {
					out = append(out, DumpEntry[M]{Dst: v, Src: u, Msg: sl.msg, Ver: sl.ver, IsNew: isNew})
				}
			}
		}
	}
	return out
}

// Load restores a dump produced by Dump into an empty store, while nothing
// else uses it. The entries a replica store takes from one source carry one
// message, as its own dumps' do, and set that source's replica; any owned
// in-edge of the source that no entry names is masked, so the store reads
// back exactly the entries loaded — after a mutation, an edge added since
// the source's broadcast stays without its message, as in the per-edge
// layout, until the source's next write, which the next epoch stamps.
func (s *Store[M]) Load(entries []DumpEntry[M]) {
	s.Clear()
	var loaded map[edgeKey]struct{}
	if s.replicas {
		loaded = make(map[edgeKey]struct{}, len(entries))
	}
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
			sl := owSlot[M]{msg: e.Msg, ver: e.Ver, hasE: s.epoch}
			if s.replicas {
				s.rep[e.Src] = sl
				loaded[edgeKey{e.Dst, e.Src}] = struct{}{}
				break
			}
			// Dump lists a multi-edge's slots in order: fill the next one.
			in, row := s.g.InNeighbors(e.Dst), s.ow[s.owOff[li]:s.owOff[li+1]]
			for pos+1 < len(in) && in[pos+1] == e.Src && row[pos].hasE == s.epoch {
				pos++
			}
			row[pos] = sl
		}
		// Queue and Combine payloads are visible to Clear only through the
		// unread bit (and Dump never emits one without it), so they set it
		// whatever the entry says.
		if e.IsNew || s.kind != model.Overwrite {
			s.unread.Set(li)
		}
	}
	for u := range s.rep {
		if s.rep[u].hasE != s.epoch {
			continue
		}
		for _, v := range s.g.OutNeighbors(graph.VertexID(u)) {
			k := edgeKey{v, graph.VertexID(u)}
			if _, ok := loaded[k]; !ok && s.Owns(v) {
				if s.masked == nil {
					s.masked = make(map[edgeKey]struct{})
				}
				s.masked[k] = struct{}{}
			}
		}
	}
	if s.masked != nil {
		s.epoch++ // later writes are not the loaded replicas the mask hides
	}
}

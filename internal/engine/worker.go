package engine

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"serialgraph/internal/chandy"
	"serialgraph/internal/cluster"
	"serialgraph/internal/graph"
	"serialgraph/internal/history"
	"serialgraph/internal/metrics"
	"serialgraph/internal/model"
	"serialgraph/internal/msgstore"
	"serialgraph/internal/partition"
)

// worker simulates one machine: it owns PartitionsPerWorker partitions, a
// message store, a buffer cache for outgoing remote messages, and (under
// PartitionLock) a Chandy–Misra manager for its partitions.
type worker[V, M any] struct {
	r     *runner[V, M]
	id    int
	parts []partition.ID

	// stores[active] receives reads; under BSP, writes target
	// stores[1-active] and the master swaps between supersteps. Under
	// Async there is a single store at index 0.
	stores [2]*msgstore.Store[M]
	active atomic.Int32
	buf    *msgstore.Buffer[M]
	fan    *msgstore.FanOutTable // source table; nil when buf combines (newWorker)
	ep     *cluster.Endpoint
	mgr    *chandy.Manager

	// owned is the worker's run of the partition map's vertex layout
	// (Map.Owned), partition by partition: a vertex's position in it is its
	// local index in the stores and in awake.
	owned []graph.VertexID

	// awake has one bit per owned vertex, indexed like the stores: set
	// until the vertex votes to halt. It is the only copy of the halt
	// flags. Together with the read store's unread-message bits it is the
	// worker's frontier (DESIGN.md §9): a superstep visits the set bits of
	// their union instead of scanning every vertex. A bit is flipped by the
	// thread executing its vertex; unhalted counts the set bits.
	awake msgstore.Bits

	// sched hands the worker's partitions to its compute threads, one pass
	// per superstep (sched.go).
	sched partSched[V, M]

	// threads holds one thread scratch object per compute thread, reused
	// across supersteps so reader scratch, staging buffers, and aggregator
	// maps keep their capacity instead of being reallocated every step.
	// Thread i is only ever used by compute goroutine i of the current
	// superstep, and supersteps of one worker never overlap.
	threads []*thread[V, M]

	aggMu    sync.Mutex
	aggLocal map[string]float64
	aggPrev  map[string]float64

	mutMu      sync.Mutex
	mutAdds    []graph.Edge
	mutRemoves []edgeKey

	// sendErr is the first error an execution on this worker made (Send
	// from an Overwrite program), which the worker's next barrier returns.
	sendErr atomic.Pointer[error]

	// log records every outgoing remote batch by (superstep, destination) so
	// confined recovery can re-inject this worker's sends into a crashed
	// peer's store instead of rolling the whole cluster back. Nil unless
	// fault injection and confined recovery are both configured.
	log *msgstore.Log[M]

	// curStep is the superstep currently executing, read by the buffer
	// cache's emit path (which runs on compute threads and, via FlushTo,
	// fork pre-handoffs) to key log appends.
	curStep atomic.Int64

	// unhalted counts owned vertices that have not voted to halt (the set
	// bits of awake): the master sums it for the halt count, and BAP's
	// activity check (anyActiveWorker) reads it.
	unhalted atomic.Int64

	// wake is BAP's idle-worker doorbell: a worker with no active vertex
	// releases its hold on the transport's in-flight count and parks on it,
	// and onData rings it when it holds again for the worker (bap.go).
	// held is set while the worker holds; holdMu orders the worker's idle
	// decision against a delivery's. Nil and unused outside BAP.
	wake   chan struct{}
	holdMu sync.Mutex
	held   bool

	// begin and finish are when this worker started on its superstep and
	// when it completed it (threads joined and buffers flushed). Written in
	// runSuperstep, read by the master once the worker's ID arrives on the
	// runner's done channel, which provides the happens-before edge; the
	// master turns the spread of finish times into barrier-wait (and, under
	// token passing, token hold/idle) accounting, and the delay from its
	// dispatch to begin into barrier-commit time.
	begin, finish time.Time

	startCh chan int
}

func newWorker[V, M any](r *runner[V, M], id int) *worker[V, M] {
	w := &worker[V, M]{
		r: r, id: id,
		parts:    r.pm.PartitionsOfWorker(id),
		aggLocal: make(map[string]float64),
		aggPrev:  make(map[string]float64),
		startCh:  make(chan int),
	}
	w.threads = make([]*thread[V, M], r.cfg.ThreadsPerWorker)
	for i := range w.threads {
		w.threads[i] = &thread[V, M]{w: w, seen: make([]bool, r.cfg.Workers)}
	}
	w.sched.init(w)
	w.owned = r.pm.Owned(id)
	w.awake = msgstore.NewBits(len(w.owned))
	w.loadHalted(nil)
	if r.cfg.Mode == BAP {
		w.wake = make(chan struct{}, 1)
	}
	// Giraph applies the user combiner inside the buffer cache too (below).
	// It folds per destination vertex already, so such a program keeps
	// per-edge entries and builds no source table.
	if r.prog.Semantics != model.Combine || r.cfg.DisableSenderCombine {
		w.fan = msgstore.NewFanOutTable(r.g, w.owned)
	}
	w.stores[0] = w.newStore()
	if r.cfg.Mode == BSP {
		w.stores[1] = w.newStore()
	}
	if r.cfg.Fault != nil && r.cfg.Recovery == RecoverConfined {
		w.log = msgstore.NewLog[M]()
	}
	w.buf = msgstore.NewBuffer[M](r.cfg.Workers, r.cfg.BufferCap, r.prog.MsgBytes,
		cluster.BatchHeaderBytes, cluster.EntryHeaderBytes,
		func(dest int, batch []msgstore.Entry[M], bytes int) {
			if w.log != nil {
				// Logged before the send so even a batch the fault injector
				// drops on the wire remains replayable.
				w.log.Append(int(w.curStep.Load()), dest, batch)
			}
			if r.cfg.Mode == BSP && r.replaying.Load() && !r.replayDest[dest] &&
				int(w.curStep.Load()) < r.replayFrontier {
				// Confined BSP replay below the frontier is an exact
				// reconstruction of sends the healthy destination already
				// received while this worker was still alive; delivering the
				// duplicate would stamp a stale step's value over the
				// destination's current (frontier-step) slot under a newer
				// version. Frontier-step sends were dropped with the crash
				// (a killed sender loses its data traffic) and must flow.
				r.reg.Add(metrics.ReplayBatchesSuppressed, 1)
				return
			}
			w.ep.SendData(cluster.WorkerID(dest), batch, bytes)
		})
	w.buf.SetMetrics(r.reg)
	if r.recycleBatches {
		w.buf.SetAlloc(func() []msgstore.Entry[M] {
			if v := r.batchPool.Get(); v != nil {
				return v.([]msgstore.Entry[M])
			}
			return nil
		})
	}
	if w.fan == nil {
		// A hub vertex receives one combined message per sending worker.
		w.buf.SetCombiner(r.prog.Combine)
	}
	w.ep = cluster.NewEndpoint(r.tr, cluster.WorkerID(id), w.onData, w.onCtrl)
	return w
}

// newStore builds an empty message store over the worker's vertices. An
// Overwrite store keeps one replica per source in every mode. Its reads
// overlap its writes only under SyncNone in Async or BAP, where nothing
// orders a replica's reader after its writer; there the store locks them
// (msgstore.NewAt, DESIGN.md §9).
func (w *worker[V, M]) newStore() *msgstore.Store[M] {
	pm, cfg := w.r.pm, &w.r.cfg
	unordered := cfg.Mode != BSP && cfg.Sync == SyncNone
	st := msgstore.NewAt(w.r.g, w.owned, pm.Positions(), pm.Base(w.id), w.r.prog.Semantics, w.r.prog.Combine, unordered)
	st.SetFanOut(w.fan)
	return st
}

// initLockManager sets up partition philosophers (§5.4). preHandoff flushes
// this worker's buffered remote replica updates to the fork's destination
// worker; per-lane FIFO then guarantees the data precedes the fork,
// enforcing condition C1 for the requesting partition.
func (w *worker[V, M]) initLockManager(partNeighbors [][]partition.ID) {
	w.newLockManager(func(p chandy.PhilID) int { return w.r.pm.WorkerOfPartition(partition.ID(p)) })
	w.mgr.Reserve(len(w.parts), len(partNeighbors))
	for _, p := range w.parts {
		nbs := make([]chandy.PhilID, 0, len(partNeighbors[p]))
		for _, q := range partNeighbors[p] {
			nbs = append(nbs, chandy.PhilID(q))
		}
		w.mgr.AddPhil(chandy.PhilID(p), nbs)
	}
	w.sched.orderBoundary(partNeighbors)
}

// initVertexLockManager sets up per-vertex philosophers for the
// Giraph-async + vertex-based locking combination the paper excludes for
// poor performance (§5.2, §7). Only p-boundary vertices need forks:
// p-internal vertices are serialized by their partition's sequential
// execution. A vertex is p-boundary (Definition 4) exactly when its §5.3
// class is not PInternal.
func (w *worker[V, M]) initVertexLockManager() {
	w.newLockManager(func(p chandy.PhilID) int { return w.r.pm.WorkerOf(graph.VertexID(p)) })
	for _, v := range w.owned {
		if w.r.classes[v] == partition.PInternal {
			continue
		}
		var nbs []chandy.PhilID
		myPart := w.r.pm.PartitionOf(v)
		w.r.g.Neighbors(v, func(x graph.VertexID) {
			if w.r.pm.PartitionOf(x) != myPart && w.r.classes[x] != partition.PInternal {
				nbs = append(nbs, chandy.PhilID(x))
			}
		})
		w.mgr.AddPhil(chandy.PhilID(v), nbs)
	}
}

// newLockManager builds the worker's lock manager. It recycles control
// batches under the rule the data batches follow (recycleBatches): not
// under fault injection, whose duplicated deliveries would alias a batch
// the receiving manager has already refilled.
func (w *worker[V, M]) newLockManager(ownerOf func(chandy.PhilID) int) {
	w.mgr = chandy.NewBatchManager(w.id, ownerOf, cluster.LockSender[chandy.Ctrl](w.ep, w.r.reg), w.buf.FlushTo)
	if w.r.recycleBatches {
		w.mgr.SetRecycle(&w.r.ctrlPool)
	}
	w.mgr.SetMetrics(w.r.reg)
}

// onData applies an arriving batch of remote vertex messages. Under BSP the
// batch targets the next superstep's store; under Async the live store, so
// recipients can read it within the same superstep (the AP model). The
// whole batch goes through PutBatch: an Overwrite store writes each
// fan-out entry's replica once, and a Queue or Combine store groups the
// batch by lock stripe instead of taking a lock per entry. Under the
// serializing techniques this lane goroutine applies the batch before it
// hands the fork that follows it to the lock manager (onCtrl), which is
// what orders a replica's write before its reader (DESIGN.md §9).
// RemoteEntriesDelivered counts the
// entries as they arrived, before the store folds or expands any, so it
// stays reconcilable with the sender-side RemoteEntriesFlushed counter;
// FanOutTargets counts the slots the batch's fan-out entries wrote. The
// batch slice arrives with ownership transferred from the sender (the
// buffer cache never reuses an emitted slice). Once applied, the slice is
// dead — recycle it into the run's batch pool so some sender's buffer
// cache can restart a batch in it, unless fault injection is on (a
// duplicated delivery still on the wire would alias it).
func (w *worker[V, M]) onData(from cluster.WorkerID, payload any) {
	batch := payload.([]msgstore.Entry[M])
	w.r.reg.Add(metrics.RemoteEntriesDelivered, int64(len(batch)))
	if n := w.writeStore().PutBatch(batch); n > 0 {
		w.r.reg.Add(metrics.FanOutTargets, int64(n))
	}
	if w.r.recycleBatches && cap(batch) > 0 {
		w.r.batchPool.Put(payload) // the box it arrived in: no new allocation
	}
	if w.wake != nil {
		w.rehold()
	}
}

func (w *worker[V, M]) onCtrl(from cluster.WorkerID, payload any) {
	w.mgr.HandleBatch(chandy.BatchOf(payload))
}

func (w *worker[V, M]) readStore() *msgstore.Store[M] { return w.stores[w.active.Load()] }

func (w *worker[V, M]) writeStore() *msgstore.Store[M] {
	if w.r.cfg.Mode == BSP {
		return w.stores[1-w.active.Load()]
	}
	return w.stores[0]
}

// swapStores flips current/next between BSP supersteps. The outgoing
// current store is cleared: BSP messages are visible for exactly one
// superstep. Called by the master while the cluster is quiescent.
func (w *worker[V, M]) swapStores() {
	w.readStore().Clear()
	w.active.Store(1 - w.active.Load())
}

// discardStep drops what the worker produced in supersteps that will not
// commit: aggregator contributions and mutation intents and, with
// messages, every message it holds buffered or stored.
func (w *worker[V, M]) discardStep(messages bool) {
	if messages {
		w.buf.Clear()
		w.stores[0].Clear()
		if w.stores[1] != nil {
			w.stores[1].Clear()
		}
	}
	w.aggMu.Lock()
	w.aggLocal = make(map[string]float64)
	w.aggMu.Unlock()
	w.mutMu.Lock()
	w.mutAdds, w.mutRemoves = nil, nil
	w.mutMu.Unlock()
}

// span returns partition p's local-index range.
func (w *worker[V, M]) span(p partition.ID) (lo, hi int32) {
	lo, hi = w.r.pm.Span(p)
	base := w.r.pm.Base(w.id)
	return lo - base, hi - base
}

// nextActive returns the first frontier member in [from, hi) — a vertex
// that has not halted or has unread messages in st — or hi.
func (w *worker[V, M]) nextActive(st *msgstore.Store[M], from, hi int32) int32 {
	return msgstore.NextEither(st.Unread(), w.awake, from, hi)
}

// partActive reports whether any vertex of partition p is active.
func (w *worker[V, M]) partActive(p partition.ID) bool {
	lo, hi := w.span(p)
	return w.nextActive(w.readStore(), lo, hi) < hi
}

// loadHalted rewrites the worker's halt flags wholesale from halted,
// indexed by vertex ID (nil: nobody has halted) — the one way a restore,
// rollback or reset changes them, so awake and unhalted cannot drift.
func (w *worker[V, M]) loadHalted(halted []bool) {
	var n int64
	for li, v := range w.owned {
		if halted != nil && halted[v] {
			w.awake.Clear(int32(li))
		} else {
			w.awake.Set(int32(li))
			n++
		}
	}
	w.unhalted.Store(n)
}

func (w *worker[V, M]) pendingMessages() int64 {
	n := w.stores[0].NewCount()
	if w.stores[1] != nil {
		n += w.stores[1].NewCount()
	}
	return n
}

// loop is the worker's main goroutine: one superstep per master signal.
func (w *worker[V, M]) loop() {
	for s := range w.startCh {
		w.runSuperstep(s)
		w.r.done <- w.id
	}
}

func (w *worker[V, M]) runSuperstep(s int) {
	w.curStep.Store(int64(s))
	reg := w.r.reg
	w.begin = time.Now()
	w.runPass(s)
	flushStart := time.Now()
	reg.AddPhase(metrics.PhaseCompute, flushStart.Sub(w.begin))

	// End-of-superstep flush (§6.1): push out all remaining buffered
	// remote messages. The data only has to be on the wire: the barrier
	// waits for the transport to go idle before any token moves, which is
	// what C1 needs under token passing (§4.2, §6.2), and locking
	// techniques flush mid-superstep before every fork handoff.
	w.buf.FlushAll()
	w.finish = time.Now()
	reg.AddPhase(metrics.PhaseRemoteFlush, w.finish.Sub(flushStart))
}

// localTimingSampleShift sets the local-delivery timing sample rate: one
// in 2^6 = 64 timed events, each duration scaled by 64 into
// PhaseLocalDelivery. Both delivery paths sample uniformly — the eager
// per-message path and the staged-fold batch apply — so async-none runs
// (whose staged folds dominate) pay the same near-zero clock overhead as
// the eager path. Message *counts* stay exact — only the phase duration
// is sampled (DESIGN.md §9).
const localTimingSampleShift = 6

// thread is per-compute-thread scratch state. The step-local metric
// fields batch per-message/per-execution counts so the hot path touches
// no shared atomics, the staging buffer batches local message delivery,
// and agg batches aggregator contributions; fold flushes them into the
// shared state once per thread per superstep.
type thread[V, M any] struct {
	w         *worker[V, M]
	superstep int
	reader    msgstore.Reader[M]
	ctx       vctx[V, M]

	// curPart is the partition currently executing; Send consults it to
	// decide between eager delivery and staging under Async/BAP.
	curPart partition.ID

	// staged holds this thread's pending local messages for the current
	// partition. Under BSP every local message stages (the write store is
	// invisible until the swap anyway), a SendToAllOut as one fan-out entry
	// for the sender's local row; under Async/BAP only Sends to *other*
	// partitions of this worker, and the targets there of a Queue or Combine
	// broadcast, stage — same-partition messages are delivered eagerly so
	// later vertices of the sequential pass see them (AP semantics), and an
	// Overwrite broadcast never stages: it writes the worker's one replica
	// of the sender (Store.Broadcast). VertexLockGiraph never stages: its C1
	// argument needs delivery before each vertex's fork release. The buffer
	// is flushed into the store at partition end — for PartitionLock,
	// before the fork release, so neighbor partitions still read fresh
	// replicas (C1). Invariant: staged is empty outside a partition's
	// execution window, so barrier-time pending-message checks see
	// everything.
	staged    []msgstore.Entry[M]
	stageSlot map[graph.VertexID]int // Combine: dst -> index in staged

	// remoteStaged batches this thread's outgoing remote messages per
	// destination worker for the current partition; they fold into the
	// buffer cache via AddBatch at partition end — before the fork release
	// under PartitionLock, so the C1 flush-before-handoff still covers
	// every completed meal's updates. VertexLockGiraph bypasses it (its
	// fork release is per vertex, so messages must hit the buffer cache
	// per message). Same invariant as staged: empty outside a partition's
	// execution window.
	remoteStaged [][]msgstore.Entry[M]
	remoteDests  []int
	seen         []bool // SendToAllOut's remote workers, by worker; false between calls

	agg map[string]float64

	execs     int64
	localMsgs int64
	localNs   int64
	sendSeq   uint64 // eager local-delivery sampling counter
	foldSeq   uint64 // staged-fold sampling counter
}

// stage buffers a local message, pre-applying the combiner thread-locally
// when the algorithm has one (so a hub destination costs one staged entry,
// not one per message).
func (t *thread[V, M]) stage(dst, src graph.VertexID, m M, ver uint32) {
	prog := &t.w.r.prog
	if prog.Semantics == model.Combine && prog.Combine != nil {
		if t.stageSlot == nil {
			t.stageSlot = make(map[graph.VertexID]int)
		}
		if i, ok := t.stageSlot[dst]; ok {
			t.staged[i].Msg = prog.Combine(t.staged[i].Msg, m)
			return
		}
		t.stageSlot[dst] = len(t.staged)
	}
	t.staged = append(t.staged, msgstore.Entry[M]{Dst: dst, Src: src, Msg: m, Ver: ver})
}

// flushStaged folds the staged local messages into the write store in one
// batched apply and the staged remote messages into the buffer cache, one
// AddBatch per touched destination. Called at partition end (before the
// fork release under PartitionLock).
func (t *thread[V, M]) flushStaged() {
	if len(t.staged) > 0 {
		t.foldSeq++
		if t.foldSeq&(1<<localTimingSampleShift-1) == 0 {
			t0 := time.Now()
			t.w.writeStore().PutBatch(t.staged)
			t.localNs += int64(time.Since(t0)) << localTimingSampleShift
		} else {
			t.w.writeStore().PutBatch(t.staged)
		}
		t.staged = t.staged[:0]
		if t.stageSlot != nil {
			clear(t.stageSlot)
		}
	}
	if len(t.remoteDests) > 0 {
		for _, wk := range t.remoteDests {
			t.w.buf.AddBatch(wk, t.remoteStaged[wk])
			t.remoteStaged[wk] = t.remoteStaged[wk][:0]
		}
		t.remoteDests = t.remoteDests[:0]
	}
}

// fold drains the thread's step-local accumulators into the registry and
// the worker. Call after the thread's last partition of a superstep.
func (t *thread[V, M]) fold() {
	t.flushStaged() // no-op by invariant; kept as a safety net
	if len(t.agg) > 0 {
		t.w.aggMu.Lock()
		for k, v := range t.agg {
			t.w.aggLocal[k] += v
		}
		t.w.aggMu.Unlock()
		clear(t.agg)
	}
	if t.execs == 0 && t.localMsgs == 0 {
		return
	}
	reg := t.w.r.reg
	reg.Add(metrics.Executions, t.execs)
	reg.Add(metrics.LocalMessages, t.localMsgs)
	reg.AddPhase(metrics.PhaseLocalDelivery, time.Duration(t.localNs))
	t.execs, t.localMsgs, t.localNs = 0, 0, 0
}

// runPartition executes the partition's active vertices under the
// configured synchronization technique. Staged local messages fold into
// the store before the partition's execution window closes: under
// PartitionLock that is before the fork release (so a neighbor partition
// acquiring the forks next reads fresh replicas — the C1 argument), and
// under every other technique at the end of the pass. Forks order only
// *remote* data (the FIFO-before-fork flush covers the buffer cache);
// staged messages are purely local, so staging cannot reorder anything a
// fork handoff promises.
func (t *thread[V, M]) runPartition(p partition.ID) {
	w := t.w
	r := w.r
	t.curPart = p
	switch r.cfg.Sync {
	case PartitionLock:
		// Skip optimization (§5.4): halted partitions with no pending
		// messages acquire nothing and send nothing.
		if !r.cfg.DisableHaltedPartitionSkip && !w.partActive(p) {
			return
		}
		if !w.mgr.Acquire(chandy.PhilID(p)) {
			return // watchdog abort: the run is headed into recovery
		}
		t.runMeal(p, nil) // folds before Release: neighbors must read fresh replicas
		w.mgr.Release(chandy.PhilID(p))
	case TokenSingle:
		holder, _ := r.tokenState(t.superstep)
		allowed := func(v graph.VertexID) bool {
			c := r.classes[v]
			if c == partition.RemoteBoundary || c == partition.MixedBoundary {
				return holder == w.id
			}
			return true // m-internal vertices always run (§4.2)
		}
		t.runMeal(p, allowed)
	case TokenDual:
		holder, localIdx := r.tokenState(t.superstep)
		myLocalIdx, _ := slices.BinarySearch(w.parts, p) // parts ascend
		allowed := func(v graph.VertexID) bool {
			switch r.classes[v] {
			case partition.PInternal:
				return true
			case partition.LocalBoundary:
				return myLocalIdx == localIdx
			case partition.RemoteBoundary:
				return holder == w.id
			default: // MixedBoundary
				return holder == w.id && myLocalIdx == localIdx
			}
		}
		// Cross-partition local recipients of anything staged here, or of a
		// replica a broadcast here writes, are local/mixed boundary vertices
		// of a *different* partition, which the local token keeps inactive
		// this superstep — folding at pass end, or a replica visible at
		// once, is indistinguishable from eager delivery.
		t.runMeal(p, allowed)
	case VertexLockGiraph:
		// The heavy-weight partition thread blocks on every p-boundary
		// vertex's fork acquisition — the behavior §5.2 identifies as this
		// combination's downfall.
		st := w.readStore()
		lo, hi := w.span(p)
		for li := w.nextActive(st, lo, hi); li < hi; li = w.nextActive(st, li+1, hi) {
			v := w.owned[li]
			if r.classes[v] != partition.PInternal && !w.mgr.Acquire(chandy.PhilID(v)) {
				return // watchdog abort: the run is headed into recovery
			}
			r.noteUnitStart() // a vertex at a time: fork waits are not execution
			t.executeVertex(v, li, st)
			r.noteUnitEnd()
			if r.classes[v] != partition.PInternal {
				w.mgr.Release(chandy.PhilID(v))
			}
		}
	default: // SyncNone
		t.runMeal(p, nil)
	}
}

// runMeal executes partition p's active vertices and folds the local
// messages they staged. It is the unit the concurrency gauge counts (the
// parallelism axis of Figure 1): callers enter it holding whatever the
// technique makes them wait for, so a thread parked on forks is not counted.
func (t *thread[V, M]) runMeal(p partition.ID, allowed func(graph.VertexID) bool) {
	t.w.r.noteUnitStart()
	t.executeVertices(p, allowed)
	t.flushStaged()
	t.w.r.noteUnitEnd()
}

// executeVertices runs every active (and allowed) vertex of partition p
// sequentially, which is how partition-aware systems execute (§5.1). It
// walks the frontier's set bits over the partition's index range in
// ascending order — the order of the partition's vertex list — and looks
// for the next member only after each execution, so a vertex activated by
// an earlier one of the same pass still runs in it (the AP model).
func (t *thread[V, M]) executeVertices(p partition.ID, allowed func(graph.VertexID) bool) {
	w := t.w
	st := w.readStore()
	lo, hi := w.span(p)
	for li := w.nextActive(st, lo, hi); li < hi; li = w.nextActive(st, li+1, hi) {
		v := w.owned[li]
		if allowed != nil && !allowed(v) {
			continue
		}
		t.executeVertex(v, li, st)
	}
}

// executeVertex runs one transaction T(Nv): read own value and the
// in-neighbor replicas (messages), compute, write back. li is v's local
// index.
func (t *thread[V, M]) executeVertex(v graph.VertexID, li int32, st *msgstore.Store[M]) {
	r := t.w.r
	t.execs++

	// Replay executions during confined recovery reconstruct state the
	// recorder already discarded; recording them would interleave a partial
	// re-run with the post-recovery history.
	recording := r.rec != nil && !r.replaying.Load()

	var txn history.Txn
	if recording {
		txn.Vertex = v
		txn.Start = r.rec.Tick()
		txn.ReadVer = r.versions[v].Load()
	}

	t.reader.Sources = recording
	st.ReadLocal(li, &t.reader)

	if recording && len(t.reader.Srcs) > 0 {
		txn.Reads = make([]history.Read, 0, len(t.reader.Srcs))
		for i, src := range t.reader.Srcs {
			txn.Reads = append(txn.Reads, history.Read{
				Src:        src,
				SlotVer:    t.reader.Vers[i],
				PrimaryVer: r.versions[src].Load(),
			})
		}
	}

	t.ctx = vctx[V, M]{w: t.w, th: t, superstep: t.superstep, id: v}
	r.prog.Compute(&t.ctx, t.reader.Msgs)
	if t.ctx.votedHalt {
		if t.w.awake.Clear(li) {
			t.w.unhalted.Add(-1)
		}
	} else if t.w.awake.Set(li) {
		t.w.unhalted.Add(1)
	}

	if recording {
		txn.End = r.rec.Tick()
		txn.Wrote = t.ctx.wrote
		txn.WriteVer = r.versions[v].Load()
		r.rec.Append(txn)
	}
}

// vctx implements model.Context for one vertex execution.
type vctx[V, M any] struct {
	w         *worker[V, M]
	th        *thread[V, M]
	superstep int
	id        graph.VertexID
	votedHalt bool
	wrote     bool
}

func (c *vctx[V, M]) Superstep() int                 { return c.superstep }
func (c *vctx[V, M]) ID() graph.VertexID             { return c.id }
func (c *vctx[V, M]) Value() V                       { return c.w.r.values[c.id] }
func (c *vctx[V, M]) OutNeighbors() []graph.VertexID { return c.w.r.g.OutNeighbors(c.id) }
func (c *vctx[V, M]) OutWeights() []float64          { return c.w.r.g.OutWeights(c.id) }
func (c *vctx[V, M]) NumVertices() int               { return c.w.r.g.NumVertices() }
func (c *vctx[V, M]) VoteToHalt()                    { c.votedHalt = true }

func (c *vctx[V, M]) SetValue(v V) {
	c.w.r.values[c.id] = v
	c.wrote = true
	if c.w.r.versions != nil {
		c.w.r.versions[c.id].Add(1)
	}
	if c.w.r.dirty != nil {
		c.w.r.dirty[c.id].Store(true)
	}
}

// Send routes one message. An Overwrite program may not send to one
// vertex: its stores keep replicas of a source's broadcast, which a message
// meant for one target is not. Such a Send is dropped, and its error fails
// the run at the worker's next barrier (the end of a BAP run).
func (c *vctx[V, M]) Send(dst graph.VertexID, m M) {
	r := c.w.r
	if r.prog.Semantics == model.Overwrite {
		if c.w.sendErr.Load() == nil {
			err := fmt.Errorf("engine: %s: vertex %d sent to %d alone, but an Overwrite program broadcasts with SendToAllOut", r.prog.Name, c.id, dst)
			c.w.sendErr.CompareAndSwap(nil, &err)
		}
		return
	}
	var ver uint32
	if r.versions != nil {
		ver = r.versions[c.id].Load()
	}
	dp := r.pm.PartitionOf(dst)
	if wk := r.pm.WorkerOfPartition(dp); wk != c.w.id {
		c.remote(wk, msgstore.Entry[M]{Dst: dst, Src: c.id, Msg: m, Ver: ver})
		return
	}
	// Local message (§6.1): skip the buffer cache. Under BSP everything
	// stages (the next-superstep store is invisible until the swap), and
	// under Async/BAP messages to other partitions of this worker stage;
	// same-partition messages deliver eagerly so the rest of the sequential
	// pass sees them, and VertexLockGiraph delivers everything eagerly (its
	// per-vertex C1 argument needs delivery before each fork release). The
	// eager path samples its timing 1-in-2^localTimingSampleShift; counts
	// stay exact.
	t := c.th
	t.localMsgs++
	if r.cfg.Sync != VertexLockGiraph && (r.cfg.Mode == BSP || dp != t.curPart) {
		t.stage(dst, c.id, m, ver)
		return
	}
	t.eager(func(st *msgstore.Store[M]) { st.Put(dst, c.id, m, ver) })
}

// eager runs one local delivery into the write store, timing one in
// 2^localTimingSampleShift deliveries.
func (t *thread[V, M]) eager(put func(st *msgstore.Store[M])) {
	t.sendSeq++
	if t.sendSeq&(1<<localTimingSampleShift-1) == 0 {
		t0 := time.Now()
		put(t.w.writeStore())
		t.localNs += int64(time.Since(t0)) << localTimingSampleShift
	} else {
		put(t.w.writeStore())
	}
}

// remote routes one entry to worker wk's buffer cache.
func (c *vctx[V, M]) remote(wk int, e msgstore.Entry[M]) {
	r := c.w.r
	if r.cfg.Sync == VertexLockGiraph {
		// Per-vertex C1: the message must be in the buffer cache before
		// this vertex's fork release triggers the pre-handoff flush.
		c.w.buf.Add(wk, e)
		return
	}
	t := c.th
	if t.remoteStaged == nil {
		// Written on every remote send. At least 8 headers make it
		// 192 bytes, a size class whose objects start on a cache line
		// and fill three, so no other object shares its lines: placed
		// beside the partition map, which every send reads, a 96-byte
		// array cost bsp_pagerank about 4 %.
		t.remoteStaged = make([][]msgstore.Entry[M], r.cfg.Workers, max(r.cfg.Workers, 8))
	}
	if len(t.remoteStaged[wk]) == 0 {
		t.remoteDests = append(t.remoteDests, wk)
	}
	t.remoteStaged[wk] = append(t.remoteStaged[wk], e)
}

// SendToAllOut sends m along every out-edge as fan-out entries: remotely
// one per worker holding out-neighbors (GAS's seen-set loop), and locally
// by the sender's own row of the source table. Under BSP, where every
// local message stages anyway, the row is one staged entry. Under Async
// and BAP an Overwrite broadcast writes the worker's one replica of the
// sender and marks the whole row unread at once (Store.Broadcast): a
// target in another partition may read it before the sender's partition
// ends, which no technique but SyncNone lets it observe (DESIGN.md §9).
// A Queue or Combine broadcast is delivered per target, routed by
// local-index range: a target inside the executing partition's span is put
// eagerly and any other stages, as Send would decide (VertexLockGiraph:
// all eagerly). Per edge with no table.
func (c *vctx[V, M]) SendToAllOut(m M) {
	w := c.w
	outs := w.r.g.OutNeighbors(c.id)
	if w.fan == nil {
		for _, dst := range outs {
			c.Send(dst, m)
		}
		return
	}
	e := msgstore.Entry[M]{Dst: msgstore.FanOut, Src: c.id, Msg: m}
	if w.r.versions != nil {
		e.Ver = w.r.versions[c.id].Load()
	}
	t, row := c.th, w.fan.Row(c.id)
	t.localMsgs += int64(len(row))
	switch {
	case len(row) == 0:
	case w.r.cfg.Mode == BSP:
		t.staged = append(t.staged, e)
	case w.r.prog.Semantics == model.Overwrite:
		t.eager(func(st *msgstore.Store[M]) { st.Broadcast(c.id, m, e.Ver) })
	default:
		lo, hi := int32(0), int32(len(w.owned))
		if w.r.cfg.Sync != VertexLockGiraph {
			lo, hi = w.span(t.curPart)
		}
		for _, li := range row {
			if li < lo || li >= hi {
				t.stage(w.owned[li], c.id, m, e.Ver)
			} else {
				t.eager(func(st *msgstore.Store[M]) { st.Put(w.owned[li], c.id, m, e.Ver) })
			}
		}
	}
	for _, dst := range outs {
		t.seen[w.r.pm.WorkerOf(dst)] = true
	}
	t.seen[w.id] = false
	for wk, seen := range t.seen {
		if seen {
			t.seen[wk] = false
			c.remote(wk, e)
		}
	}
}

// Aggregate accumulates thread-locally; thread.fold merges the map into
// the worker's aggLocal under aggMu once per thread per superstep instead
// of taking the mutex per call.
func (c *vctx[V, M]) Aggregate(name string, v float64) {
	if c.th.agg == nil {
		c.th.agg = make(map[string]float64)
	}
	c.th.agg[name] += v
}

func (c *vctx[V, M]) Aggregated(name string) float64 {
	return c.w.aggPrev[name]
}

// Topology mutation support (Pregel's graph mutation API). Requests are
// buffered per worker and applied by the master at the barrier.

type edgeKey struct{ src, dst graph.VertexID }

func (w *worker[V, M]) addMutation(add *graph.Edge, remove *edgeKey) {
	if w.r.cfg.Mode == BAP {
		panic("engine: topology mutations require global barriers; BAP has none")
	}
	w.mutMu.Lock()
	if add != nil {
		w.mutAdds = append(w.mutAdds, *add)
	}
	if remove != nil {
		w.mutRemoves = append(w.mutRemoves, *remove)
	}
	w.mutMu.Unlock()
}

func (c *vctx[V, M]) AddEdgeRequest(src, dst graph.VertexID, wt float64) {
	n := graph.VertexID(c.w.r.g.NumVertices())
	if src < 0 || src >= n || dst < 0 || dst >= n {
		panic("engine: AddEdgeRequest endpoints out of range")
	}
	c.w.addMutation(&graph.Edge{Src: src, Dst: dst, Weight: wt}, nil)
}

func (c *vctx[V, M]) RemoveEdgeRequest(src, dst graph.VertexID) {
	c.w.addMutation(nil, &edgeKey{src, dst})
}

package engine

// sched.go is the overlap-aware partition scheduler (Config.Scheduler ==
// SchedOverlap; DESIGN.md §14). Three mechanisms, all within one worker's
// superstep:
//
//  1. Fork prefetch. Under PartitionLock, boundary partitions' fork
//     acquisitions are issued asynchronously (chandy.RequestForks) up to a
//     bounded window ahead of execution, so fork-grant latency runs
//     concurrently with compute instead of blocking a thread. Granted
//     partitions are collected and executed with priority: a granted
//     philosopher is eating and excludes its neighbors until released, so
//     sitting on a grant delays other workers.
//  2. Internal-compute overlap. P-internal partitions (no forks to
//     acquire) fill the windows while prefetches are in flight — the
//     OverlapComputeNs counter measures exactly that time.
//  3. Work stealing. Internal partitions are dealt round-robin into
//     per-thread deques (LIFO pop for locality, steal-half FIFO from the
//     largest victim), so a skewed partition no longer stretches the
//     barrier while sibling threads idle.
//
// Correctness is inherited, not re-argued: partitions still execute via the
// same runPartition / executeVertices paths, fork exclusion and the
// flush-before-handoff C1 ordering are untouched (flushStaged still runs
// before Release), and the only thing that moves is the order in which one
// worker's own partitions run — an order the engine never promised.
//
// Liveness: every issued RequestForks is claimed by exactly one thread
// (grants funnel through one channel; idle threads wait on it, not on a
// specific philosopher, so a grant is always consumed promptly and
// released — the condition Chandy–Misra's starvation-freedom argument
// needs — and the thread that claims the last one closes the drained
// channel the others also wait on). An Abort closes the pending ready
// channels, Collect returns false, and the drain completes without running
// the aborted partitions.

import (
	"sort"
	"sync"
	"time"

	"serialgraph/internal/chandy"
	"serialgraph/internal/metrics"
	"serialgraph/internal/partition"
)

// prefReq is one issued fork prefetch: the partition and its grant channel.
type prefReq struct {
	p  partition.ID
	ch <-chan struct{}
}

// overlapSched coordinates one worker's threads for one superstep.
type overlapSched[V, M any] struct {
	w      *worker[V, M]
	window int

	// granted receives the index of each issued request once its forks are
	// in hand (a tiny forwarder goroutine per request). Buffered to the
	// boundary count so forwarders never block.
	granted chan int

	// drained is closed once every boundary partition has been considered
	// and every grant claimed: the exit signal for threads waiting on
	// granted with nothing left to arrive.
	drained chan struct{}

	mu       sync.Mutex
	boundary []partition.ID   // boundary partitions not yet requested
	nextB    int              // next boundary index to consider
	reqs     []prefReq        // issued requests, claimed exactly once each
	claimed  int              // grants taken off the channel so far
	deques   [][]partition.ID // per-thread internal-partition deques
}

// computeOverlap runs one superstep's partition executions under the
// overlap scheduler, replacing computeStatic.
func (w *worker[V, M]) computeOverlap(s int) {
	threads := w.r.cfg.ThreadsPerWorker
	var boundary, internal []partition.ID
	if w.r.cfg.Sync == PartitionLock {
		boundary, internal = w.boundaryParts, w.internalParts
	} else {
		// No partition-level forks to prefetch (tokens filter inside the
		// execution pass; VertexLockGiraph locks per vertex): every
		// partition goes through the work-stealing deques.
		internal = w.parts
	}
	sc := &overlapSched[V, M]{
		w: w, boundary: boundary,
		granted: make(chan int, len(boundary)),
		drained: make(chan struct{}),
		deques:  make([][]partition.ID, threads),
	}
	// Window: enough outstanding requests to keep every thread fed and the
	// grant pipeline full, small enough that granted-but-unexecuted
	// partitions do not starve their neighbors on other workers.
	sc.window = 2 * threads
	if sc.window < 2 {
		sc.window = 2
	}
	for i, p := range internal {
		tid := i % threads
		sc.deques[tid] = append(sc.deques[tid], p)
	}
	sc.mu.Lock()
	sc.topUpLocked()
	sc.mu.Unlock()

	var wg sync.WaitGroup
	for t := 0; t < threads; t++ {
		th := w.threads[t]
		th.superstep = s
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			sc.run(w.threads[tid], tid)
			w.threads[tid].fold()
		}(t)
	}
	wg.Wait()
}

// run is one thread's scheduling loop: granted prefetches first, then own
// deque, then stealing, then waiting for outstanding grants.
func (sc *overlapSched[V, M]) run(t *thread[V, M], tid int) {
	for {
		if req, ok := sc.tryClaim(); ok {
			sc.topUp()
			t.runPrefetched(req)
			continue
		}
		if p, ok := sc.pop(tid); ok {
			sc.runInternal(t, p)
			continue
		}
		if p, ok := sc.steal(tid); ok {
			sc.runInternal(t, p)
			continue
		}
		// Deques only ever lose partitions, so with own deque and every
		// victim empty the only work left is outstanding grants.
		req, ok := sc.waitClaim()
		if !ok {
			return
		}
		sc.topUp()
		t.runPrefetched(req)
	}
}

// runInternal executes a deque partition through the normal runPartition
// path (so the halted-skip check, the fast-path Acquire for forkless
// philosophers, and every counter behave exactly as under SchedStatic),
// timing it into OverlapComputeNs while fork prefetches are outstanding.
func (sc *overlapSched[V, M]) runInternal(t *thread[V, M], p partition.ID) {
	sc.mu.Lock()
	outstanding := len(sc.reqs) > sc.claimed
	sc.mu.Unlock()
	if !outstanding {
		t.runPartition(p)
		return
	}
	t0 := time.Now()
	t.runPartition(p)
	sc.w.r.reg.Add(metrics.OverlapComputeNs, int64(time.Since(t0)))
}

// runPrefetched executes a boundary partition whose forks were prefetched:
// Collect (immediate — the grant channel already closed), execute, fold
// staged messages, and only then release the forks, preserving the
// flush-before-handoff C1 ordering exactly as runPartition does.
func (t *thread[V, M]) runPrefetched(req prefReq) {
	w := t.w
	t.curPart = req.p
	if !w.mgr.Collect(chandy.PhilID(req.p), req.ch) {
		return // watchdog abort: the run is headed into recovery
	}
	t.runMeal(req.p, nil) // folds before Release: neighbors must read fresh replicas
	w.mgr.Release(chandy.PhilID(req.p))
}

// topUpLocked issues fork prefetches until the outstanding window is full
// or the boundary list is exhausted, applying the same halted-partition
// skip as the static path. Requires sc.mu.
func (sc *overlapSched[V, M]) topUpLocked() {
	w := sc.w
	for len(sc.reqs)-sc.claimed < sc.window && sc.nextB < len(sc.boundary) {
		p := sc.boundary[sc.nextB]
		sc.nextB++
		if !w.r.cfg.DisableHaltedPartitionSkip && !w.partActive(p) {
			continue // skip optimization (§5.4): nothing to run, no forks
		}
		ch := w.mgr.RequestForks(chandy.PhilID(p))
		if ch == nil {
			// Aborted: nothing further will be granted. Stop issuing; the
			// already-issued requests drain via their closed channels.
			sc.nextB = len(sc.boundary)
			break
		}
		w.r.reg.Add(metrics.ForksPrefetched, 1)
		idx := len(sc.reqs)
		sc.reqs = append(sc.reqs, prefReq{p: p, ch: ch})
		go func() { <-ch; sc.granted <- idx }()
	}
	if sc.claimed == len(sc.reqs) && sc.nextB >= len(sc.boundary) {
		select {
		case <-sc.drained:
		default:
			close(sc.drained)
		}
	}
}

func (sc *overlapSched[V, M]) topUp() {
	sc.mu.Lock()
	sc.topUpLocked()
	sc.mu.Unlock()
}

// claim records that grant idx was taken off the channel.
func (sc *overlapSched[V, M]) claim(idx int) prefReq {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	sc.claimed++
	return sc.reqs[idx]
}

// tryClaim takes an already-delivered grant, if any, without blocking.
func (sc *overlapSched[V, M]) tryClaim() (prefReq, bool) {
	select {
	case idx := <-sc.granted:
		return sc.claim(idx), true
	default:
		return prefReq{}, false
	}
}

// waitClaim blocks for the next grant, or returns false once every
// boundary partition has been considered and every grant claimed — the
// thread's exit condition. The claimer of a grant always runs topUp next,
// which is where drained closes, so a thread racing another for the final
// grant is released by the winner.
func (sc *overlapSched[V, M]) waitClaim() (prefReq, bool) {
	select {
	case idx := <-sc.granted:
		return sc.claim(idx), true
	case <-sc.drained:
		return prefReq{}, false
	}
}

// pop takes the thread's own most recently assigned partition (LIFO).
func (sc *overlapSched[V, M]) pop(tid int) (partition.ID, bool) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	d := sc.deques[tid]
	if len(d) == 0 {
		return 0, false
	}
	p := d[len(d)-1]
	sc.deques[tid] = d[:len(d)-1]
	return p, true
}

// steal moves half of the largest victim deque (oldest entries first —
// FIFO from the head, the classic work-stealing discipline) into the
// thief's deque and returns the first stolen partition. One steal event is
// counted per successful call regardless of how many partitions moved.
func (sc *overlapSched[V, M]) steal(tid int) (partition.ID, bool) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	victim, best := -1, 0
	for i, d := range sc.deques {
		if i != tid && len(d) > best {
			victim, best = i, len(d)
		}
	}
	if victim < 0 {
		return 0, false
	}
	v := sc.deques[victim]
	n := (len(v) + 1) / 2
	moved := v[:n]
	sc.deques[victim] = v[n:]
	sc.deques[tid] = append(sc.deques[tid], moved[1:]...)
	sc.w.r.reg.Add(metrics.Steals, 1)
	return moved[0], true
}

// orderBoundaryByColor reorders boundaryParts so that conflicting
// partitions land in different prefetch generations: greedy-color the
// global partition conflict graph, then stable-sort the boundary list by
// color class. A prefetch window then holds mutually non-adjacent
// philosophers, so the simultaneous hunger the window creates never forms
// fork-precedence chains — each grant costs one handoff instead of
// serializing along the conflict graph. (Chandy–Misra makes a hungry
// philosopher holding clean forks block its neighbors until it eats;
// issuing requests in raw partition order puts conflict-adjacent
// partitions in the same window and turns that blocking into
// O(parts)-deep chains.) The coloring is over the GLOBAL graph in global
// ID order: partNeighbors is the same on every worker, so every worker
// derives the same color classes, and the simultaneously-open windows
// across workers stay mostly non-adjacent too — which matters because
// placement often scatters a partition's conflict neighbors onto other
// workers, where a local-only ordering would see nothing to separate.
func (w *worker[V, M]) orderBoundaryByColor(partNeighbors [][]partition.ID) {
	color := make([]int8, len(partNeighbors))
	for i := range color {
		color[i] = -1
	}
	for p := range partNeighbors {
		var used uint64 // colors taken by already-colored neighbors
		for _, q := range partNeighbors[p] {
			if c := color[q]; c >= 0 && c < 64 {
				used |= 1 << c
			}
		}
		c := int8(0)
		for used&(1<<c) != 0 && c < 63 {
			c++
		}
		color[p] = c
	}
	sort.SliceStable(w.boundaryParts, func(i, j int) bool {
		return color[w.boundaryParts[i]] < color[w.boundaryParts[j]]
	})
}

package engine

// sched.go is the partition scheduler (DESIGN.md §14): the one pass that
// BSP, Async and BAP all make over a worker's partitions on its compute
// threads. Two mechanisms, both within one pass:
//
//  1. Fork prefetch. Under PartitionLock, boundary partitions' fork
//     acquisitions are issued asynchronously (chandy.RequestForks) up to a
//     bounded window ahead of execution, in conflict-colour order, so
//     fork-grant latency runs concurrently with compute instead of blocking
//     a thread. Granted partitions run first: a granted philosopher is
//     eating and excludes its neighbors until released, so sitting on a
//     grant delays other workers.
//  2. One shared cursor. Every other partition — the p-internal ones under
//     PartitionLock, all of them under any other technique — is handed out
//     in ascending order to whichever thread is free, so threads balance at
//     partition granularity and a single thread runs the partitions in the
//     order of the worker's vertex list. Cursor partitions fill the windows
//     while prefetches are in flight; OverlapComputeNs measures that time.
//
// Correctness is inherited, not re-argued: partitions still execute via the
// same runPartition / runMeal paths, fork exclusion and the
// flush-before-handoff C1 ordering are untouched (flushStaged still runs
// before Release), and the only thing the scheduler decides is the order in
// which one worker's own partitions run — an order the engine never
// promised.
//
// Liveness: every issued RequestForks is claimed by exactly one thread.
// Grants land on one ready list; a thread with nothing else to run waits
// for it, not for a specific philosopher, so a grant is always consumed
// promptly and released — the condition Chandy–Misra's starvation-freedom
// argument needs. A thread leaves the pass once the cursor is exhausted,
// every boundary partition has been considered and every grant claimed;
// the claim that makes this true wakes the waiters. An Abort closes the
// pending grant channels, Collect returns false, and the pass completes
// without running the aborted partitions.

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

// partSched is one worker's scheduler. It lives on the worker and is reset
// at the start of every pass, so a pass allocates nothing of its own but
// the compute goroutines and one grant forwarder per prefetch.
type partSched[V, M any] struct {
	w *worker[V, M]

	// window bounds the prefetches issued but not yet claimed: enough to
	// keep every thread fed and the grant pipeline full, few enough that
	// granted-but-unexecuted partitions do not starve their neighbors on
	// other workers.
	window int

	// boundary lists the partitions whose forks are prefetched, in
	// conflict-colour order (PartitionLock only); cursor lists every other
	// partition in ascending order. Both are fixed at setup.
	boundary []partition.ID
	cursor   []partition.ID

	mu      sync.Mutex
	cond    sync.Cond // on mu: a grant became ready, or the pass drained
	nextB   int       // next boundary index to consider
	nextC   int       // next cursor index to hand out
	reqs    []prefReq // issued this pass
	ready   []int     // indices into reqs, in grant order
	claimed int       // ready[:claimed] have been taken by a thread
	wg      sync.WaitGroup
}

func (sc *partSched[V, M]) init(w *worker[V, M]) {
	sc.w = w
	sc.cursor = w.parts
	sc.window = max(2, 2*w.r.cfg.ThreadsPerWorker)
	sc.cond.L = &sc.mu
}

// runPass runs one pass over the worker's partitions: every compute thread
// executes partitions until the scheduler has none left, then folds its
// step-local counters.
func (w *worker[V, M]) runPass(s int) {
	sc := &w.sched
	sc.mu.Lock()
	sc.nextB, sc.nextC, sc.claimed = 0, 0, 0
	sc.reqs, sc.ready = sc.reqs[:0], sc.ready[:0]
	sc.topUpLocked()
	sc.mu.Unlock()

	for _, th := range w.threads {
		th.superstep = s
		sc.wg.Add(1)
		go func() {
			defer sc.wg.Done()
			sc.run(th)
			th.fold()
		}()
	}
	sc.wg.Wait()
}

// run is one thread's scheduling loop: granted prefetches first, then the
// cursor, then waiting for outstanding grants.
func (sc *partSched[V, M]) run(t *thread[V, M]) {
	sc.mu.Lock()
	for {
		if sc.claimed < len(sc.ready) {
			req := sc.reqs[sc.ready[sc.claimed]]
			sc.claimed++
			sc.topUpLocked()
			sc.mu.Unlock()
			t.runPrefetched(req)
			sc.mu.Lock()
			continue
		}
		if sc.nextC < len(sc.cursor) {
			p := sc.cursor[sc.nextC]
			sc.nextC++
			outstanding := len(sc.reqs) > sc.claimed
			sc.mu.Unlock()
			if outstanding {
				t0 := time.Now()
				t.runPartition(p)
				sc.w.r.reg.Add(metrics.OverlapComputeNs, int64(time.Since(t0)))
			} else {
				t.runPartition(p)
			}
			sc.mu.Lock()
			continue
		}
		if sc.drainedLocked() {
			sc.mu.Unlock()
			return
		}
		// Only outstanding prefetches are left: the thread is parked on
		// forks, which is what lock_wait_ns charges (a later Collect of a
		// grant that already arrived observes zero wait).
		t0 := time.Now()
		sc.cond.Wait()
		sc.w.r.reg.Add(metrics.LockWaitNs, int64(time.Since(t0)))
	}
}

// drainedLocked reports whether every boundary partition has been
// considered and every issued prefetch claimed. Requires sc.mu.
func (sc *partSched[V, M]) drainedLocked() bool {
	return sc.nextB == len(sc.boundary) && sc.claimed == len(sc.reqs)
}

// topUpLocked issues fork prefetches until the outstanding window is full
// or the boundary list is exhausted, applying the halted-partition skip
// (§5.4), and wakes the waiting threads once the pass has drained.
// Requires sc.mu.
func (sc *partSched[V, M]) topUpLocked() {
	w := sc.w
	for len(sc.reqs)-sc.claimed < sc.window && sc.nextB < len(sc.boundary) {
		p := sc.boundary[sc.nextB]
		sc.nextB++
		if !w.r.cfg.DisableHaltedPartitionSkip && !w.partActive(p) {
			continue // nothing to run, no forks
		}
		ch := w.mgr.RequestForks(chandy.PhilID(p))
		if ch == nil {
			// Aborted: nothing further will be granted. Stop issuing; the
			// already-issued requests drain via their closed channels.
			sc.nextB = len(sc.boundary)
			break
		}
		w.r.reg.Add(metrics.ForksPrefetched, 1)
		sc.reqs = append(sc.reqs, prefReq{p: p, ch: ch})
		go sc.forward(len(sc.reqs)-1, ch)
	}
	if sc.drainedLocked() {
		sc.cond.Broadcast()
	}
}

// forward moves request idx onto the ready list once its forks are in
// hand (or its wait was aborted) and wakes one waiting thread.
func (sc *partSched[V, M]) forward(idx int, ch <-chan struct{}) {
	<-ch
	sc.mu.Lock()
	sc.ready = append(sc.ready, idx)
	sc.cond.Signal()
	sc.mu.Unlock()
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

// orderBoundary splits the worker's partitions for PartitionLock: those
// that share forks with a neighbor partition are prefetched, the rest go
// through the cursor. The prefetch list is ordered so that conflicting
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
func (sc *partSched[V, M]) orderBoundary(partNeighbors [][]partition.ID) {
	sc.boundary, sc.cursor = nil, nil
	for _, p := range sc.w.parts {
		if len(partNeighbors[p]) > 0 {
			sc.boundary = append(sc.boundary, p)
		} else {
			sc.cursor = append(sc.cursor, p)
		}
	}
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
	sort.SliceStable(sc.boundary, func(i, j int) bool {
		return color[sc.boundary[i]] < color[sc.boundary[j]]
	})
}

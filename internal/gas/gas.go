// Package gas implements a GraphLab-async-style engine (§2.3): pull-based
// gather/apply/scatter vertex programs, no supersteps, lightweight fibers
// (goroutines) paired with individual vertices (§5.1), and vertex-based
// distributed locking via Chandy–Misra for serializability (§4.3). This is
// the baseline the paper compares partition-based locking against: the
// vertex-granularity forks maximize parallelism but generate per-vertex
// control traffic and allow almost no message batching.
package gas

import (
	"sync"
	"sync/atomic"
	"time"

	"serialgraph/internal/chandy"
	"serialgraph/internal/cluster"
	"serialgraph/internal/engine"
	"serialgraph/internal/graph"
	"serialgraph/internal/history"
	"serialgraph/internal/metrics"
	"serialgraph/internal/model"
	"serialgraph/internal/msgstore"
	"serialgraph/internal/partition"
)

// Config parameterizes a GAS run.
type Config struct {
	// Workers is the simulated cluster size. Default 1.
	Workers int
	// FibersPerWorker is how many goroutine fibers execute vertices
	// concurrently per worker; GraphLab over-threads to mask communication
	// latency (§5.1). Default 64.
	FibersPerWorker int
	// Serializable enables vertex-based distributed locking. Off, the
	// engine is GraphLab async without serializability: GAS phases of
	// neighboring vertices may interleave (§2.3).
	Serializable bool
	// Latency is the simulated network model.
	Latency cluster.LatencyModel
	// BufferCap bounds the replica-update batch size. Default 512; actual
	// batches stay tiny because every fork handoff forces a flush, which
	// is precisely the paper's criticism of vertex-based locking (§5.2).
	BufferCap int
	// Seed feeds hash placement of vertices onto workers.
	Seed uint64
	// Partitioner names the placement partitioner ("" or "hash", "range",
	// "ldg", "fennel"; see partition.Kinds). GAS maps one partition per
	// worker (§5.1), so the kind only controls which worker owns each
	// vertex — locality-aware kinds shrink replica-update traffic.
	Partitioner string
	// MaxExecutions aborts runs that do not quiesce (non-serializable
	// coloring can livelock, §2.3): past it, fibers drop the vertices they
	// pop instead of executing them. Default 200 × |V|.
	MaxExecutions int64
	// TrackHistory attaches a transaction recorder.
	TrackHistory bool
}

func (c Config) withDefaults(n int) Config {
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.FibersPerWorker <= 0 {
		c.FibersPerWorker = 64
	}
	if c.BufferCap <= 0 {
		c.BufferCap = 512
	}
	if c.MaxExecutions <= 0 {
		c.MaxExecutions = 200 * int64(n)
	}
	return c
}

// replUpdate carries one vertex's new value to a remote replica, plus the
// out-neighbors on that worker to activate (scatter). Activate lives in
// its batch slot: a recycled batch brings each slot's list back with it
// (Outbox.AddFunc), so a steady run allocates no lists.
type replUpdate[V any] struct {
	Src      graph.VertexID
	Val      V
	Ver      uint32
	Activate []graph.VertexID
}

// vertexState tracks scheduling so a vertex never executes concurrently
// with itself.
type vertexState uint8

const (
	idle vertexState = iota
	queued
	running
	runningRerun // re-activated while running; requeue on completion
)

type gworker[V comparable, M any] struct {
	r  *grunner[V, M]
	id int

	ep  *cluster.Endpoint
	mgr *chandy.Manager

	// replica holds the last delivered value of every remote vertex; local
	// vertices read the primary directly.
	replica    []V
	replicaVer []uint32
	replicaMu  sync.RWMutex

	// schedMu guards the run queue and the hold: the worker holds one unit
	// of the transport's in-flight count exactly while a vertex is queued or
	// running (held), which makes Run's WaitIdle the termination test.
	schedMu sync.Mutex
	cond    *sync.Cond
	queue   []graph.VertexID
	state   []vertexState // indexed by global vertex ID; owned vertices only
	running int           // fibers executing a vertex
	held    bool
	closed  bool

	// out batches replica updates per destination worker. With locking they
	// accumulate until the next fork handoff to that worker flushes them
	// (§6.3); without, GraphLab async sends them as they happen (cap 1).
	out *msgstore.Outbox[replUpdate[V]]
}

type grunner[V comparable, M any] struct {
	g    *graph.Graph
	prog model.GASProgram[V, M]
	cfg  Config
	pm   *partition.Map
	tr   cluster.Transport

	workers []*gworker[V, M]
	// values is the primary copy of every vertex. Reads and writes go
	// through the stripe locks: without serializability, a local gather
	// may race an owner's apply (deliberately stale data, §2.3), and the
	// stripes keep that well-defined.
	values    []V
	valStripe [64]sync.Mutex

	versions []atomic.Uint32
	rec      *history.Recorder
	// reg is the run's counter ledger, kept as the engine keeps its own:
	// executions, the lock managers' acquires, forks and tokens, and the
	// outboxes' batches (remote_batches and remote_batch_bytes reconcile
	// with the transport's data ledger).
	reg *metrics.Registry
	// batchPool recycles replica-update batches: a receiver drops its batch
	// here once applied and every outbox starts its batches from it. The
	// GAS transport never duplicates a delivery (it has no fault
	// injection), so a batch has one owner at a time; the lock managers
	// recycle their control batches through ctrlPool for the same reason.
	batchPool sync.Pool
	ctrlPool  chandy.BatchPool

	stopped atomic.Bool // MaxExecutions reached
	maxConc atomic.Int64
	conc    atomic.Int64
}

// Run executes the GAS program until global quiescence and returns the final
// values. Quiescence is exact: every worker holds a unit of the transport's
// in-flight count while it has a vertex queued or running, so the count is
// zero — and WaitIdle returns — exactly when no vertex is active anywhere
// and no message is in flight (schedule and fiberLoop keep the holds). A
// run that reaches MaxExecutions drains the same way, unconverged.
func Run[V comparable, M any](g *graph.Graph, prog model.GASProgram[V, M], cfg Config) ([]V, engine.Result, *history.Recorder, error) {
	cfg = cfg.withDefaults(g.NumVertices())
	r := &grunner[V, M]{g: g, prog: prog, cfg: cfg, reg: metrics.New()}
	n := g.NumVertices()
	// One "partition" per worker: GraphLab async is not partition aware
	// (§5.1); the map only records vertex placement.
	pm, err := partition.New(cfg.Partitioner, g, cfg.Workers, cfg.Workers, cfg.Seed)
	if err != nil {
		return nil, engine.Result{}, nil, err
	}
	r.pm = pm
	quality := partition.Report(g, r.pm)

	r.values = make([]V, n)
	for v := 0; v < n; v++ {
		r.values[v] = prog.Init(graph.VertexID(v), g)
	}
	if cfg.TrackHistory {
		r.versions = make([]atomic.Uint32, n)
		r.rec = history.NewRecorder()
	}

	r.tr = cluster.New(cfg.Workers, cfg.Latency)
	defer r.tr.Close()

	for w := 0; w < cfg.Workers; w++ {
		r.workers = append(r.workers, newGWorker(r, w))
	}

	// Initially every vertex is active (§7.2.4 and GraphLab's semantics).
	for v := 0; v < n; v++ {
		u := graph.VertexID(v)
		r.workers[r.pm.WorkerOf(u)].schedule(u)
	}

	// The clock starts before the first fiber: a fiber executes as soon as
	// it is spawned, since every vertex is scheduled already.
	start := time.Now()
	var wg sync.WaitGroup
	for _, w := range r.workers {
		for f := 0; f < cfg.FibersPerWorker; f++ {
			wg.Add(1)
			go func(w *gworker[V, M]) {
				defer wg.Done()
				w.fiberLoop()
			}(w)
		}
	}

	res := engine.Result{Partition: quality}
	r.tr.WaitIdle()
	res.Converged = !r.stopped.Load()
	res.ComputeTime = time.Since(start)

	for _, w := range r.workers {
		w.close()
	}
	wg.Wait()

	res.Net = r.tr.Stats().Load()
	res.Metrics = r.reg.Snapshot()
	res.Executions = res.Metrics.Get(metrics.Executions)
	res.ForkSends = res.Metrics.Get(metrics.ForkGrants)
	res.MaxConcurrency = r.maxConc.Load()
	return r.values, res, r.rec, nil
}

func (r *grunner[V, M]) loadValue(u graph.VertexID) V {
	lk := &r.valStripe[u%64]
	lk.Lock()
	v := r.values[u]
	lk.Unlock()
	return v
}

func (r *grunner[V, M]) storeValue(u graph.VertexID, v V) {
	lk := &r.valStripe[u%64]
	lk.Lock()
	r.values[u] = v
	lk.Unlock()
}

func newGWorker[V comparable, M any](r *grunner[V, M], id int) *gworker[V, M] {
	n := r.g.NumVertices()
	w := &gworker[V, M]{
		r: r, id: id,
		replica:    make([]V, n),
		replicaVer: make([]uint32, n),
		state:      make([]vertexState, n),
	}
	copy(w.replica, r.values) // replicas start at the common Init values
	w.cond = sync.NewCond(&w.schedMu)
	w.ep = cluster.NewEndpoint(r.tr, cluster.WorkerID(id), w.onData, w.onCtrl)
	batchCap := 1
	if r.cfg.Serializable {
		batchCap = r.cfg.BufferCap
	}
	w.out = msgstore.NewOutbox(r.cfg.Workers, batchCap, func(dest int, batch []replUpdate[V]) {
		bytes := cluster.BatchHeaderBytes
		for _, up := range batch {
			bytes += cluster.EntryHeaderBytes + r.prog.ValBytes + 4*len(up.Activate)
		}
		r.reg.Add(metrics.RemoteBatches, 1)
		r.reg.Add(metrics.RemoteBatchBytes, int64(bytes))
		r.reg.Add(metrics.RemoteEntriesFlushed, int64(len(batch)))
		w.ep.SendData(cluster.WorkerID(dest), batch, bytes)
	})
	w.out.SetAlloc(func() []replUpdate[V] {
		if v := r.batchPool.Get(); v != nil {
			return v.([]replUpdate[V])
		}
		return nil
	})
	if r.cfg.Serializable {
		ownerOf := func(p chandy.PhilID) int { return r.pm.WorkerOf(graph.VertexID(p)) }
		w.mgr = chandy.NewBatchManager(id, ownerOf, cluster.LockSender[chandy.Ctrl](w.ep, r.reg), w.out.FlushTo)
		w.mgr.SetRecycle(&r.ctrlPool)
		w.mgr.SetMetrics(r.reg)
		w.mgr.Reserve(len(r.pm.Owned(id)), n)
		var nbs []chandy.PhilID
		for v := 0; v < n; v++ {
			u := graph.VertexID(v)
			if r.pm.WorkerOf(u) != id {
				continue
			}
			nbs = nbs[:0] // straight off the CSR: AddPhil sorts and drops repeats
			for _, list := range [2][]graph.VertexID{r.g.OutNeighbors(u), r.g.InNeighbors(u)} {
				for _, x := range list {
					nbs = append(nbs, chandy.PhilID(x))
				}
			}
			w.mgr.AddPhil(chandy.PhilID(u), nbs)
		}
	}
	return w
}

// schedule marks u runnable on its owner worker (u must be owned by w),
// taking the worker's hold if it had none.
//
// No activation is lost: the hold is taken and dropped only under schedMu,
// so a worker's last fiber either sees u in the queue and keeps the hold,
// or has released it and schedule holds again. A scatter calls schedule
// while its own vertex runs, and onData while its batch is still in
// flight, so the cause is counted until the effect is.
func (w *gworker[V, M]) schedule(u graph.VertexID) {
	w.schedMu.Lock()
	switch w.state[u] {
	case idle:
		w.enqueueLocked(u)
		if !w.held {
			w.held = true
			w.r.tr.Hold()
		}
	case running:
		w.state[u] = runningRerun
	}
	w.schedMu.Unlock()
}

func (w *gworker[V, M]) enqueueLocked(u graph.VertexID) {
	w.state[u] = queued
	w.queue = append(w.queue, u)
	w.cond.Signal()
}

func (w *gworker[V, M]) close() {
	w.schedMu.Lock()
	w.closed = true
	w.cond.Broadcast()
	w.schedMu.Unlock()
}

// scatterScratch is a fiber's scatter state, reused between executions.
type scatterScratch struct {
	seen []bool             // by worker: holds a replica of the executing vertex
	acts [][]graph.VertexID // by worker: out-neighbors to activate there
}

// fiberLoop is one fiber: pop an active vertex, lock, execute GAS, unlock.
// spare is the fiber's last gather accumulator, which the next gather
// restarts from when the program can Reset one.
func (w *gworker[V, M]) fiberLoop() {
	sc := &scatterScratch{seen: make([]bool, w.r.cfg.Workers), acts: make([][]graph.VertexID, w.r.cfg.Workers)}
	var spare M
	for {
		w.schedMu.Lock()
		for len(w.queue) == 0 && !w.closed {
			w.cond.Wait()
		}
		if w.closed {
			w.schedMu.Unlock()
			return
		}
		u := w.queue[0]
		w.queue = w.queue[1:]
		w.state[u] = running
		w.running++
		w.schedMu.Unlock()

		if !w.r.stopped.Load() {
			w.executeVertex(u, sc, &spare)
		}

		w.schedMu.Lock()
		if w.state[u] == runningRerun {
			w.enqueueLocked(u)
		} else {
			w.state[u] = idle
		}
		if w.running--; w.running == 0 && len(w.queue) == 0 {
			// The worker's last fiber found the queue empty: flush the
			// updates its executions buffered, so they are in flight
			// before the hold goes.
			w.out.FlushAll()
			w.held = false
			w.r.tr.Release()
		}
		w.schedMu.Unlock()
	}
}

// executeVertex runs one gather/apply/scatter transaction on u.
func (w *gworker[V, M]) executeVertex(u graph.VertexID, sc *scatterScratch, spare *M) {
	r := w.r
	if w.mgr != nil {
		if !w.mgr.Acquire(chandy.PhilID(u)) {
			return // manager aborted; the GAS engine has no recovery path
		}
		defer w.mgr.Release(chandy.PhilID(u))
	}
	r.reg.Add(metrics.Executions, 1)
	if r.reg.Get(metrics.Executions) > r.cfg.MaxExecutions {
		r.stopped.Store(true)
	}
	c := r.conc.Add(1)
	for {
		m := r.maxConc.Load()
		if c <= m || r.maxConc.CompareAndSwap(m, c) {
			break
		}
	}
	defer r.conc.Add(-1)

	var txn history.Txn
	if r.rec != nil {
		txn.Vertex = u
		txn.Start = r.rec.Tick()
		txn.ReadVer = r.versions[u].Load()
	}

	// Gather: pull each in-neighbor's current value (local primaries
	// directly, remote from the replica table, read-locked once), folding
	// from the first contribution or, with Reset, from the emptied spare.
	var acc M
	folding := r.prog.Reset != nil
	if folding {
		acc = r.prog.Reset(*spare)
	}
	in := r.g.InNeighbors(u)
	w.replicaMu.RLock()
	for i, x := range in {
		var xv V
		var ver uint32
		if r.pm.WorkerOf(x) == w.id {
			xv = r.loadValue(x)
			if r.rec != nil {
				ver = r.versions[x].Load()
			}
		} else {
			xv, ver = w.replica[x], w.replicaVer[x]
		}
		if r.rec != nil {
			txn.Reads = append(txn.Reads, history.Read{
				Src: x, SlotVer: ver, PrimaryVer: r.versions[x].Load(),
			})
		}
		m := r.prog.Gather(u, x, xv, 1)
		if i > 0 || folding {
			acc = r.prog.Sum(acc, m)
		} else {
			acc = m
		}
	}
	w.replicaMu.RUnlock()

	// Apply.
	old := r.loadValue(u)
	newV, activate := r.prog.Apply(u, old, acc, len(in) > 0)
	if folding {
		*spare = acc
	}
	changed := newV != old
	var ver uint32
	if changed {
		r.storeValue(u, newV)
		if r.versions != nil {
			ver = r.versions[u].Add(1)
		}
	}

	if r.rec != nil {
		txn.End = r.rec.Tick()
		txn.Wrote = changed
		txn.WriteVer = ver
		r.rec.Append(txn)
	}

	// Scatter: push the new value to remote replicas of u and activate
	// out-neighbors when requested.
	if !changed && !activate {
		return
	}
	for _, x := range r.g.OutNeighbors(u) {
		ow := r.pm.WorkerOf(x)
		if ow == w.id {
			if activate {
				w.schedule(x)
			}
			continue
		}
		sc.seen[ow] = true
		if activate {
			sc.acts[ow] = append(sc.acts[ow], x)
		}
	}
	val := r.loadValue(u)
	for ow, seen := range sc.seen {
		if seen {
			acts := sc.acts[ow]
			w.out.AddFunc(ow, func(up *replUpdate[V]) {
				up.Src, up.Val, up.Ver = u, val, ver
				up.Activate = append(up.Activate[:0], acts...)
			})
			sc.seen[ow], sc.acts[ow] = false, acts[:0]
		}
	}
}

// onData applies a batch of replica updates and schedules its activations.
// The batch is dead afterwards: it goes back to the run's pool, in the box
// it arrived in, for some outbox to refill.
func (w *gworker[V, M]) onData(from cluster.WorkerID, payload any) {
	batch := payload.([]replUpdate[V])
	w.replicaMu.Lock()
	for _, up := range batch {
		w.replica[up.Src] = up.Val
		w.replicaVer[up.Src] = up.Ver
	}
	w.replicaMu.Unlock()
	for _, up := range batch {
		for _, x := range up.Activate {
			w.schedule(x)
		}
	}
	w.r.batchPool.Put(payload)
}

func (w *gworker[V, M]) onCtrl(from cluster.WorkerID, payload any) {
	w.mgr.HandleBatch(chandy.BatchOf(payload))
}

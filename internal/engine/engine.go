package engine

import (
	"fmt"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"serialgraph/internal/chandy"
	"serialgraph/internal/checkpoint"
	"serialgraph/internal/metrics"
	"serialgraph/internal/msgstore"

	"serialgraph/internal/cluster"
	"serialgraph/internal/graph"
	"serialgraph/internal/history"
	"serialgraph/internal/model"
	"serialgraph/internal/partition"
	"serialgraph/internal/wire"
)

// runner holds the state shared by the master and all workers of one run.
type runner[V, M any] struct {
	g    *graph.Graph
	prog model.Program[V, M]
	cfg  Config
	pm   *partition.Map
	tr   cluster.Transport
	reg  *metrics.Registry

	workers []*worker[V, M]

	// values is the primary copy of every vertex value; each slot is
	// written only by executions of its vertex, which the engine (and the
	// synchronization technique) never runs concurrently with itself. The
	// halt flags live with the workers (worker.awake).
	values []V

	// classes is the §5.3 class of every vertex (addWorkers), for the token
	// techniques and VertexLockGiraph only.
	classes []partition.Class

	// initialForks snapshots each lock manager's fresh fork distribution
	// (captured before the first superstep): the fork state a rewind to the
	// initial state restores. Indexed like workers; nil when the technique
	// has no managers.
	initialForks [][]byte

	// done carries a worker's ID each time it finishes a superstep Run
	// dispatched to it; the barrier and the confined replay wait on it.
	done chan int

	// versions tracks per-vertex write versions when history is recorded.
	versions []atomic.Uint32

	// batchPool recycles emitted remote-batch slices: a receiver drops its
	// spent batch here after PutBatch, and every worker's buffer cache
	// restarts its next batch from the pool. Only safe when recycleBatches
	// is set — with fault injection active the transport may duplicate a
	// delivery (at-least-once), and a recycled slice would alias the copy
	// still on the wire. ctrlPool is the same for the lock managers'
	// control batches.
	batchPool      sync.Pool
	ctrlPool       chandy.BatchPool
	recycleBatches bool
	rec            *history.Recorder

	// replaying is set while confined recovery re-executes supersteps on
	// the crashed workers' partitions. Replay executions are suppressed
	// from the transaction recorder — the original executions were already
	// discarded by the recorder reset, and the replay is reconstruction,
	// not new history.
	replaying atomic.Bool
	// replayDest, valid while replaying is set, marks the workers being
	// recovered. Below the frontier a replaying worker's remote sends are
	// delivered only to other recovering workers: the healthy side already
	// received the originals while the sender was alive, and a replayed
	// duplicate would overwrite a healthy write store's frontier-step slot
	// with an earlier step's value under a newer version.
	replayDest []bool
	// replayFrontier is the superstep the crash was detected at. The dead
	// workers' sends during that superstep were dropped at the transport
	// (a killed sender loses its data traffic), so the frontier replay
	// step must deliver its regenerated sends everywhere; earlier replay
	// steps' sends were originally delivered and stay confined.
	replayFrontier int

	// dirty marks vertices written since the last checkpoint; the next
	// checkpoint can then be a delta generation carrying only those
	// vertices. Allocated only when checkpointing is configured.
	dirty []atomic.Bool

	// lastCheckpoint is the superstep of the run's restore point, the
	// newest generation it wrote or restored, -1 when none (the initial
	// state); confined recovery replays from lastCheckpoint+1, and delta
	// generations name it as their base. ckptDir holds that generation:
	// CheckpointDir once the run has checkpointed, the RestoreFrom file's
	// directory before, and never "" while lastCheckpoint >= 0.
	lastCheckpoint int
	ckptDir        string
	// gensSinceFull counts delta generations written since the last full
	// one, bounding the chain a restore must walk.
	gensSinceFull int
	// forceFullCkpt forces the next generation to be full: set whenever
	// the dirty-vertex set stopped describing the diff against the base
	// generation (after any restore or reset).
	forceFullCkpt bool
	// mutatedSince marks topology mutations applied since the last
	// checkpoint. Replay needs the topology the original supersteps ran
	// on, so confined recovery is ineligible until the next checkpoint.
	mutatedSince bool

	// aggAt retains each superstep's merged aggregator map while confined
	// recovery is enabled, so replayed supersteps can be fed the exact
	// aggregate inputs their originals saw. Pruned at checkpoints.
	aggAt map[int]map[string]float64

	// reports holds the workers' halves of the current barrier.
	reports []StepReport

	concurrency atomic.Int64
	maxConc     atomic.Int64
}

// newRunner builds the state every deployment of a run shares: partition
// map, initial values, history, checkpoint and recovery bookkeeping. cfg
// must carry its defaults; a transport and workers come next (attach,
// addWorkers).
func newRunner[V, M any](g *graph.Graph, prog model.Program[V, M], cfg Config) *runner[V, M] {
	r := &runner[V, M]{g: g, prog: prog, cfg: cfg, pm: cfg.PartitionMap(g), reg: cfg.Metrics}
	if r.reg == nil {
		r.reg = metrics.New()
	}
	n := g.NumVertices()
	r.values = make([]V, n)
	if prog.Init != nil {
		for v := 0; v < n; v++ {
			r.values[v] = prog.Init(graph.VertexID(v), g)
		}
	}
	if cfg.TrackHistory {
		r.versions = make([]atomic.Uint32, n)
		r.rec = history.NewRecorder()
	}
	r.lastCheckpoint = -1
	if cfg.CheckpointEvery > 0 {
		r.dirty = make([]atomic.Bool, n)
	}
	if cfg.Recovery == RecoverConfined {
		r.aggAt = make(map[int]map[string]float64)
	}
	r.recycleBatches = cfg.Fault == nil
	return r
}

// codec is the TCP payload codec for the program's message type, honoring
// the program's explicit serialization contract when it declares one and,
// when batches are recycled, drawing from and retiring to the batch pool
// (wire.Codec.SetPool).
func (r *runner[V, M]) codec() *wire.Codec[M] {
	codec := wire.NewCodec[M]()
	if r.prog.MsgAppend != nil && r.prog.MsgRead != nil {
		codec = wire.NewCodecWith(wire.MsgCodec[M]{Append: r.prog.MsgAppend, Read: r.prog.MsgRead})
	}
	if r.recycleBatches {
		codec.SetPool(&r.batchPool)
	}
	return codec
}

// attach connects the run to its transport and the fault injector.
func (r *runner[V, M]) attach(tr cluster.Transport) {
	r.tr = tr
	if r.cfg.Fault != nil {
		r.cfg.Fault.Attach(tr)
	}
}

// addWorkers builds workers first..end-1, the ones this process hosts,
// and their lock managers. The workers are built concurrently, one
// goroutine each, beside the partition conflict graph and the partition
// quality report, an allocation-free O(V+E) sweep that runs when report is
// set or the technique keeps the class table it fills; all are joined
// before the workers are appended in ID order.
func (r *runner[V, M]) addWorkers(first, end int, report bool) (quality partition.Quality) {
	ws := make([]*worker[V, M], end-first)
	var wg sync.WaitGroup
	for i := range ws {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ws[i] = newWorker(r, first+i)
		}()
	}
	switch r.cfg.Sync {
	case TokenSingle, TokenDual, VertexLockGiraph:
		r.classes = make([]partition.Class, r.g.NumVertices())
	}
	if report || r.classes != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			quality = partition.ReportClassified(r.g, r.pm, r.classes)
		}()
	}
	var partNeighbors [][]partition.ID
	if r.cfg.Sync == PartitionLock {
		partNeighbors = r.pm.Neighbors(r.g)
	}
	wg.Wait()
	r.workers = append(r.workers, ws...)
	switch r.cfg.Sync {
	case PartitionLock:
		for _, w := range r.workers {
			w.initLockManager(partNeighbors)
		}
	case VertexLockGiraph:
		for _, w := range r.workers {
			w.initVertexLockManager()
		}
	}
	r.reports = make([]StepReport, len(r.workers))
	return quality
}

// newTransport builds the run's cluster backend. The TCP backend gets the
// program's payload codec and the run's metrics registry for the
// wire-phase timers.
func (r *runner[V, M]) newTransport() (cluster.Transport, error) {
	if r.cfg.Transport != TransportTCP {
		return cluster.New(r.cfg.Workers, r.cfg.Latency), nil
	}
	tcp, err := cluster.NewTCPLoopback(r.cfg.Workers, r.cfg.Latency, r.codec())
	if err != nil {
		return nil, err
	}
	tcp.SetMetrics(r.reg)
	return tcp, nil
}

// Run executes prog over g under cfg and returns the final vertex values.
// When cfg.TrackHistory is set, the returned recorder holds the
// transaction log for serializability checking.
func Run[V, M any](g *graph.Graph, prog model.Program[V, M], cfg Config) (_ []V, res Result, _ *history.Recorder, err error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, Result{}, nil, err
	}
	if cfg.Mode == BAP && prog.MasterHalt != nil {
		return nil, Result{}, nil, fmt.Errorf("engine: %s halts by MasterHalt, which BAP never consults: it has no global supersteps", prog.Name)
	}

	r := newRunner(g, prog, cfg)
	p := cfg.Workers * cfg.PartitionsPerWorker
	tr, err := r.newTransport()
	if err != nil {
		return nil, Result{}, nil, err
	}
	r.attach(tr)
	// Every exit path stops the workers and joins the transport before the
	// metrics snapshot: a TCP lane writer times its flush once the bytes are
	// on the socket, by when the peer may have delivered them and WaitIdle
	// returned. The counts Result carries are read from that snapshot.
	defer func() {
		r.shutdownWorkers()
		r.tr.Close()
		if err == nil {
			res.Metrics = r.reg.Snapshot()
			res.Executions = res.Metrics.Get(metrics.Executions)
			res.ForkSends = res.Metrics.Get(metrics.ForkGrants)
		}
	}()
	// The quality report runs at setup, outside ComputeTime.
	quality := r.addWorkers(0, cfg.Workers, true)
	r.reg.Add(metrics.CutEdges, int64(quality.CutEdges))
	r.reg.Add(metrics.BoundaryVertices, int64(g.NumVertices()-quality.PInternal))
	// Captured unconditionally (it is one byte per edge at startup): a
	// rollback with no restore point — including one forced by the watchdog
	// on an otherwise fault-free run — rewinds the Chandy–Misra state along
	// with the vertex state.
	for _, w := range r.workers {
		if w.mgr != nil {
			r.initialForks = append(r.initialForks, w.mgr.Export())
		}
	}
	startSuperstep := 0
	if cfg.RestoreFrom != "" {
		s0, err := r.restore(cfg.RestoreFrom)
		if err != nil {
			return nil, Result{}, nil, err
		}
		startSuperstep = s0
	}
	start := time.Now()
	res = Result{Partition: quality}
	// finish totals a completed run.
	finish := func() ([]V, Result, *history.Recorder, error) {
		res.ComputeTime = time.Since(start)
		res.Net = r.tr.Stats().Load()
		res.MaxConcurrency = r.maxConc.Load()
		return r.values, res, r.rec, nil
	}
	if cfg.Mode == BAP {
		r.runBAP(&res)
		for _, w := range r.workers {
			if err := w.sendErr.Load(); err != nil {
				return nil, Result{}, nil, *err
			}
		}
		return finish()
	}
	r.done = make(chan int, len(r.workers))
	for _, w := range r.workers {
		go w.loop()
	}
	// restoreNet is the traffic snapshot at the current restore point (run
	// start, then each checkpoint); a full rollback charges every data
	// message sent since it to wasted_messages.
	restoreNet := r.tr.Stats().Load()
	master := NewMaster(prog, cfg)
	for s := startSuperstep; s < cfg.MaxSupersteps; s++ {
		if cfg.Fault != nil {
			cfg.Fault.BeginSuperstep(s)
		}
		// Workers already dead when the superstep dispatches executed and
		// delivered nothing mid-superstep, which is what makes their
		// partitions cleanly replayable by confined recovery.
		var deadAtStart []cluster.WorkerID
		if cfg.Recovery == RecoverConfined {
			deadAtStart = r.tr.DeadWorkers()
		}
		stepStart := time.Now()
		execsBefore := r.reg.Get(metrics.Executions)
		netBefore := r.tr.Stats().Load()
		var phaseBefore metrics.Snapshot
		if cfg.DetailedStats {
			phaseBefore = r.reg.Snapshot()
		}
		for _, w := range r.workers {
			w.startCh <- s
		}
		stalled := r.collectWorkers()
		if stalled {
			r.reg.Add(metrics.WatchdogStalls, 1)
		}
		r.tr.WaitIdle()
		idleAt := time.Now()
		// Superstep metrics are recorded before the failure check: a
		// superstep a rollback later discards was still executed, so the
		// supersteps counter can exceed Result.Supersteps on faulty runs.
		stepWall := time.Since(stepStart)
		r.reg.Add(metrics.Supersteps, 1)
		r.reg.Observe(metrics.HistSuperstepWall, int64(stepWall))
		r.noteBarrier(s, stepStart, idleAt)

		// Failure detection at the barrier (§6.4): in a real Giraph
		// deployment the master notices a missed heartbeat; in the
		// simulation the transport's aliveness registry plays that role.
		// The check runs before any superstep side effects commit
		// (aggregator merge, store swap, checkpoint), so a checkpoint can
		// never capture a superstep a dead worker participated in.
		commitStart := idleAt
		if dead := r.tr.DeadWorkers(); len(dead) > 0 {
			r.reg.Add(metrics.Rollbacks, 1)
			if r.reg.Get(metrics.Rollbacks) > int64(cfg.MaxRollbacks) {
				return nil, Result{}, nil, fmt.Errorf("engine: workers %v still failing after %d rollbacks (MaxRollbacks)", dead, cfg.MaxRollbacks)
			}
			snap, err := r.restorePoint()
			if err != nil {
				return nil, Result{}, nil, err
			}
			if !r.confinedEligible(dead, deadAtStart, stalled, snap) {
				r.reg.Add(metrics.WastedMessages, r.tr.Stats().Load().DataMessages-restoreNet.DataMessages)
				resume := r.rollback(snap)
				r.reg.Add(metrics.RecomputedSupersteps, int64(s+1-resume))
				r.reg.Add(metrics.RecomputedPartitionSupersteps, int64((s+1-resume)*p))
				restoreNet = r.tr.Stats().Load()
				clear(master.windowAgg) // discarded supersteps replay
				s = resume - 1          // the loop increment lands on resume
				continue
			}
			if err := r.confinedRecover(s, dead, snap); err != nil {
				return nil, Result{}, nil, err
			}
			// Confined recovery brought the crashed workers' partitions back
			// to the frontier: superstep s has now been (re)computed by every
			// partition, so the superstep commits normally below.
			commitStart = time.Now() // the replay was recovery, not commit
		}
		res.Supersteps = s + 1
		if cfg.DetailedStats {
			net := r.tr.Stats().Load().Sub(netBefore)
			cur := r.reg.Snapshot()
			res.SuperstepStats = append(res.SuperstepStats, SuperstepStat{
				Duration:        stepWall,
				Executions:      r.reg.Get(metrics.Executions) - execsBefore,
				DataMsgs:        net.DataMessages,
				CtrlMsgs:        net.ControlMessages,
				ComputeNs:       cur.PhaseNs[metrics.PhaseCompute] - phaseBefore.PhaseNs[metrics.PhaseCompute],
				LocalDeliveryNs: cur.PhaseNs[metrics.PhaseLocalDelivery] - phaseBefore.PhaseNs[metrics.PhaseLocalDelivery],
				RemoteFlushNs:   cur.PhaseNs[metrics.PhaseRemoteFlush] - phaseBefore.PhaseNs[metrics.PhaseRemoteFlush],
				BarrierWaitNs:   cur.PhaseNs[metrics.PhaseBarrierWait] - phaseBefore.PhaseNs[metrics.PhaseBarrierWait],
				BarrierDrainNs:  cur.PhaseNs[metrics.PhaseBarrierDrain] - phaseBefore.PhaseNs[metrics.PhaseBarrierDrain],
				BarrierCommitNs: cur.PhaseNs[metrics.PhaseBarrierCommit] - phaseBefore.PhaseNs[metrics.PhaseBarrierCommit],
			})
		}

		if err := r.commitWorkers(s); err != nil {
			return nil, Result{}, nil, err
		}
		merged, stop := master.Fold(s, r.reports)
		for _, w := range r.workers {
			w.aggPrev = merged
		}
		if r.aggAt != nil {
			r.aggAt[s] = merged
		}
		if err := r.applyMutations(); err != nil {
			return nil, Result{}, nil, err
		}
		commit := time.Since(commitStart)
		r.reg.AddPhase(metrics.PhaseBarrierCommit, commit)
		if cfg.DetailedStats {
			res.SuperstepStats[len(res.SuperstepStats)-1].BarrierCommitNs += int64(commit)
		}
		if cfg.CheckpointEvery > 0 && (s+1)%cfg.CheckpointEvery == 0 {
			cpStart := time.Now()
			if err := r.takeCheckpoint(s); err != nil {
				return nil, Result{}, nil, err
			}
			r.reg.AddPhase(metrics.PhaseCheckpoint, time.Since(cpStart))
			r.reg.Add(metrics.Checkpoints, 1)
			restoreNet = r.tr.Stats().Load()
		}
		if stop {
			res.Converged = true
			break
		}
	}
	return finish()
}

// noteBarrier converts the spread of worker finish times at superstep s's
// barrier into metrics: each worker's barrier-wait is the gap between its
// own finish and the cluster-wide last finish (zero, by construction, for
// the last finisher), and the master's wait from that last finish until
// the transport went idle (idleAt) is the barrier drain. The other end of
// the superstep — the delay from the master's dispatch (stepStart) until a
// worker is running, averaged over the workers because the master-side
// phases are charged once per worker — counts as barrier commit: with more
// workers than CPUs the workers queue for a processor, ≈15% of a short
// superstep. Under the token-passing techniques the finish spread also yields
// the token accounting — the holder's superstep time counts as
// token_hold_ns and the non-holders' barrier waits as token_idle_ns,
// quantifying §4.2's parallelism sacrifice.
func (r *runner[V, M]) noteBarrier(s int, stepStart, idleAt time.Time) {
	last := r.workers[0].finish
	var dispatch time.Duration
	for _, w := range r.workers {
		if w.finish.After(last) {
			last = w.finish
		}
		dispatch += w.begin.Sub(stepStart)
	}
	r.reg.AddPhase(metrics.PhaseBarrierDrain, idleAt.Sub(last))
	r.reg.AddPhase(metrics.PhaseBarrierCommit, dispatch/time.Duration(len(r.workers)))
	holder, _ := r.tokenState(s)
	var idle time.Duration
	for i, w := range r.workers {
		bw := last.Sub(w.finish)
		r.reg.AddPhase(metrics.PhaseBarrierWait, bw)
		if holder >= 0 {
			if i == holder {
				r.reg.Add(metrics.TokenHoldNs, int64(w.finish.Sub(stepStart)))
			} else {
				idle += bw
			}
		}
	}
	if holder >= 0 {
		r.reg.Add(metrics.TokenIdleNs, int64(idle))
	}
}

// applyMutations rebuilds the graph and message stores if any worker
// collected topology mutation requests this superstep. Runs at the barrier
// while the cluster is quiescent. Mutations require SyncNone: the fork
// topology and vertex classifications of the serializable techniques
// assume a static graph (§3's read sets are fixed a priori).
func (r *runner[V, M]) applyMutations() error {
	var adds []graph.Edge
	removes := make(map[edgeKey]struct{})
	for _, w := range r.workers {
		w.mutMu.Lock()
		adds = append(adds, w.mutAdds...)
		for _, k := range w.mutRemoves {
			removes[k] = struct{}{}
		}
		w.mutAdds, w.mutRemoves = nil, nil
		w.mutMu.Unlock()
	}
	if len(adds) == 0 && len(removes) == 0 {
		return nil
	}
	if r.cfg.Sync != SyncNone {
		return fmt.Errorf("engine: topology mutations require SyncNone; %v assumes a static graph", r.cfg.Sync)
	}
	// Replay needs the topology the original supersteps ran on; until the
	// next checkpoint captures a post-mutation restore point, confined
	// recovery is off the table.
	r.mutatedSince = true

	present := make(map[edgeKey]struct{}, r.g.NumEdges())
	var edges []graph.Edge
	for _, e := range r.g.Edges() {
		k := edgeKey{e.Src, e.Dst}
		if _, gone := removes[k]; gone {
			continue
		}
		if _, dup := present[k]; dup {
			continue
		}
		present[k] = struct{}{}
		edges = append(edges, e)
	}
	weighted := r.g.Weighted()
	for _, e := range adds {
		k := edgeKey{e.Src, e.Dst}
		if _, gone := removes[k]; gone {
			continue // removals win within the same superstep
		}
		if _, dup := present[k]; dup {
			continue
		}
		present[k] = struct{}{}
		edges = append(edges, e)
		weighted = weighted || e.Weight != 1
	}
	r.g = graph.NewFromEdges(r.g.NumVertices(), edges, weighted)

	// Rebuild the source tables and message stores against the new
	// in-adjacency, dropping Overwrite slots whose edge no longer exists.
	// The cluster is quiescent, so no entry in flight needs an old table.
	for _, w := range r.workers {
		if w.fan != nil {
			w.fan = msgstore.NewFanOutTable(r.g, w.owned)
		}
		for i, st := range w.stores {
			if st == nil {
				continue
			}
			entries := st.Dump()
			kept := entries[:0]
			for _, e := range entries {
				if e.Src >= 0 && !r.g.HasEdge(e.Src, e.Dst) {
					continue
				}
				kept = append(kept, e)
			}
			ns := w.newStore()
			ns.Load(kept)
			w.stores[i] = ns
		}
	}
	return nil
}

func (r *runner[V, M]) shutdownWorkers() {
	for _, w := range r.workers {
		close(w.startCh)
	}
}

// fullCheckpointEvery bounds a delta chain: at most this many generations
// (one full plus its deltas) ever need to be read to materialize a restore
// point.
const fullCheckpointEvery = 4

// takeCheckpoint snapshots the run after superstep s completed. The master
// calls it at the barrier, when no vertices execute and the transport is
// idle, so the captured state is consistent (§6.4). When a base generation
// exists and the dirty-vertex set is trustworthy, the generation is a delta
// carrying only the vertices written since the base; stores, halt flags,
// aggregators, and fork state are small relative to values and are always
// captured in full.
func (r *runner[V, M]) takeCheckpoint(s int) error {
	useDelta := r.dirty != nil && r.lastCheckpoint >= 0 && !r.forceFullCkpt &&
		r.gensSinceFull < fullCheckpointEvery-1
	snap := &checkpoint.Snapshot[V, M]{
		Superstep:   s,
		Base:        -1,
		NumVertices: len(r.values),
		Halted:      r.haltedFlags(),
		AggPrev:     r.workers[0].aggPrev,
	}
	if useDelta {
		snap.Base = r.lastCheckpoint
		for v := range r.dirty {
			if !r.dirty[v].Load() {
				continue
			}
			snap.DeltaIDs = append(snap.DeltaIDs, int32(v))
			snap.DeltaValues = append(snap.DeltaValues, r.values[v])
			if r.versions != nil {
				snap.DeltaVersions = append(snap.DeltaVersions, r.versions[v].Load())
			}
		}
	} else {
		snap.Values = append([]V(nil), r.values...)
		if r.versions != nil {
			snap.Versions = make([]uint32, len(r.versions))
			for v := range r.versions {
				snap.Versions[v] = r.versions[v].Load()
			}
		}
	}
	for _, w := range r.workers {
		snap.Stores = append(snap.Stores, w.readStore().Dump())
		if w.mgr != nil {
			snap.Forks = append(snap.Forks, w.mgr.Export())
		}
	}
	if err := checkpoint.Save(checkpoint.Path(r.cfg.CheckpointDir, s), snap); err != nil {
		return err
	}
	if useDelta {
		r.gensSinceFull++
	} else {
		r.gensSinceFull = 0
	}
	r.forceFullCkpt = false
	r.lastCheckpoint, r.ckptDir = s, r.cfg.CheckpointDir
	r.mutatedSince = false
	for v := range r.dirty {
		r.dirty[v].Store(false)
	}
	// Everything at or before s is durable now: message logs kept for
	// confined replay and retained aggregate snapshots can shed it.
	for _, w := range r.workers {
		if w.log != nil {
			w.log.TruncateThrough(s)
		}
	}
	for k := range r.aggAt {
		if k < s {
			delete(r.aggAt, k)
		}
	}
	return nil
}

// haltedFlags gathers the workers' halt bits into the vertex-indexed slice
// a checkpoint stores.
func (r *runner[V, M]) haltedFlags() []bool {
	halted := make([]bool, len(r.values))
	for _, w := range r.workers {
		for li, v := range w.owned {
			halted[v] = !w.awake.Test(int32(li))
		}
	}
	return halted
}

// restore starts the run from the generation at path (RestoreFrom),
// materializing its delta chain; it is the run's restore point until the
// run checkpoints. Returns the superstep to start at.
func (r *runner[V, M]) restore(path string) (int, error) {
	snap, err := checkpoint.Materialize[V, M](path)
	if err == nil {
		err = r.fits(snap)
	}
	if err != nil {
		return 0, err
	}
	r.ckptDir = filepath.Dir(path)
	return r.rewind(nil, snap), nil
}

// restorePoint loads the run's restore point: the newest usable generation
// at or below lastCheckpoint in ckptDir, or nil — the initial state — when
// the run has none or every candidate is corrupt. Generations beyond
// lastCheckpoint are not candidates: a reused directory may hold newer
// files from an earlier process, and restoring one would jump the run past
// supersteps it never executed.
func (r *runner[V, M]) restorePoint() (*checkpoint.Snapshot[V, M], error) {
	if r.lastCheckpoint < 0 {
		return nil, nil
	}
	snap, skipped, err := checkpoint.LoadChainMax[V, M](r.ckptDir, r.lastCheckpoint)
	if skipped > 0 {
		r.reg.Add(metrics.CheckpointGensSkipped, int64(skipped))
	}
	if err != nil || snap == nil {
		return nil, err
	}
	return snap, r.fits(snap)
}

// fits rejects a snapshot of another graph or cluster size.
func (r *runner[V, M]) fits(snap *checkpoint.Snapshot[V, M]) error {
	if len(snap.Values) != len(r.values) {
		return fmt.Errorf("engine: checkpoint has %d vertices, graph has %d", len(snap.Values), len(r.values))
	}
	if len(snap.Stores) != len(r.workers) {
		return fmt.Errorf("engine: checkpoint has %d workers, config has %d", len(snap.Stores), len(r.workers))
	}
	return nil
}

// snapStep is the superstep snap captured, -1 for the initial state (nil).
func snapStep[V, M any](snap *checkpoint.Snapshot[V, M]) int {
	if snap == nil {
		return -1
	}
	return snap.Superstep
}

// rewind resets the workers in set (nil: every worker) to snap, or to the
// initial state when snap is nil: their vertices' values and write
// versions, message stores, halt flags, aggregates, message logs and fork
// state (whose Import clears a watchdog abort). A fork edge to a worker
// outside set takes the chandy.Mirror of that worker's live end, which is
// authoritative at a quiescent barrier (every philosopher thinking, every
// held fork dirty); the other edges come from snap or the initial
// placement, which store both ends consistently. snap becomes the restore
// point, the next checkpoint is full, and the recorder drops the discarded
// executions' transactions: the history that must be serializable is the
// one from the restored state. Returns the superstep to resume at.
func (r *runner[V, M]) rewind(set []bool, snap *checkpoint.Snapshot[V, M]) int {
	c := snapStep(snap)
	var halted []bool
	if snap != nil {
		halted = snap.Halted
	}
	for d, w := range r.workers {
		if set != nil && !set[d] {
			continue
		}
		w.discardStep(true)
		w.active.Store(0)
		w.aggPrev = r.prevAgg(c, snap)
		for _, v := range w.owned {
			switch {
			case snap != nil:
				r.values[v] = snap.Values[v]
				if r.versions != nil && len(snap.Versions) == len(r.versions) {
					r.versions[v].Store(snap.Versions[v])
				}
			case r.prog.Init != nil:
				r.values[v] = r.prog.Init(v, r.g)
			default:
				var zero V
				r.values[v] = zero
			}
		}
		if snap != nil {
			w.readStore().Load(snap.Stores[d])
		}
		w.loadHalted(halted)
		if w.mgr != nil {
			state := r.initialForks[d]
			if snap != nil && d < len(snap.Forks) {
				state = snap.Forks[d]
			}
			state = slices.Clone(state)
			for i, e := range w.mgr.Edges() {
				if q := r.philOwner(e[1]); set != nil && !set[q] {
					state[i] = chandy.Mirror(r.workers[q].mgr.EdgeState(e[1], e[0]))
				}
			}
			w.mgr.Import(state) // also clears a watchdog abort
		}
		if w.log != nil {
			w.log.Reset(c + 1) // the rewound supersteps re-log as they re-run
		}
	}
	r.lastCheckpoint = c
	r.forceFullCkpt = true
	if r.rec != nil {
		r.rec.Reset()
	}
	return c + 1
}

// rollback is Giraph-style whole-cluster recovery (§6.4): every worker is
// revived and rewound to snap, and the aggregates of the discarded
// supersteps go. The master calls it at a barrier with the transport idle,
// so no in-flight traffic leaks across it. Returns the superstep to resume
// at.
func (r *runner[V, M]) rollback(snap *checkpoint.Snapshot[V, M]) int {
	for _, wid := range r.tr.DeadWorkers() {
		r.tr.Revive(wid)
	}
	resume := r.rewind(nil, snap)
	for k := range r.aggAt {
		if k >= resume {
			delete(r.aggAt, k)
		}
	}
	r.reg.Add(metrics.PartitionsRestored, int64(r.cfg.Workers*r.cfg.PartitionsPerWorker))
	return resume
}

// confinedEligible decides whether the crash detected at superstep s's
// barrier can be recovered by confined replay (only the crashed workers'
// partitions roll back) instead of a full rollback. Confinement requires:
// the mode is enabled; the watchdog did not declare a stall (a stall means
// in-memory protocol state is suspect everywhere); no topology mutation
// since the last checkpoint (replay needs the topology the originals ran
// on); snap, the restore point loaded, is generation lastCheckpoint, the
// one the healthy workers' logs start after; at least one survivor; and
// every dead worker was already dead when the superstep dispatched (a
// mid-superstep crash leaks partial sends into healthy state).
func (r *runner[V, M]) confinedEligible(dead, deadAtStart []cluster.WorkerID, stalled bool, snap *checkpoint.Snapshot[V, M]) bool {
	if r.cfg.Recovery != RecoverConfined || stalled || r.mutatedSince ||
		snapStep(snap) != r.lastCheckpoint || len(dead) >= len(r.workers) {
		return false
	}
	// Under async modes the replay is not an exact reconstruction — logged
	// messages that were dropped on the wire change the re-execution — so
	// the dead workers' regenerated sends are delivered to healthy workers
	// as semantic duplicates, and injected log entries can reach a replayed
	// vertex EARLIER than any fault-free timeline would have delivered
	// them. Overwrite (latest value wins) and Combine (idempotent fold)
	// absorb duplicates and tolerate early supersets — provided Compute
	// never conditions its sends on the *absence* of messages (a
	// superstep- or value-based bootstrap guard is replay-safe; a
	// len(msgs)==0 guard is not). Queue semantics would count a message
	// twice, so those programs get a full rollback instead.
	if r.cfg.Mode != BSP && r.prog.Semantics == model.Queue {
		return false
	}
	for _, wid := range dead {
		if !slices.Contains(deadAtStart, wid) {
			return false
		}
	}
	return true
}

// confinedRecover rewinds only the dead workers to snap, the restore point
// at lastCheckpoint, and replays supersteps lastCheckpoint+1..s on them:
// healthy workers' sends come from their message logs, and the dead workers
// recompute their own executions. Healthy partitions keep their in-memory
// state throughout.
func (r *runner[V, M]) confinedRecover(s int, dead []cluster.WorkerID, snap *checkpoint.Snapshot[V, M]) error {
	c := r.lastCheckpoint
	deadSet := make([]bool, len(r.workers))
	deadParts := 0
	for _, wid := range dead {
		r.tr.Revive(wid)
		deadSet[wid] = true
		deadParts += len(r.workers[wid].parts)
	}
	r.rewind(deadSet, snap)

	replayed := int64(0)
	r.replayDest = deadSet
	r.replayFrontier = s
	r.replaying.Store(true)
	defer func() {
		r.replaying.Store(false)
		r.replayDest = nil
	}()
	for k := c + 1; k <= s; k++ {
		prev := r.prevAgg(k-1, snap)
		for d, w := range r.workers {
			if !deadSet[d] {
				continue
			}
			w.aggPrev = prev
			// Logged step-k entries are injected BEFORE replay pass k. For
			// BSP they land in the write store, readable only after the
			// swap — the exact original schedule. For async they become
			// visible at pass k, possibly EARLIER than the original eager
			// delivery managed mid-pass — and an entry logged at step k by
			// an earlier recovery's replay may even descend from this
			// worker's own discarded step-k sends. Early delivery of a
			// superset is the contract async confined replay imposes on
			// programs: Compute may not condition sends on the *absence*
			// of messages (see the eligibility note above) — one-shot
			// reads like greedy coloring need the replicas by pass k, and
			// monotone folds only ever benefit from seeing more sooner.
			for h, hw := range r.workers {
				if deadSet[h] {
					continue
				}
				if ents := hw.log.Entries(k, d); len(ents) > 0 {
					r.reg.Add(metrics.FanOutTargets, int64(w.writeStore().PutBatch(ents)))
					replayed += int64(len(ents))
				}
			}
		}
		for d, w := range r.workers {
			if deadSet[d] {
				w.startCh <- k
			}
		}
		for range dead {
			<-r.done
		}
		r.tr.WaitIdle()
		if k == s {
			break
		}
		for d, w := range r.workers {
			if !deadSet[d] {
				continue
			}
			if r.cfg.Mode == BSP {
				w.swapStores()
			}
			// The originals of these aggregates and mutation intents were
			// already merged/applied at the original barriers; the
			// replay's copies must not count twice. Superstep s's are
			// kept — the caller falls through to the normal barrier
			// processing, which consumes them alongside the healthy
			// workers'.
			w.discardStep(false)
		}
	}

	r.reg.Add(metrics.PartitionsRestored, int64(deadParts))
	r.reg.Add(metrics.MessagesReplayed, replayed)
	r.reg.Add(metrics.ConfinedRecoveries, 1)
	r.reg.Add(metrics.RecomputedSupersteps, int64(s-c))
	r.reg.Add(metrics.RecomputedPartitionSupersteps, int64((s-c)*deadParts))
	return nil
}

// prevAgg returns the merged aggregates of superstep k, which a rewind to k
// and the replay of k+1 feed to superstep k+1 as its aggPrev: the retained
// ring first, then the checkpoint's capture, then empty (k before the first
// superstep).
func (r *runner[V, M]) prevAgg(k int, snap *checkpoint.Snapshot[V, M]) map[string]float64 {
	if k < 0 {
		return make(map[string]float64)
	}
	if a, ok := r.aggAt[k]; ok {
		return a
	}
	if snap != nil && k == snap.Superstep && snap.AggPrev != nil {
		return snap.AggPrev
	}
	return make(map[string]float64)
}

// philOwner maps a philosopher ID to the worker hosting it: partitions are
// the philosophers under PartitionLock, vertices under VertexLockGiraph.
func (r *runner[V, M]) philOwner(id chandy.PhilID) int {
	if r.cfg.Sync == PartitionLock {
		return r.pm.WorkerOfPartition(partition.ID(id))
	}
	return r.pm.WorkerOf(graph.VertexID(id))
}

// collectWorkers waits for every worker to reach superstep s's barrier.
// With no watchdog configured it blocks indefinitely. With one, a worker
// that has not finished within the deadline is declared stalled: the
// watchdog kills the unfinished workers (their state is suspect —
// typically a lost fork batch wedged them mid-protocol) and aborts every
// lock manager, so blocked fork-acquires return and the barrier completes.
// The caller then runs recovery exactly as for a crash. Returns whether the
// watchdog fired.
func (r *runner[V, M]) collectWorkers() bool {
	var deadline <-chan time.Time
	if r.cfg.WatchdogTimeout > 0 {
		timer := time.NewTimer(r.cfg.WatchdogTimeout)
		defer timer.Stop()
		deadline = timer.C
	}
	finished := make([]bool, len(r.workers))
	fired := false
	for remaining := len(r.workers); remaining > 0; {
		select {
		case i := <-r.done:
			finished[i] = true
			remaining--
		case <-deadline:
			// Workers may have finished as the timer fired; count them
			// before judging. Declaring a stall on a run that actually
			// completed would poison healthy state.
			for ; remaining > 0 && len(r.done) > 0; remaining-- {
				finished[<-r.done] = true
			}
			if remaining == 0 {
				break
			}
			fired = true
			for i := range r.workers {
				if !finished[i] {
					r.tr.Kill(cluster.WorkerID(i))
				}
			}
			for _, w := range r.workers {
				if w.mgr != nil {
					w.mgr.Abort()
				}
			}
		}
	}
	return fired
}

// tokenState reports the token positions at superstep s. Under TokenSingle
// the global token rotates among workers every superstep (§4.2). Under
// TokenDual every worker's local token steps through its partitions each
// superstep while the global token stays with one worker for
// PartitionsPerWorker consecutive supersteps (§5.3), so every mixed
// boundary vertex of the holder gets a superstep with both tokens.
// Partition placement is round-robin, so every worker owns exactly
// PartitionsPerWorker partitions and the schedule is uniform.
func (r *runner[V, M]) tokenState(s int) (globalHolder, localIdx int) {
	switch r.cfg.Sync {
	case TokenSingle:
		return s % r.cfg.Workers, -1
	case TokenDual:
		k := r.cfg.PartitionsPerWorker
		return (s / k) % r.cfg.Workers, s % k
	default:
		return -1, -1
	}
}

// noteUnitStart/End track how many partitions execute concurrently.
func (r *runner[V, M]) noteUnitStart() {
	c := r.concurrency.Add(1)
	for {
		m := r.maxConc.Load()
		if c <= m || r.maxConc.CompareAndSwap(m, c) {
			break
		}
	}
}

func (r *runner[V, M]) noteUnitEnd() { r.concurrency.Add(-1) }

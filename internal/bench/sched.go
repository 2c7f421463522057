package bench

// sched.go is the overlap-scheduler experiment: how much wall time does
// overlapping synchronization with computation recover? The workload is
// built to have both things the scheduler needs — synchronization latency
// worth hiding, and computation to hide it under:
//
//   - the graph is a clustered community graph where only a quarter of
//     the communities are bridge-connected (a ring through the first
//     schedBridgedFrac of them); the rest are isolated clusters;
//   - placement is community-aligned ranges (partition i == community i,
//     partitions round-robin over workers), so the bridged communities
//     become p-boundary partitions with real cross-worker fork traffic
//     and the isolated ones become p-internal partitions with no forks
//     at all — the partitioner is held ideal on purpose, so the cells
//     compare schedulers, not partition quality;
//   - each worker runs schedThreads=2 compute threads (Giraph-like scarce
//     compute threads) over 16 partitions, and propagation defaults to
//     schedLatency=200µs, a datacenter-unfriendly RTT where a fork
//     handoff costs enough to be worth prefetching.
//
// Under the static scheduler a thread that reaches a boundary partition
// blocks inside Acquire for the full grant chain while p-internal work
// sits unstarted in the shared queue; with only two threads per worker
// those stalls land on the critical path. The overlap scheduler issues
// the boundary partitions' fork requests ahead of execution (in
// conflict-colored order) and keeps the threads eating through the
// internal deques while grants are in flight, so the same grant chains
// run concurrently with compute. Each cell runs static and overlap back
// to back on identical configurations and records both rows; the
// acceptance bars are enforced as panics:
//
//   - partition-lock coloring must get at least 15% faster under the
//     overlap scheduler at acceptance scale (>= 8 workers) — the issue's
//     headline number, driven by fork prefetching;
//   - dual-token coloring must not regress (its static path is already
//     work-conserving, so overlap can only help via stealing);
//   - deterministic BSP PageRank must be bitwise identical with equal
//     superstep counts across schedulers, and async partition-lock SSSP
//     must match the serial oracle exactly under both — the scheduler
//     reorders work, never results;
//   - the overlap runs must actually overlap: forks_prefetched > 0 and
//     overlap_compute_ns > 0 on the headline cell, and forks_prefetched
//     never exceeds lock_acquires.
//
// TestSchedulerAcceptance runs the gate in CI; `benchtab -exp sched`
// records it into BENCH_NNNN.json.

import (
	"fmt"
	"math/rand"
	"slices"
	"time"

	"serialgraph/internal/algorithms"
	"serialgraph/internal/engine"
	"serialgraph/internal/graph"
	"serialgraph/internal/metrics"
	"serialgraph/internal/partition"
)

// schedSpeedupFloor is the acceptance bar: overlap wall time must be at
// most this fraction of static wall time on partition-lock coloring at
// acceptance scale.
const schedSpeedupFloor = 0.85

// schedLatency is the experiment's default propagation delay. The
// scheduler's job is hiding synchronization latency, so the cells model a
// network where that latency is material; measured ratios hold from 50µs
// up, but the margin over scheduler jitter is widest here.
const schedLatency = 200 * time.Microsecond

// schedReps is how many times each coloring cell runs each scheduler; the
// cell reports the medians. A run takes 10–30 ms and is bimodal for the
// static scheduler: about one run in three finds a grant order with hardly
// any stalls (≈10 ms against ≈28 ms). The fastest of a few runs therefore
// compares static's luck with overlap's norm and moved by a factor of three
// between invocations, and one descheduled run drags a mean of ten past the
// bar; the median of ten is what a scheduler costs.
const schedReps = 10

// schedAttempts bounds how often a coloring cell that misses its timing bar
// is measured afresh before the miss counts: on a loaded host a whole cell
// can land in a bad stretch, while a scheduler that really lost its edge
// misses every time.
const schedAttempts = 3

// schedThreads is the per-worker compute thread count. Two threads make
// compute genuinely scarce (Giraph's default is one): a thread blocked in
// Acquire is half the worker's capacity, which is exactly the stall the
// overlap scheduler exists to remove.
const schedThreads = 2

// schedBridgedFrac is the fraction of communities wired into the bridge
// ring; the rest stay isolated and become p-internal partitions.
const schedBridgedFrac = 4 // one in four

// clusteredGraph is communityGraph with only the first `bridged`
// communities joined by the bridge ring; the remaining communities are
// disconnected clusters. Under range placement the bridged prefix turns
// into p-boundary partitions and the isolated rest into p-internal ones.
func clusteredGraph(comms, size, bridged int, seed int64) *graph.Graph {
	r := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(comms * size)
	for c := 0; c < comms; c++ {
		base := c * size
		for i := 0; i < size; i++ {
			u := graph.VertexID(base + i)
			b.AddEdge(u, graph.VertexID(base+(i+1)%size))
			for t := 0; t < 3; t++ {
				if v := graph.VertexID(base + r.Intn(size)); v != u {
					b.AddEdge(u, v)
				}
			}
		}
		if c < bridged {
			next := ((c + 1) % bridged) * size
			for t := 0; t < 2; t++ {
				b.AddEdge(graph.VertexID(base+r.Intn(size)), graph.VertexID(next+r.Intn(size)))
			}
		}
	}
	return b.BuildUndirected()
}

// SchedulerOverlap runs the overlap-scheduler experiment and returns one
// row per (cell, scheduler). It panics on any acceptance violation.
func SchedulerOverlap(cfg Config) []Row {
	if cfg.Latency == 0 {
		cfg.Latency = schedLatency
	}
	cfg = cfg.withDefaults()
	workers := cfg.Workers[0]
	p := workers * workers // engine default: PartitionsPerWorker = Workers
	comms := int(float64(p) * cfg.Scale)
	if comms < workers {
		comms = workers
	}
	bridged := comms / schedBridgedFrac
	if bridged < workers {
		bridged = workers
	}
	g := clusteredGraph(comms, partCommunitySize, bridged, 20)
	cfg.logf("sched: clustered graph n=%d m=%d (%d communities of %d, %d bridged), range placement, %d workers x %d threads, latency %v",
		g.NumVertices(), g.NumEdges(), comms, partCommunitySize, bridged, workers, schedThreads, cfg.Latency)

	scheds := []engine.SchedulerKind{engine.SchedStatic, engine.SchedOverlap}
	engCfg := func(mode engine.Mode, sync engine.Sync, sched engine.SchedulerKind) engine.Config {
		c := engine.Config{
			Workers: workers, Mode: mode, Sync: sync, Scheduler: sched,
			ThreadsPerWorker: schedThreads,
			Latency:          cfg.latencyModel(), Seed: 1, DetailedStats: cfg.Trace,
			MaxSupersteps: 2000,
		}
		// Community-aligned placement: partition i is exactly community i.
		c.Partitioner = func(g *graph.Graph, p, w int) *partition.Map {
			return partition.NewRange(g, p, w)
		}
		return c
	}
	mkRow := func(alg, cell string, sched engine.SchedulerKind, res engine.Result) Row {
		m := res.Metrics
		return Row{
			Experiment: "sched", Algorithm: alg, Dataset: "clustered",
			Workers: workers, Technique: cell + "/" + sched.String(),
			Time: res.ComputeTime, Supersteps: res.Supersteps,
			Executions: res.Executions, DataMsgs: res.Net.DataMessages,
			DataBytes: res.Net.DataBytes, CtrlMsgs: res.Net.ControlMessages,
			Forks: res.ForkSends, MaxConc: res.MaxConcurrency,
			Converged: res.Converged,
			Metrics:   &m, Trace: res.SuperstepStats,
		}
	}
	checkCounters := func(cell string, sched engine.SchedulerKind, sync engine.Sync, requireOverlap bool, res engine.Result) {
		m := res.Metrics
		pref := m.Get(metrics.ForksPrefetched)
		if sched == engine.SchedStatic {
			if pref != 0 || m.Get(metrics.Steals) != 0 || m.Get(metrics.OverlapComputeNs) != 0 {
				panic(fmt.Sprintf("bench: %s static run moved overlap counters", cell))
			}
			return
		}
		if pref > m.Get(metrics.LockAcquires) {
			panic(fmt.Sprintf("bench: %s forks_prefetched %d exceeds lock_acquires %d",
				cell, pref, m.Get(metrics.LockAcquires)))
		}
		if sync == engine.PartitionLock && pref == 0 {
			panic(fmt.Sprintf("bench: %s overlap run issued no fork prefetches", cell))
		}
		// Halting can legitimately drain the internal deques mid-run (SSSP
		// settles its isolated clusters after one superstep), so computing
		// under an outstanding prefetch is only demanded where the workload
		// guarantees internal work: the coloring cells.
		if requireOverlap && m.Get(metrics.OverlapComputeNs) == 0 {
			panic(fmt.Sprintf("bench: %s overlap run never computed under an outstanding prefetch", cell))
		}
	}

	var rows []Row

	// Coloring under the two partition-aware serializable techniques,
	// static vs overlap: schedReps alternating pairs of runs with the order
	// flipped every pair, so whatever else the host is doing lands on both
	// schedulers alike. A row's Time is the median of its scheduler's runs;
	// its counters are those of the fastest.
	colorCell := func(sync engine.Sync) map[engine.SchedulerKind]Row {
		cell := sync.String()
		best := make(map[engine.SchedulerKind]engine.Result)
		runs := make(map[engine.SchedulerKind][]time.Duration)
		for rep := 0; rep < schedReps; rep++ {
			for i := range scheds {
				sched := scheds[(i+rep)%len(scheds)]
				vals, res, _, err := engine.Run(g, algorithms.Coloring(), engCfg(engine.Async, sync, sched))
				if err != nil {
					panic(err)
				}
				if !res.Converged {
					panic(fmt.Sprintf("bench: %s/%v coloring did not converge in %d supersteps", cell, sched, res.Supersteps))
				}
				if cerr := algorithms.ValidateColoring(g, vals); cerr != nil {
					panic(fmt.Sprintf("bench: %s/%v coloring is invalid: %v", cell, sched, cerr))
				}
				runs[sched] = append(runs[sched], res.ComputeTime)
				if rep == 0 || res.ComputeTime < best[sched].ComputeTime {
					best[sched] = res
				}
			}
		}
		times := make(map[engine.SchedulerKind]Row)
		for _, sched := range scheds {
			checkCounters(cell, sched, sync, sync == engine.PartitionLock && workers >= 8, best[sched])
			row := mkRow("coloring", cell, sched, best[sched])
			slices.Sort(runs[sched])
			row.Time = (runs[sched][(schedReps-1)/2] + runs[sched][schedReps/2]) / 2
			times[sched] = row
		}
		return times
	}
	for _, sync := range []engine.Sync{engine.PartitionLock, engine.TokenDual} {
		cell := sync.String()
		// Timing gates only at acceptance scale: tiny smoke runs (few
		// workers, few partitions) have too little lock wait to hide.
		bar := schedSpeedupFloor // partition-lock: overlap must win by 15%
		if sync == engine.TokenDual {
			bar = 1.10 // no forks to prefetch: overlap must not lose
		}
		var static, overlap Row
		var speedup float64
		for attempt := 1; ; attempt++ {
			times := colorCell(sync)
			static, overlap = times[engine.SchedStatic], times[engine.SchedOverlap]
			speedup = float64(overlap.Time) / float64(static.Time)
			cfg.logf("sched: %-14s static=%v overlap=%v (ratio %.2f) prefetched=%d steals=%d overlap_compute=%v",
				cell, static.Time, overlap.Time, speedup,
				overlap.Metrics.Get(metrics.ForksPrefetched), overlap.Metrics.Get(metrics.Steals),
				time.Duration(overlap.Metrics.Get(metrics.OverlapComputeNs)))
			if workers < 8 || speedup <= bar || attempt == schedAttempts {
				break
			}
		}
		rows = append(rows, static, overlap)
		if workers >= 8 && speedup > bar {
			panic(fmt.Sprintf("bench: overlap/static ratio %.3f on %s coloring misses the <= %.2f bar %d times running (static=%v overlap=%v)",
				speedup, cell, bar, schedAttempts, static.Time, overlap.Time))
		}
	}

	// Determinism gates: BSP PageRank bitwise across schedulers, and async
	// partition-lock SSSP exact against the serial oracle under both.
	var basePR []float64
	var basePRRow Row
	for _, sched := range scheds {
		pr, res, _, err := engine.Run(g, algorithms.PageRankAggregated(0.01), engCfg(engine.BSP, engine.SyncNone, sched))
		if err != nil {
			panic(err)
		}
		if !res.Converged {
			panic(fmt.Sprintf("bench: BSP pagerank under %v did not converge in %d supersteps", sched, res.Supersteps))
		}
		checkCounters("bsp-none", sched, engine.SyncNone, false, res)
		row := mkRow("pagerank", "bsp-none", sched, res)
		rows = append(rows, row)
		if sched == engine.SchedStatic {
			basePR, basePRRow = pr, row
			continue
		}
		if row.Supersteps != basePRRow.Supersteps {
			panic(fmt.Sprintf("bench: BSP pagerank took %d supersteps under overlap, %d under static",
				row.Supersteps, basePRRow.Supersteps))
		}
		for i := range pr {
			if pr[i] != basePR[i] {
				panic(fmt.Sprintf("bench: BSP pagerank[%d] = %v under overlap, %v under static", i, pr[i], basePR[i]))
			}
		}
	}
	oracle := algorithms.ShortestPaths(g, 0)
	for _, sched := range scheds {
		dist, res, _, err := engine.Run(g, algorithms.SSSP(0), engCfg(engine.Async, engine.PartitionLock, sched))
		if err != nil {
			panic(err)
		}
		if !res.Converged {
			panic(fmt.Sprintf("bench: sssp under %v did not converge in %d supersteps", sched, res.Supersteps))
		}
		checkCounters("sssp", sched, engine.PartitionLock, false, res)
		for v := range oracle {
			if dist[v] != oracle[v] {
				panic(fmt.Sprintf("bench: sssp dist[%d] = %v under %v, oracle %v", v, dist[v], sched, oracle[v]))
			}
		}
		rows = append(rows, mkRow("sssp", "partition-lock", sched, res))
	}
	return rows
}

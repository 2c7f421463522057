// Graphrun executes one algorithm over a graph file (or generated dataset)
// with a chosen engine and synchronization technique, printing results and
// run statistics.
//
// Usage:
//
//	graphrun -alg coloring -graph g.bin -workers 16 -technique partition-locking
//	graphrun -alg pagerank -dataset TW -scale 0.5 -technique dual-token -eps 0.1
//	graphrun -alg sssp -dataset OR -technique vertex-locking   (GAS engine)
//
// Observability (see README "Profiling a run"):
//
//	-metrics-out m.json   write the run's metrics snapshot (counters,
//	                      phase timers, histograms) as JSON
//	-trace-out t.csv      write a per-superstep CSV (wall time, messages,
//	                      phase breakdown); implies detailed stats
//	-pprof localhost:6060 serve net/http/pprof for the duration of the run
//	-cpuprofile cpu.out   write a CPU profile covering the run
//	-memprofile mem.out   write a heap profile taken after the run
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"serialgraph"
	"serialgraph/internal/metrics"
)

func main() {
	alg := flag.String("alg", "coloring", "coloring | pagerank | sssp | wcc | mis | lpa | kcore | triangles")
	graphPath := flag.String("graph", "", "graph file (.bin/.gob or edge list)")
	dataset := flag.String("dataset", "", "generate a dataset analog instead: OR AR TW UK")
	scale := flag.Float64("scale", 1.0, "dataset scale")
	workers := flag.Int("workers", 8, "simulated cluster size")
	ppw := flag.Int("ppw", 0, "partitions per worker (default = workers)")
	techniqueName := flag.String("technique", "partition-locking", "none | single-token | dual-token | partition-locking | vertex-locking")
	modelName := flag.String("model", "async", "bsp | async")
	eps := flag.Float64("eps", 0.01, "PageRank convergence threshold")
	source := flag.Int("source", 0, "SSSP source vertex")
	latency := flag.Duration("latency", 50*time.Microsecond, "simulated network latency")
	transportName := flag.String("transport", "inproc", "wire backend for single-process runs: inproc | tcp")
	listenAddr := flag.String("listen", "", "coordinator mode: accept worker processes on this address (e.g. 127.0.0.1:0)")
	joinAddr := flag.String("join", "", "worker mode: join a coordinator at this address, run, exit")
	workersRemote := flag.Int("workers-remote", 0, "coordinator mode: worker processes to wait for (with -listen)")
	family := flag.String("family", "", "multi-process runs: generate this graph family instead of loading -graph: powerlaw | rmat | erdos | ring | grid | complete")
	familyN := flag.Int("n", 0, "generated family size (with -family)")
	seed := flag.Uint64("seed", 1, "partitioning (and -family generation) seed")
	partitionerName := flag.String("partitioner", "hash", "vertex placement: hash | range | ldg | fennel")
	relabel := flag.Bool("relabel", false, "degree-ordered vertex relabeling before partitioning (hub clustering; outputs stay in original IDs)")
	maxSupersteps := flag.Int("max-supersteps", 0, "bound non-converging runs (0 = library default)")
	msgMem := flag.Int64("msg-mem", 0, "message-plane memory budget in bytes: sizes the per-lane credit windows that bound message bytes in flight (0 = default 4 MiB windows)")
	check := flag.Bool("check", false, "verify serializability (records history; slower)")
	out := flag.String("o", "", "write final vertex values to this file (text, one per line)")
	checkpointEvery := flag.Int("checkpoint-every", 0, "checkpoint after every k-th superstep (0 = off)")
	checkpointDir := flag.String("checkpoint-dir", "", "checkpoint directory (required with -checkpoint-every)")
	recoveryName := flag.String("recovery", "full", "crash recovery mode: full (whole-cluster rollback) | confined (crashed partitions only)")
	watchdogTimeout := flag.Duration("watchdog-timeout", 0, "liveness watchdog: declare a superstep stalled and recover if its barrier is not reached within this deadline (0 = off)")
	crashAt := flag.Int("crash-at", -1, "inject a worker crash at this superstep (-1 = off)")
	crashWorker := flag.Int("crash-worker", 0, "worker to crash (with -crash-at or -crash-after-msgs)")
	crashAfterMsgs := flag.Int64("crash-after-msgs", 0, "inject a crash after this many delivered data messages (0 = off)")
	faultSeed := flag.Uint64("fault-seed", 1, "seed for fault-injection randomness")
	dropRate := flag.Float64("drop-rate", 0, "probability of dropping each data message")
	dupRate := flag.Float64("dup-rate", 0, "probability of duplicating each data message")
	stragglerRate := flag.Float64("straggler-rate", 0, "probability of delaying each data message")
	stragglerDelay := flag.Duration("straggler-delay", 0, "extra latency for straggler messages")
	metricsOut := flag.String("metrics-out", "", "write the metrics snapshot to this file as JSON")
	traceOut := flag.String("trace-out", "", "write a per-superstep phase/message CSV to this file")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address during the run (e.g. localhost:6060)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a post-run heap profile to this file")
	flag.Parse()

	// Multi-process modes short-circuit the single-process path entirely:
	// a worker joins, computes, and exits; a coordinator drives the run
	// and reports like a normal graphrun invocation.
	if *joinAddr != "" {
		if err := runWorkerProcess(*joinAddr); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *listenAddr != "" {
		if err := refuseFlags(setFlags()); err != nil {
			log.Fatal(err)
		}
		cfg := coordinatorConfig{
			listen: *listenAddr, alg: *alg, graphPath: *graphPath,
			family: *family, familyN: *familyN, workers: *workersRemote,
			ppw: *ppw, maxSupersteps: *maxSupersteps, seed: *seed,
			source: *source, eps: *eps, out: *out, msgMem: *msgMem,
			partitioner: *partitionerName, model: *modelName, technique: *techniqueName,
		}
		if err := runCoordinatorProcess(cfg); err != nil {
			log.Fatal(err)
		}
		return
	}

	if *pprofAddr != "" {
		go func() {
			log.Printf("pprof: listening on http://%s/debug/pprof/", *pprofAddr)
			log.Println(http.ListenAndServe(*pprofAddr, nil))
		}()
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		defer pprof.StopCPUProfile()
	}

	var g *serialgraph.Graph
	var err error
	switch {
	case *graphPath != "":
		g, err = serialgraph.LoadGraph(*graphPath)
	case *dataset != "":
		g, err = serialgraph.Dataset(*dataset, *scale)
	default:
		err = fmt.Errorf("need -graph or -dataset")
	}
	if err != nil {
		log.Fatal(err)
	}

	var technique serialgraph.Technique
	switch *techniqueName {
	case "none":
		technique = serialgraph.NoSerializability
	case "single-token":
		technique = serialgraph.SingleToken
	case "dual-token":
		technique = serialgraph.DualToken
	case "partition-locking":
		technique = serialgraph.PartitionLocking
	case "vertex-locking":
		technique = serialgraph.VertexLocking
	default:
		log.Fatalf("unknown technique %q", *techniqueName)
	}
	mdl := serialgraph.Async
	if *modelName == "bsp" {
		mdl = serialgraph.BSP
	}

	var recovery serialgraph.RecoveryMode
	switch *recoveryName {
	case "full":
		recovery = serialgraph.RecoverFull
	case "confined":
		recovery = serialgraph.RecoverConfined
	default:
		log.Fatalf("unknown recovery mode %q (want full or confined)", *recoveryName)
	}

	var transport serialgraph.Transport
	switch *transportName {
	case "inproc":
		transport = serialgraph.InProc
	case "tcp":
		transport = serialgraph.TCPLoopback
	default:
		log.Fatalf("unknown transport %q (want inproc or tcp)", *transportName)
	}

	opt := serialgraph.Options{
		Workers: *workers, PartitionsPerWorker: *ppw, Model: mdl,
		Technique: technique, Transport: transport,
		NetworkLatency: *latency,
		Seed:           *seed, MaxSupersteps: *maxSupersteps, Partitioner: *partitionerName,
		CheckpointEvery: *checkpointEvery, CheckpointDir: *checkpointDir,
		Recovery: recovery, WatchdogTimeout: *watchdogTimeout,
		DetailedStats: *traceOut != "", MsgMemoryBudget: *msgMem,
	}

	// Assemble the fault plan, if any fault flag is set.
	plan := serialgraph.FaultPlan{
		DropRate: *dropRate, DuplicateRate: *dupRate,
		StragglerRate: *stragglerRate, StragglerDelay: *stragglerDelay,
		Seed: *faultSeed,
	}
	if *crashAt >= 0 {
		plan.Crashes = append(plan.Crashes, serialgraph.CrashSpec{
			Worker: *crashWorker, AtSuperstep: *crashAt})
	} else if *crashAfterMsgs > 0 {
		plan.Crashes = append(plan.Crashes, serialgraph.CrashSpec{
			Worker: *crashWorker, AfterMessages: *crashAfterMsgs})
	}
	faulty := len(plan.Crashes) > 0 || plan.DropRate > 0 || plan.DuplicateRate > 0 || plan.StragglerRate > 0
	if faulty {
		if technique == serialgraph.VertexLocking {
			log.Fatal("fault injection is not supported on the GAS engine (-technique vertex-locking)")
		}
		opt.Fault = &plan
	}

	// Undirected algorithms want symmetrized inputs.
	switch *alg {
	case "coloring", "wcc", "mis", "lpa", "kcore", "triangles":
		g = serialgraph.Undirected(g)
	}

	// Degree-ordered relabeling: run on the hub-clustered permutation,
	// map the SSSP source in and the result slices back out, so printed
	// and written values stay in the original vertex IDs.
	src := serialgraph.VertexID(*source)
	var rel *serialgraph.Relabeling
	if *relabel {
		g, rel = serialgraph.DegreeRelabel(g)
		src = rel.NewID(src)
	}
	fmt.Printf("graph: %d vertices, %d edges; %d workers, %s, %s, %s partitioning\n",
		g.NumVertices(), g.NumEdges(), *workers, mdl.String(), technique, *partitionerName)

	var res serialgraph.Result
	var violations []serialgraph.Violation
	var values []float64
	var intValues []int32

	runPregel := func() {
		switch *alg {
		case "coloring":
			if *check {
				intValues, res, violations, err = serialgraph.RunChecked(g, serialgraph.Coloring(), opt)
			} else {
				intValues, res, err = serialgraph.Run(g, serialgraph.Coloring(), opt)
			}
			if err == nil {
				if cerr := serialgraph.ValidateColoring(g, intValues); cerr != nil {
					fmt.Printf("coloring INVALID: %v\n", cerr)
				} else {
					fmt.Printf("coloring proper, %d colors\n", countDistinct(intValues))
				}
			}
		case "wcc":
			intValues, res, err = serialgraph.Run(g, serialgraph.WCC(), opt)
		case "pagerank":
			values, res, err = serialgraph.Run(g, serialgraph.PageRank(*eps), opt)
		case "sssp":
			values, res, err = serialgraph.Run(g, serialgraph.SSSP(src), opt)
		case "mis":
			intValues, res, err = serialgraph.Run(g, serialgraph.MISGreedy(), opt)
			if err == nil {
				if merr := serialgraph.ValidateMIS(g, intValues); merr != nil {
					fmt.Printf("MIS INVALID: %v\n", merr)
				} else {
					fmt.Println("MIS valid (independent and maximal)")
				}
			}
		case "lpa":
			intValues, res, err = serialgraph.Run(g, serialgraph.LabelPropagation(), opt)
			if err == nil {
				fmt.Printf("communities: %d\n", countDistinct(intValues))
			}
		case "kcore":
			var kvals []serialgraph.KCoreValue
			kvals, res, err = serialgraph.Run(g, serialgraph.KCore(), opt)
			if err == nil {
				intValues = serialgraph.KCoreEstimates(kvals)
				maxCore := int32(0)
				for _, c := range intValues {
					if c > maxCore {
						maxCore = c
					}
				}
				fmt.Printf("degeneracy (max core): %d\n", maxCore)
			}
		case "triangles":
			opt.Model = serialgraph.BSP
			opt.Technique = serialgraph.NoSerializability
			intValues, res, err = serialgraph.Run(g, serialgraph.TriangleCount(), opt)
			if err == nil {
				var total int64
				for _, c := range intValues {
					total += int64(c)
				}
				fmt.Printf("triangles: %d\n", total)
			}
		default:
			err = fmt.Errorf("unknown algorithm %q", *alg)
		}
	}
	runGAS := func() {
		switch *alg {
		case "coloring":
			intValues, res, err = serialgraph.RunGAS(g, serialgraph.ColoringGAS(), opt)
		case "wcc":
			intValues, res, err = serialgraph.RunGAS(g, serialgraph.WCCGAS(), opt)
		case "pagerank":
			values, res, err = serialgraph.RunGAS(g, serialgraph.PageRankGAS(g, *eps), opt)
		case "sssp":
			values, res, err = serialgraph.RunGAS(g, serialgraph.SSSPGAS(src), opt)
		default:
			err = fmt.Errorf("unknown algorithm %q", *alg)
		}
	}
	if technique == serialgraph.VertexLocking {
		runGAS()
	} else {
		runPregel()
	}
	if err != nil {
		log.Fatal(err)
	}
	if rel != nil {
		// Back to original vertex IDs before anything is written out.
		if intValues != nil {
			intValues = serialgraph.Unpermute(rel, intValues)
		}
		if values != nil {
			values = serialgraph.Unpermute(rel, values)
		}
	}

	printSummary(res)
	m := res.Metrics
	q := res.Partition
	fmt.Printf("partition: cut=%.3f boundary=%.3f (pint=%d local=%d remote=%d mixed=%d) repl=%.2f skew=%.2f\n",
		q.CutFraction, q.BoundaryFraction,
		q.PInternal, q.LocalBoundary, q.RemoteBoundary, q.MixedBoundary,
		q.ReplicationFactor, q.BalanceSkew)
	fmt.Printf("locks: forks=%d tokens=%d\n", res.ForkSends, m.Get(metrics.TokenSends))
	if faulty || m.Get(metrics.WatchdogStalls) > 0 {
		fmt.Printf("recovery: rollbacks=%d (confined=%d) recomputed-supersteps=%d recomputed-partition-supersteps=%d wasted-msgs=%d dropped=%d watchdog-stalls=%d\n",
			m.Get(metrics.Rollbacks), m.Get(metrics.ConfinedRecoveries), m.Get(metrics.RecomputedSupersteps),
			m.Get(metrics.RecomputedPartitionSupersteps), m.Get(metrics.WastedMessages),
			res.Net.DroppedMessages, m.Get(metrics.WatchdogStalls))
	}
	if *check {
		if len(violations) == 0 {
			fmt.Println("serializability check: clean (C1, C2, 1SR)")
		} else {
			fmt.Printf("serializability check: %d violations, first: %v\n", len(violations), violations[0])
		}
	}

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if intValues != nil {
			for _, v := range intValues {
				fmt.Fprintln(f, v)
			}
		} else {
			for _, v := range values {
				fmt.Fprintln(f, v)
			}
		}
		fmt.Printf("wrote values to %s\n", *out)
	}

	if *metricsOut != "" {
		buf, err := json.MarshalIndent(res.Metrics, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(*metricsOut, append(buf, '\n'), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote metrics to %s\n", *metricsOut)
	}
	if *traceOut != "" {
		if err := writeTrace(*traceOut, res); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %d-superstep trace to %s\n", len(res.SuperstepStats), *traceOut)
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote heap profile to %s\n", *memProfile)
	}
}

// printSummary prints the lines every run reports, in process or across
// processes: convergence, the network ledger, and the wire bytes of a run
// over TCP (a multi-process coordinator knows only the bytes sent).
func printSummary(res serialgraph.Result) {
	fmt.Printf("converged=%v supersteps=%d executions=%d time=%v\n",
		res.Converged, res.Supersteps, res.Executions, res.ComputeTime.Round(time.Millisecond))
	n := res.Net
	fmt.Printf("network: %d data batches / %d KB data, %d control msgs\n",
		n.DataMessages, n.DataBytes/1024, n.ControlMessages)
	switch {
	case n.WireBytesReceived > 0:
		fmt.Printf("wire: %d bytes sent / %d bytes received over TCP\n", n.WireBytesSent, n.WireBytesReceived)
	case n.WireBytesSent > 0:
		fmt.Printf("wire: %d bytes sent over TCP\n", n.WireBytesSent)
	}
}

// writeTrace renders the per-superstep stats as CSV, one row per
// superstep, with the phase breakdown in nanoseconds.
func writeTrace(path string, res serialgraph.Result) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	fmt.Fprintln(f, "superstep,duration_ns,executions,data_msgs,ctrl_msgs,compute_ns,local_delivery_ns,remote_flush_ns,barrier_wait_ns,barrier_drain_ns,barrier_commit_ns")
	for i, st := range res.SuperstepStats {
		fmt.Fprintf(f, "%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d\n",
			i, st.Duration.Nanoseconds(), st.Executions, st.DataMsgs, st.CtrlMsgs,
			st.ComputeNs, st.LocalDeliveryNs, st.RemoteFlushNs, st.BarrierWaitNs,
			st.BarrierDrainNs, st.BarrierCommitNs)
	}
	return f.Close()
}

func countDistinct(vals []int32) int {
	seen := map[int32]bool{}
	for _, v := range vals {
		seen[v] = true
	}
	return len(seen)
}

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
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof"
	"os"
	"reflect"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"serialgraph"
	"serialgraph/internal/catalog"
	"serialgraph/internal/dist"
	"serialgraph/internal/engine"
	"serialgraph/internal/generate"
	"serialgraph/internal/graph"
	"serialgraph/internal/history"
	"serialgraph/internal/metrics"
	"serialgraph/internal/partition"
)

func main() {
	alg := flag.String("alg", "coloring", strings.Join(catalog.Names(), " | "))
	graphPath := flag.String("graph", "", "graph file (.bin/.gob or edge list)")
	dataset := flag.String("dataset", "", "generate a dataset analog instead: OR AR TW UK")
	scale := flag.Float64("scale", 1.0, "dataset scale")
	workers := flag.Int("workers", 8, "simulated cluster size")
	ppw := flag.Int("ppw", 0, "partitions per worker (default = workers)")
	techniqueName := flag.String("technique", "partition-locking", names(techniques...))
	modelName := flag.String("model", "async", names(modes...))
	eps := flag.Float64("eps", 0.01, "PageRank convergence threshold")
	source := flag.Int("source", 0, "SSSP source vertex")
	latency := flag.Duration("latency", 50*time.Microsecond, "simulated network latency")
	transportName := flag.String("transport", "inproc", "wire backend for single-process runs: "+names(transports...))
	listenAddr := flag.String("listen", "", "coordinator mode: accept worker processes on this address (e.g. 127.0.0.1:0)")
	joinAddr := flag.String("join", "", "worker mode: join a coordinator at this address, run, exit")
	workersRemote := flag.Int("workers-remote", 0, "coordinator mode: worker processes to wait for (with -listen)")
	family := flag.String("family", "", "multi-process runs: generate this graph family instead of loading -graph: powerlaw | rmat | erdos | ring | grid | complete")
	familyN := flag.Int("n", 0, "generated family size (with -family)")
	seed := flag.Uint64("seed", 1, "partitioning (and -family generation, and mis-luby) seed")
	partitionerName := flag.String("partitioner", "hash", "vertex placement: "+strings.Join(partition.Kinds(), " | "))
	relabel := flag.Bool("relabel", false, "degree-ordered vertex relabeling before partitioning (hub clustering; outputs stay in original IDs)")
	maxSupersteps := flag.Int("max-supersteps", 0, "bound non-converging runs (0 = library default)")
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
	pl, err := newPlan(*alg, *modelName, *techniqueName, setFlags())
	if err != nil {
		log.Fatal(err)
	}
	if *listenAddr != "" {
		if err := refuseFlags(setFlags()); err != nil {
			log.Fatal(err)
		}
		job, err := listenJob(pl, dist.Job{
			GraphPath: *graphPath, Family: *family, N: int32(*familyN),
			Workers: int32(*workersRemote), PartsPerWorker: int32(*ppw), MaxSupersteps: int32(*maxSupersteps),
			Seed: *seed, Source: int32(*source), Eps: *eps, Partitioner: *partitionerName,
		})
		if err == nil {
			err = runCoordinatorProcess(*listenAddr, *out, pl, job)
		}
		if err != nil {
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

	var g *graph.Graph
	switch {
	case *graphPath != "":
		g, err = graph.LoadFile(*graphPath)
	case *dataset != "":
		var d generate.Dataset
		if d, err = generate.ByName(*dataset); err == nil {
			g = d.Build(*scale)
		}
	default:
		err = fmt.Errorf("need -graph or -dataset")
	}
	if err != nil {
		log.Fatal(err)
	}

	recovery, err := parseName("recovery", *recoveryName, serialgraph.RecoverFull, serialgraph.RecoverConfined)
	if err != nil {
		log.Fatal(err)
	}
	transport, err := parseName("transport", *transportName, transports...)
	if err != nil {
		log.Fatal(err)
	}
	opt := serialgraph.Options{
		Workers: *workers, PartitionsPerWorker: *ppw, Model: pl.model,
		Technique: pl.technique, Transport: transport,
		NetworkLatency: *latency,
		Seed:           *seed, MaxSupersteps: *maxSupersteps, Partitioner: *partitionerName,
		CheckpointEvery: *checkpointEvery, CheckpointDir: *checkpointDir,
		Recovery: recovery, WatchdogTimeout: *watchdogTimeout,
		DetailedStats: *traceOut != "", TrackHistory: *check,
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
		if pl.gas() {
			log.Fatal("fault injection is not supported on the GAS engine (-technique vertex-locking)")
		}
		opt.Fault = &plan
	}

	if pl.entry.Undirected {
		g = graph.Symmetrize(g)
	}
	// Degree-ordered relabeling: run on the hub-clustered permutation,
	// map the SSSP source in and the values back out, so printed and
	// written values stay in the original vertex IDs.
	p := catalog.Params{Source: graph.VertexID(*source), Eps: *eps, Seed: *seed}
	var rel *graph.Relabeling
	if *relabel {
		rel = graph.DegreeOrder(g)
		g = rel.Apply(g)
		p.Source = rel.NewID(p.Source)
	}
	fmt.Printf("graph: %d vertices, %d edges; %d workers, %s, %s, %s partitioning\n",
		g.NumVertices(), g.NumEdges(), *workers, pl.model, pl.technique, *partitionerName)

	res, err := pl.run(g, p, opt)
	if err != nil {
		log.Fatal(err)
	}
	judge(pl.entry.Name, g, p, res)
	values := res.Values
	if rel != nil {
		values = unpermute(rel, values) // back to original vertex IDs
	}

	printSummary(res.Result)
	m := res.Result.Metrics
	q := res.Result.Partition
	fmt.Printf("partition: cut=%.3f boundary=%.3f (pint=%d local=%d remote=%d mixed=%d) repl=%.2f skew=%.2f\n",
		q.CutFraction, q.BoundaryFraction,
		q.PInternal, q.LocalBoundary, q.RemoteBoundary, q.MixedBoundary,
		q.ReplicationFactor, q.BalanceSkew)
	fmt.Printf("locks: forks=%d tokens=%d\n", res.Result.ForkSends, m.Get(metrics.TokenSends))
	if faulty || m.Get(metrics.WatchdogStalls) > 0 {
		fmt.Printf("recovery: rollbacks=%d (confined=%d) recomputed-supersteps=%d recomputed-partition-supersteps=%d wasted-msgs=%d dropped=%d watchdog-stalls=%d\n",
			m.Get(metrics.Rollbacks), m.Get(metrics.ConfinedRecoveries), m.Get(metrics.RecomputedSupersteps),
			m.Get(metrics.RecomputedPartitionSupersteps), m.Get(metrics.WastedMessages),
			res.Result.Net.DroppedMessages, m.Get(metrics.WatchdogStalls))
	}
	if *check {
		if vs := history.CheckAll(res.History.Txns(), g); len(vs) == 0 {
			fmt.Println("serializability check: clean (C1, C2, 1SR)")
		} else {
			fmt.Printf("serializability check: %d violations, first: %v\n", len(vs), vs[0])
		}
	}

	if *out != "" {
		if err := writeValues(*out, values); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote values to %s\n", *out)
	}
	if *metricsOut != "" {
		buf, err := json.MarshalIndent(m, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(*metricsOut, append(buf, '\n'), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote metrics to %s\n", *metricsOut)
	}
	if *traceOut != "" {
		if err := writeTrace(*traceOut, res.Result); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %d-superstep trace to %s\n", len(res.Result.SuperstepStats), *traceOut)
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

// modes are -model's values, techniques -technique's and transports
// -transport's; each is named by its String().
var (
	modes      = []serialgraph.Model{serialgraph.BSP, serialgraph.Async, serialgraph.BAP}
	techniques = []serialgraph.Technique{serialgraph.NoSerializability, serialgraph.SingleToken,
		serialgraph.DualToken, serialgraph.PartitionLocking, serialgraph.VertexLocking}
	transports = []serialgraph.Transport{serialgraph.InProc, serialgraph.TCPLoopback}
)

// names joins the String() forms of vals for a flag's usage.
func names[T fmt.Stringer](vals ...T) string {
	s := make([]string, len(vals))
	for i, v := range vals {
		s[i] = v.String()
	}
	return strings.Join(s, " | ")
}

// parseName returns the value among vals whose String() is name, or fails
// naming flagName and the values it takes.
func parseName[T fmt.Stringer](flagName, name string, vals ...T) (T, error) {
	for _, v := range vals {
		if v.String() == name {
			return v, nil
		}
	}
	var zero T
	return zero, fmt.Errorf("unknown -%s %q (want %s)", flagName, name, names(vals...))
}

// plan is what an invocation runs: a catalog entry under a model and
// technique.
type plan struct {
	entry     *catalog.Entry
	model     serialgraph.Model
	technique serialgraph.Technique
}

// gas reports whether the plan runs the entry's GAS form: vertex locking
// runs on the GAS engine.
func (pl plan) gas() bool { return pl.technique == serialgraph.VertexLocking }

// newPlan resolves -alg, -model and -technique, each of which must name a
// known value. An entry that synchronizes itself runs under BSP with no
// technique; set (the flags the command line set) may not ask otherwise.
// Vertex locking needs the entry's GAS form.
func newPlan(alg, modelName, techniqueName string, set []string) (plan, error) {
	e, err := catalog.Lookup(alg)
	if err != nil {
		return plan{}, err
	}
	mdl, err := parseName("model", modelName, modes...)
	if err != nil {
		return plan{}, err
	}
	t, err := parseName("technique", techniqueName, techniques...)
	if err != nil {
		return plan{}, err
	}
	if e.BSP {
		if slices.Contains(set, "model") && mdl != serialgraph.BSP || slices.Contains(set, "technique") && t != serialgraph.NoSerializability {
			return plan{}, fmt.Errorf("-alg %s runs only under -model bsp -technique none", alg)
		}
		mdl, t = serialgraph.BSP, serialgraph.NoSerializability
	}
	pl := plan{entry: e, model: mdl, technique: t}
	if pl.gas() && !e.HasGAS() {
		return plan{}, fmt.Errorf("-alg %s has no GAS form to run under -technique %s", alg, t)
	}
	return pl, nil
}

// run runs the plan's entry on g under opt, whose Model and Technique are
// the plan's.
func (pl plan) run(g *graph.Graph, p catalog.Params, opt serialgraph.Options) (catalog.Output, error) {
	if pl.gas() {
		cfg, err := opt.GASConfig()
		if err != nil {
			return catalog.Output{}, err
		}
		return pl.entry.RunGAS(g, p, cfg)
	}
	cfg, err := opt.EngineConfig()
	if err != nil {
		return catalog.Output{}, err
	}
	return pl.entry.Run(g, p, cfg)
}

// judge prints whether a converged run's values pass the serial oracle.
func judge(name string, g *graph.Graph, p catalog.Params, out catalog.Output) {
	if !out.Result.Converged {
		return
	}
	if err := out.Check(g, p); err != nil {
		fmt.Printf("%s INVALID: %v\n", name, err)
	} else {
		fmt.Printf("%s: oracle ok\n", name)
	}
}

// unpermute reindexes a run's values from relabeled vertex IDs back to the
// original ones, as graph.Unpermute does.
func unpermute(r *graph.Relabeling, values any) any {
	v := reflect.ValueOf(values)
	out := reflect.MakeSlice(v.Type(), v.Len(), v.Len())
	for old := range v.Len() {
		out.Index(old).Set(v.Index(int(r.NewID(graph.VertexID(old)))))
	}
	return out.Interface()
}

// writeValues writes a run's values to path, one per line in vertex order.
func writeValues(path string, values any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	v := reflect.ValueOf(values)
	for i := range v.Len() {
		fmt.Fprintln(w, v.Index(i))
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printSummary prints the lines every run reports, in process or across
// processes: convergence, the network ledger, and the wire bytes of a run
// over TCP (a multi-process coordinator knows only the bytes sent).
func printSummary(res engine.Result) {
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
func writeTrace(path string, res engine.Result) error {
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

package dist_test

// Multi-process conformance: a coordinator plus K workers over real TCP
// loopback must produce results bitwise identical to the in-process
// engine under BSP/SyncNone with the same worker count, partitioning,
// and seed — same values, same superstep count, same execution count,
// same convergence verdict. The workers here are goroutines rather than
// OS processes, but every byte between them crosses real sockets and no
// memory is shared through the dist package's state; the process-level
// version of the same run is exercised by cmd/graphrun's acceptance
// test.

import (
	"fmt"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"

	"serialgraph/internal/catalog"
	"serialgraph/internal/cluster"
	"serialgraph/internal/dist"
	"serialgraph/internal/engine"
	"serialgraph/internal/graph"
	"serialgraph/internal/partition"
	"serialgraph/internal/wire"
)

func requireLoopback(t *testing.T) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback TCP unavailable: %v", err)
	}
	ln.Close()
}

// baseJob is the shared run spec: a deterministic 80-vertex power-law
// graph, 3 workers x 2 partitions, generator and partitioner seeded
// identically on every process.
func baseJob() dist.Job {
	return dist.Job{
		Family:         "powerlaw",
		N:              80,
		Workers:        3,
		PartsPerWorker: 2,
		MaxSupersteps:  200,
		Seed:           41,
	}
}

// runDist executes one distributed job entirely over loopback TCP:
// worker goroutines join the coordinator exactly as worker processes
// would.
func runDist(t *testing.T, job dist.Job, g *graph.Graph) catalog.Output {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ln.Close()

	errs := make([]error, job.Workers)
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = dist.Work(ln.Addr().String(), catalog.Serve)
		}(i)
	}
	out, err := catalog.Coordinate(ln, job, g)
	wg.Wait()
	if err != nil {
		t.Fatalf("coordinate: %v", err)
	}
	for i, werr := range errs {
		if werr != nil {
			t.Fatalf("worker %d: %v", i, werr)
		}
	}
	return out
}

// runEngine is the in-process reference: the catalog entry job.Alg names,
// on the same graph, with the same partitioning knobs, BSP with no
// synchronization technique.
func runEngine(t *testing.T, job dist.Job, g *graph.Graph) catalog.Output {
	t.Helper()
	e, err := catalog.Lookup(job.Alg)
	if err != nil {
		t.Fatal(err)
	}
	cfg := engine.Config{
		Workers:             int(job.Workers),
		PartitionsPerWorker: int(job.PartsPerWorker),
		ThreadsPerWorker:    2,
		Mode:                engine.BSP,
		Sync:                engine.SyncNone,
		Seed:                job.Seed,
		MaxSupersteps:       int(job.MaxSupersteps),
	}
	if job.Partitioner != "" {
		if cfg.Partitioner, err = partition.Placer(job.Partitioner, job.Seed); err != nil {
			t.Fatal(err)
		}
	}
	out, err := e.Run(g, catalog.JobParams(job), cfg)
	if err != nil {
		t.Fatalf("engine run: %v", err)
	}
	return out
}

// conform runs job both ways and demands bitwise agreement.
func conform(t *testing.T, job dist.Job) {
	t.Helper()
	g, err := dist.BuildGraph(job)
	if err != nil {
		t.Fatalf("build graph: %v", err)
	}
	got, want := runDist(t, job, g), runEngine(t, job, g)
	gotRes, wantRes := got.Result, want.Result

	if gotRes.Converged != wantRes.Converged {
		t.Errorf("converged: dist %v, engine %v", gotRes.Converged, wantRes.Converged)
	}
	if gotRes.Supersteps != wantRes.Supersteps {
		t.Errorf("supersteps: dist %d, engine %d", gotRes.Supersteps, wantRes.Supersteps)
	}
	if gotRes.Executions != wantRes.Executions {
		t.Errorf("executions: dist %d, engine %d", gotRes.Executions, wantRes.Executions)
	}
	if !reflect.DeepEqual(got.Values, want.Values) {
		t.Fatalf("values differ:\n dist   %v\n engine %v", got.Values, want.Values)
	}
	if job.Workers > 1 {
		if gotRes.Net.DataMessages == 0 || gotRes.Net.DataBytes == 0 {
			t.Errorf("multi-worker run moved no data batches (%d batches, %d bytes)",
				gotRes.Net.DataMessages, gotRes.Net.DataBytes)
		}
		if gotRes.Net.WireBytesSent == 0 {
			t.Errorf("multi-worker run reported zero wire bytes")
		}
		if gotRes.Net.WireBytesSent < gotRes.Net.DataBytes/8 {
			t.Errorf("wire bytes %d implausibly small vs simulated %d",
				gotRes.Net.WireBytesSent, gotRes.Net.DataBytes)
		}
	}
}

// checkOracle holds a converged distributed run to its entry's serial
// oracle.
func checkOracle(t *testing.T, job dist.Job) {
	t.Helper()
	g, err := dist.BuildGraph(job)
	if err != nil {
		t.Fatalf("build graph: %v", err)
	}
	out := runDist(t, job, g)
	res := out.Result
	if !res.Converged {
		t.Fatalf("%s did not converge in %d supersteps", job.Alg, res.Supersteps)
	}
	if err := out.Check(g, catalog.JobParams(job)); err != nil {
		t.Fatalf("%s: %v", job.Alg, err)
	}
	t.Logf("%s: supersteps=%d execs=%d ctrl=%d data=%d wire=%d", job.Alg,
		res.Supersteps, res.Executions, res.Net.ControlMessages, res.Net.DataMessages, res.Net.WireBytesSent)
	if job.Sync == uint8(engine.PartitionLock) && res.Net.ControlMessages == 0 {
		t.Fatal("no control messages crossed the sockets")
	}
}

// Every catalog entry runs across two peers, under BSP for a bounded
// number of supersteps, to the state the in-process engine reaches: the
// names a coordinator accepts are exactly the catalog's.
func TestDistMatchesEngineEveryEntry(t *testing.T) {
	requireLoopback(t)
	for _, e := range catalog.Entries() {
		t.Run(e.Name, func(t *testing.T) {
			job := baseJob()
			job.Alg = e.Name
			job.Undirected = e.Undirected
			job.Workers = 2
			job.MaxSupersteps = 30
			job.Eps = 0.01
			conform(t, job)
		})
	}
}

func TestDistMatchesEngineSSSP(t *testing.T) {
	requireLoopback(t)
	job := baseJob()
	job.Alg = "sssp"
	job.Source = 0
	conform(t, job)
	// And against the serial oracle: the converged distances must be the
	// true shortest paths.
	checkOracle(t, job)
}

func TestDistMatchesEnginePageRank(t *testing.T) {
	requireLoopback(t)
	job := baseJob()
	job.Alg = "pagerank"
	job.Eps = 0.01
	conform(t, job)
}

// A named streaming partitioner must survive the wire: every worker
// process rebuilds the identical LDG/Fennel map from the Job spec, and
// the run still matches the in-process engine bitwise.
func TestDistStreamingPartitioners(t *testing.T) {
	requireLoopback(t)
	for _, kind := range []string{"ldg", "fennel"} {
		t.Run(kind, func(t *testing.T) {
			job := baseJob()
			job.Alg = "sssp"
			job.Source = 0
			job.Partitioner = kind
			conform(t, job)
		})
	}
}

func TestDistMatchesEngineColoring(t *testing.T) {
	requireLoopback(t)
	job := baseJob()
	job.Alg = "coloring"
	job.Undirected = true
	// BSP coloring can oscillate; bound the run and compare the exact
	// (possibly non-converged) deterministic state.
	job.MaxSupersteps = 30
	conform(t, job)
}

func TestDistMatchesEngineWCC(t *testing.T) {
	requireLoopback(t)
	job := baseJob()
	job.Alg = "wcc"
	job.Undirected = true
	conform(t, job)
}

func TestDistSingleWorker(t *testing.T) {
	requireLoopback(t)
	job := baseJob()
	job.Alg = "sssp"
	job.Workers = 1
	job.PartsPerWorker = 4
	conform(t, job)
}

func TestDistAggregatedHalt(t *testing.T) {
	// The aggregated PageRank variant never votes to halt: termination
	// depends entirely on per-vertex Aggregate contributions flowing up
	// in StepDone, merging on the coordinator, feeding MasterHalt, and
	// the merged values flowing back down in StepStart for Aggregated().
	// A converged, engine-identical run proves the whole aggregator loop.
	requireLoopback(t)
	job := baseJob()
	job.Alg = "pagerank-agg"
	job.Eps = 0.05
	conform(t, job)
	checkOracle(t, job)
}

// Async SSSP over real sockets: remote messages land in the live store
// mid-superstep, so the run is schedule-dependent, but the converged
// distances are the true shortest paths.
func TestDistAsyncSSSP(t *testing.T) {
	requireLoopback(t)
	job := baseJob()
	job.Alg = "sssp"
	job.Mode = uint8(engine.Async)
	checkOracle(t, job)
}

// The paper's contribution across processes: Async colouring under
// partition-based locking, its forks moving between worker processes in
// CtrlBatch frames. Serializable execution colours properly in one pass
// over the conflicts; a positive control-message count proves the forks
// crossed sockets rather than staying in one process.
func TestDistPartitionLockColoring(t *testing.T) {
	requireLoopback(t)
	for _, seed := range []uint64{41, 42, 43} {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			job := baseJob()
			job.Alg = "coloring"
			job.Undirected = true
			job.Seed = seed
			job.Mode = uint8(engine.Async)
			job.Sync = uint8(engine.PartitionLock)
			checkOracle(t, job)
		})
	}
}

// An unknown algorithm is refused by name on both sides: the coordinator
// before it accepts anyone, and a worker handed a job naming one.
func TestDistRejectsUnknownAlg(t *testing.T) {
	requireLoopback(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ln.Close()
	job := baseJob()
	job.Alg = "no-such-alg"
	job.Workers = 1
	want := fmt.Sprintf("unknown algorithm %q", job.Alg)

	g, _ := dist.BuildGraph(job)
	if _, err := catalog.Coordinate(ln, job, g); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("coordinator error %v does not mention %q", err, want)
	}

	// A coordinator that sends the job anyway: the worker must refuse it.
	done := make(chan error, 1)
	go func() { done <- dist.Work(ln.Addr().String(), catalog.Serve) }()
	c, err := ln.Accept()
	if err != nil {
		t.Fatalf("accept: %v", err)
	}
	defer c.Close()
	if _, _, err := cluster.NewFrameReader(c).Read(); err != nil {
		t.Fatalf("read hello: %v", err)
	}
	if _, err := c.Write(cluster.AppendFrame(nil, &cluster.Frame{Type: cluster.FrameJob, Payload: wire.AppendJob(nil, job)})); err != nil {
		t.Fatalf("send job: %v", err)
	}
	if werr := <-done; werr == nil || !strings.Contains(werr.Error(), want) {
		t.Errorf("worker error %v does not mention %q", werr, want)
	}
}

// A worker that refuses its job and drops during bring-up fails the
// coordinator: here one that says hello, reads its job and hangs up.
func TestDistCoordinatorFailsOnDroppedWorker(t *testing.T) {
	requireLoopback(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ln.Close()
	job := baseJob()
	job.Alg = "sssp"
	job.Workers = 1
	g, err := dist.BuildGraph(job)
	if err != nil {
		t.Fatalf("build graph: %v", err)
	}

	done := make(chan error, 1)
	go func() {
		c, err := cluster.DialRetry(ln.Addr().String(), dist.DialTimeout)
		if err != nil {
			done <- err
			return
		}
		defer c.Close()
		hello := wire.Hello{Version: cluster.ProtocolVersion, Addr: "127.0.0.1:1"}
		if _, err := c.Write(cluster.AppendFrame(nil, &cluster.Frame{Type: cluster.FrameHello, Payload: wire.AppendHello(nil, hello)})); err != nil {
			done <- err
			return
		}
		f, _, err := cluster.NewFrameReader(c).Read()
		if err == nil && f.Type != cluster.FrameJob {
			err = fmt.Errorf("worker got frame 0x%02x, want the job", f.Type)
		}
		done <- err
	}()
	if _, err := catalog.Coordinate(ln, job, g); err == nil {
		t.Error("coordinator succeeded against a worker that dropped after reading its job")
	}
	if err := <-done; err != nil {
		t.Fatalf("fake worker: %v", err)
	}
}

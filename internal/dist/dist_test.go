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
	"strings"
	"sync"
	"testing"

	"serialgraph/internal/algorithms"
	"serialgraph/internal/dist"
	"serialgraph/internal/engine"
	"serialgraph/internal/graph"
	"serialgraph/internal/model"
	"serialgraph/internal/partition"
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
func runDist[V, M any](t *testing.T, job dist.Job, prog model.Program[V, M], nVerts int) ([]V, engine.Result) {
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
			errs[i] = dist.Work(ln.Addr().String())
		}(i)
	}
	vals, res, err := dist.Coordinate(ln, job, prog, nVerts)
	wg.Wait()
	if err != nil {
		t.Fatalf("coordinate: %v", err)
	}
	for i, werr := range errs {
		if werr != nil {
			t.Fatalf("worker %d: %v", i, werr)
		}
	}
	return vals, res
}

// runEngine is the in-process reference: same graph, same partitioning
// knobs, BSP with no synchronization technique.
func runEngine[V, M any](t *testing.T, job dist.Job, prog model.Program[V, M], g *graph.Graph) ([]V, engine.Result) {
	t.Helper()
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
		cfg.Partitioner = func(g *graph.Graph, p, w int) *partition.Map {
			m, err := partition.New(job.Partitioner, g, p, w, job.Seed)
			if err != nil {
				t.Fatalf("partitioner: %v", err)
			}
			return m
		}
	}
	vals, res, _, err := engine.Run(g, prog, cfg)
	if err != nil {
		t.Fatalf("engine run: %v", err)
	}
	return vals, res
}

// conform runs the same program both ways and demands bitwise agreement.
func conform[V comparable, M any](t *testing.T, job dist.Job, prog model.Program[V, M]) {
	t.Helper()
	g, err := dist.BuildGraph(job)
	if err != nil {
		t.Fatalf("build graph: %v", err)
	}
	gotVals, gotRes := runDist(t, job, prog, g.NumVertices())
	wantVals, wantRes := runEngine(t, job, prog, g)

	if gotRes.Converged != wantRes.Converged {
		t.Errorf("converged: dist %v, engine %v", gotRes.Converged, wantRes.Converged)
	}
	if gotRes.Supersteps != wantRes.Supersteps {
		t.Errorf("supersteps: dist %d, engine %d", gotRes.Supersteps, wantRes.Supersteps)
	}
	if gotRes.Executions != wantRes.Executions {
		t.Errorf("executions: dist %d, engine %d", gotRes.Executions, wantRes.Executions)
	}
	if len(gotVals) != len(wantVals) {
		t.Fatalf("value count: dist %d, engine %d", len(gotVals), len(wantVals))
	}
	for v := range wantVals {
		if gotVals[v] != wantVals[v] {
			t.Fatalf("value[%d]: dist %v, engine %v", v, gotVals[v], wantVals[v])
		}
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

func TestDistMatchesEngineSSSP(t *testing.T) {
	requireLoopback(t)
	job := baseJob()
	job.Alg = "sssp"
	job.Source = 0
	conform(t, job, algorithms.SSSP(0))

	// And against the serial oracle: the converged distances must be the
	// true shortest paths.
	g, _ := dist.BuildGraph(job)
	got, res := runDist(t, job, algorithms.SSSP(0), g.NumVertices())
	if !res.Converged {
		t.Fatal("sssp did not converge")
	}
	want := algorithms.ShortestPaths(g, 0)
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("dist[%d] = %v, want %v", v, got[v], want[v])
		}
	}
}

func TestDistMatchesEnginePageRank(t *testing.T) {
	requireLoopback(t)
	job := baseJob()
	job.Alg = "pagerank"
	job.Eps = 0.01
	conform(t, job, algorithms.PageRank(0.01))
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
			conform(t, job, algorithms.SSSP(0))
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
	conform(t, job, algorithms.Coloring())
}

func TestDistMatchesEngineWCC(t *testing.T) {
	requireLoopback(t)
	job := baseJob()
	job.Alg = "wcc"
	job.Undirected = true
	conform(t, job, algorithms.WCC())
}

func TestDistSingleWorker(t *testing.T) {
	requireLoopback(t)
	job := baseJob()
	job.Alg = "sssp"
	job.Workers = 1
	job.PartsPerWorker = 4
	conform(t, job, algorithms.SSSP(0))
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
	conform(t, job, algorithms.PageRankAggregated(job.Eps))

	g, _ := dist.BuildGraph(job)
	_, res := runDist(t, job, algorithms.PageRankAggregated(job.Eps), g.NumVertices())
	if !res.Converged {
		t.Fatalf("aggregated pagerank did not converge in %d supersteps", res.Supersteps)
	}
}

// Async SSSP over real sockets: remote messages land in the live store
// mid-superstep, so the run is schedule-dependent, but the converged
// distances are the true shortest paths.
func TestDistAsyncSSSP(t *testing.T) {
	requireLoopback(t)
	job := baseJob()
	job.Alg = "sssp"
	job.Mode = uint8(engine.Async)
	g, _ := dist.BuildGraph(job)
	got, res := runDist(t, job, algorithms.SSSP(0), g.NumVertices())
	if !res.Converged {
		t.Fatalf("async sssp did not converge in %d supersteps", res.Supersteps)
	}
	want := algorithms.ShortestPaths(g, 0)
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("dist[%d] = %v, want %v", v, got[v], want[v])
		}
	}
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
			g, _ := dist.BuildGraph(job)
			got, res := runDist(t, job, algorithms.Coloring(), g.NumVertices())
			if !res.Converged {
				t.Fatalf("did not converge in %d supersteps", res.Supersteps)
			}
			if err := algorithms.ValidateColoring(g, got); err != nil {
				t.Fatalf("improper colouring: %v", err)
			}
			t.Logf("supersteps=%d execs=%d ctrl=%d data=%d wire=%d", res.Supersteps, res.Executions, res.Net.ControlMessages, res.Net.DataMessages, res.Net.WireBytesSent)
			if res.Net.ControlMessages == 0 {
				t.Fatal("no control messages crossed the sockets")
			}
		})
	}
}

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

	done := make(chan error, 1)
	go func() { done <- dist.Work(ln.Addr().String()) }()
	_, _, err = dist.Coordinate(ln, job, algorithms.SSSP(0), 80)
	if err == nil {
		t.Error("coordinator succeeded against a worker that rejected the job")
	}
	if werr := <-done; werr == nil {
		t.Error("worker accepted unknown algorithm")
	} else if want := fmt.Sprintf("unknown algorithm %q", job.Alg); !strings.Contains(werr.Error(), want) {
		t.Errorf("worker error %q does not mention %q", werr, want)
	}
}

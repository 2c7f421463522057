package engine

import (
	"reflect"
	"testing"
	"time"

	"serialgraph/internal/algorithms"
	"serialgraph/internal/cluster"
	"serialgraph/internal/graph"
	"serialgraph/internal/metrics"
)

// TestMetricsSnapshotFollowsTransportJoin is the deterministic form of the
// torture harness's "registry changed after Run returned" failure (seeds
// 0xc17286ad85d4a84f, 0x73755cecbf3475bb). A TCP lane writer records its
// flush time after the bytes are on the socket; holding it there lets the
// peer deliver the frame, the transport go idle and Run finish its last
// superstep while the record is still owed. Result.Metrics must be taken
// after the writers are joined, on the barrier path and on BAP's.
func TestMetricsSnapshotFollowsTransportJoin(t *testing.T) {
	equivRequireLoopback(t)
	cluster.TestHookAfterFlush = func() { time.Sleep(2 * time.Millisecond) }
	defer func() { cluster.TestHookAfterFlush = nil }()
	for _, mode := range []Mode{BSP, BAP} {
		cfg := equivConfig(mode, SyncNone, TransportTCP)
		cfg.Workers, cfg.PartitionsPerWorker, cfg.MaxSupersteps = 2, 1, 6
		_, res, _, err := Run(equivGraph(false), algorithms.PageRank(0), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(cfg.Metrics.Snapshot(), res.Metrics) {
			t.Errorf("%v: the registry changed after Run returned", mode)
		}
	}
}

// TestMaxConcurrencyExcludesForkWaits: two partitions that share an edge
// exclude each other under partition locking, so with a thread each, one
// is always parked on the other's forks. The gauge counts executing
// partitions and must read exactly 1; counting the parked thread read 2.
func TestMaxConcurrencyExcludesForkWaits(t *testing.T) {
	b := graph.NewBuilder(64)
	for v := 0; v < 64; v++ {
		b.AddEdge(graph.VertexID(v), graph.VertexID((v+1)%64))
		b.AddEdge(graph.VertexID(v), graph.VertexID((v+7)%64))
	}
	g := b.BuildUndirected()
	for _, workers := range []int{1, 2} {
		cfg := Config{
			Workers: workers, PartitionsPerWorker: 2 / workers, ThreadsPerWorker: 2,
			Mode: Async, Sync: PartitionLock, Seed: 3, Metrics: metrics.New(),
		}
		colors, res, _, err := Run(g, algorithms.Coloring(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := algorithms.ValidateColoring(g, colors); err != nil {
			t.Fatal(err)
		}
		if res.MaxConcurrency != 1 {
			t.Errorf("%d workers: MaxConcurrency = %d for two mutually exclusive partitions, want 1",
				workers, res.MaxConcurrency)
		}
	}
}

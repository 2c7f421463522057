package engine

import (
	"testing"

	"serialgraph/internal/algorithms"
	"serialgraph/internal/cluster"
	"serialgraph/internal/generate"
	"serialgraph/internal/graph"
)

// BenchmarkLocalDelivery exercises the compute→local-delivery hot path
// end to end: a fixed-budget BSP PageRank sweep (the BENCH Fig. 1 anchor
// workload in miniature). Each vertex's SendToAllOut stages one fan-out
// entry for its local out-neighbors, which the partition-end PutBatch
// expands into their replica slots, and sends one fan-out entry per
// remote worker, which the batched onData apply expands the same way. The
// simulated network runs at zero propagation delay to keep the
// measurement compute-bound.
func BenchmarkLocalDelivery(b *testing.B) {
	g := generate.PowerLaw(generate.PowerLawConfig{N: 2000, AvgDegree: 8, Exponent: 2.2, Seed: 3})
	cfg := Config{
		Workers: 4, Mode: BSP, Sync: SyncNone,
		MaxSupersteps: 10, Seed: 1,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, _, err := Run(g, algorithms.PageRank(0.01), cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunSetup measures the set-up layer Run goes through before
// superstep 0 in pl_coloring's shape: addWorkers builds every worker (source
// table, message store, buffer cache, endpoint) and, under PartitionLock,
// the partition conflict graph and the lock managers. The input is the UK
// analog at scale 1, symmetrised, on 4 workers x 16 partitions. One op is
// one addWorkers on a fresh runner and in-process transport; building the
// runner and closing the transport are outside the timer.
func BenchmarkRunSetup(b *testing.B) {
	d, err := generate.ByName("UK")
	if err != nil {
		b.Fatal(err)
	}
	g := graph.Symmetrize(d.Build(1))
	cfg := Config{
		Workers: 4, PartitionsPerWorker: 16, Mode: Async, Sync: PartitionLock, Seed: 1,
	}.withDefaults()
	prog := algorithms.Coloring()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		r := newRunner(g, prog, cfg)
		r.attach(cluster.New(cfg.Workers, cfg.Latency))
		b.StartTimer()
		r.addWorkers(0, cfg.Workers, false)
		b.StopTimer()
		r.tr.Close()
		b.StartTimer()
	}
}

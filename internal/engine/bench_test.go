package engine

import (
	"testing"

	"serialgraph/internal/algorithms"
	"serialgraph/internal/generate"
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

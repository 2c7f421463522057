package engine

// Tests pinning the visibility semantics of thread-local message staging
// (worker.go): under BSP every local message is staged and becomes visible
// only in the next superstep; under Async a cross-partition same-worker
// message is folded into the store at the sending partition's boundary, so
// a partition executed later in the same pass still reads it in the same
// superstep (the AP model's eager local visibility).

import (
	"testing"

	"serialgraph/internal/graph"
	"serialgraph/internal/metrics"
	"serialgraph/internal/model"
	"serialgraph/internal/partition"
)

// stagingProg sends one message 0->1 in superstep 0, with Send or, when
// broadcast is set, with SendToAllOut along 0's one out-edge, and records in
// vertex 1's value the superstep at which the message arrived.
func stagingProg(broadcast bool) model.Program[int, int] {
	return model.Program[int, int]{
		Semantics: model.Queue,
		Init:      func(graph.VertexID, *graph.Graph) int { return -1 },
		Compute: func(ctx model.Context[int, int], msgs []int) {
			if ctx.ID() == 0 {
				if ctx.Superstep() == 0 && broadcast {
					ctx.SendToAllOut(7)
				} else if ctx.Superstep() == 0 {
					ctx.Send(1, 7)
				}
			} else if len(msgs) > 0 && ctx.Value() == -1 {
				ctx.SetValue(ctx.Superstep())
			}
			ctx.VoteToHalt()
		},
		MsgBytes: 8,
	}
}

// stagingConfig places vertex 0 in partition 0 and vertex 1 in partition 1,
// both on one single-threaded worker, so partition 1 always executes after
// partition 0 within a pass and the 0->1 message crosses a partition
// boundary without crossing the (simulated) network.
func stagingConfig(mode Mode) Config {
	return Config{
		Workers: 1, PartitionsPerWorker: 2, ThreadsPerWorker: 1,
		Mode: mode,
		Partitioner: func(g *graph.Graph, p, w int) *partition.Map {
			return partition.NewExplicit(g, []partition.ID{0, 1}, []int32{0, 0}, w)
		},
	}
}

func runStaging(t *testing.T, mode Mode, broadcast bool) ([]int, Result) {
	t.Helper()
	b := graph.NewBuilder(2)
	b.AddEdge(0, 1)
	vals, res, _, err := Run(b.Build(), stagingProg(broadcast), stagingConfig(mode))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("did not converge in %d supersteps", res.Supersteps)
	}
	return vals, res
}

func TestAsyncLocalMessageVisibleSameSuperstep(t *testing.T) {
	checkAsyncCrossPartition(t, false)
}

// TestAsyncLocalBroadcastVisibleSameSuperstep is the SendToAllOut twin: the
// broadcast's local row routes by partition range, and a target in another
// partition of the same worker reads it in the same superstep.
func TestAsyncLocalBroadcastVisibleSameSuperstep(t *testing.T) {
	checkAsyncCrossPartition(t, true)
}

func checkAsyncCrossPartition(t *testing.T, broadcast bool) {
	vals, res := runStaging(t, Async, broadcast)
	if vals[1] != 0 {
		t.Errorf("async: message staged by partition 0 arrived in superstep %d, want 0 (same pass)", vals[1])
	}
	if got := res.Metrics.Get(metrics.LocalMessages); got != 1 {
		t.Errorf("local_messages = %d, want exactly 1", got)
	}
	if got := res.Metrics.Get(metrics.RemoteEntries); got != 0 {
		t.Errorf("remote_entries = %d, want 0 (single worker)", got)
	}
}

func TestBSPLocalMessageDeferredToNextSuperstep(t *testing.T) {
	vals, res := runStaging(t, BSP, false)
	if vals[1] != 1 {
		t.Errorf("BSP: message arrived in superstep %d, want 1 (next superstep)", vals[1])
	}
	if got := res.Metrics.Get(metrics.LocalMessages); got != 1 {
		t.Errorf("local_messages = %d, want exactly 1", got)
	}
}

// TestAsyncSamePartitionEagerVisibility pins the eager path: with both
// vertices in ONE partition and vertex 0 executing first, the Async store
// write skips staging entirely and vertex 1 reads the message mid-pass.
func TestAsyncSamePartitionEagerVisibility(t *testing.T) {
	checkAsyncSamePartition(t, false)
}

// TestAsyncSamePartitionBroadcastEagerVisibility is the SendToAllOut twin:
// a broadcast target inside the sender's partition is put eagerly, so it
// reads the message later in the same pass.
func TestAsyncSamePartitionBroadcastEagerVisibility(t *testing.T) {
	checkAsyncSamePartition(t, true)
}

func checkAsyncSamePartition(t *testing.T, broadcast bool) {
	b := graph.NewBuilder(2)
	b.AddEdge(0, 1)
	vals, res, _, err := Run(b.Build(), stagingProg(broadcast), Config{
		Workers: 1, PartitionsPerWorker: 1, ThreadsPerWorker: 1, Mode: Async,
		Partitioner: func(g *graph.Graph, p, w int) *partition.Map {
			return partition.NewExplicit(g, []partition.ID{0, 0}, []int32{0}, w)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("did not converge")
	}
	if vals[1] != 0 {
		t.Errorf("async same-partition: message arrived in superstep %d, want 0", vals[1])
	}
}

// TestStagedFoldTimingSampled pins the sampled staged-fold timing path:
// a single-threaded worker folds 8 partitions × 16 supersteps = 128 staged
// batches, so the 1-in-64 sampler fires exactly twice. The message counts
// must stay exact (sampling covers only the clock, never the fold), and
// the sampled durations must surface — scaled — in PhaseLocalDelivery,
// which async-none runs previously lost entirely when their staged folds
// were never timed.
func TestStagedFoldTimingSampled(t *testing.T) {
	const n, rounds = 128, 16
	b := graph.NewBuilder(n)
	edges := 0
	for u := 0; u < n; u++ {
		for _, d := range []int{1, 5, 9, 17} {
			b.AddEdge(graph.VertexID(u), graph.VertexID((u+d)%n))
			edges++
		}
	}
	g := b.Build()
	prog := model.Program[int, int]{
		Semantics: model.Queue,
		Compute: func(ctx model.Context[int, int], msgs []int) {
			if ctx.Superstep() < rounds {
				ctx.SendToAllOut(1)
			}
			ctx.VoteToHalt()
		},
		MsgBytes: 8,
	}
	_, res, _, err := Run(g, prog, Config{
		Workers: 1, PartitionsPerWorker: 8, ThreadsPerWorker: 1,
		Mode: BSP, Sync: SyncNone, Seed: 3, MaxSupersteps: rounds + 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	m := res.Metrics
	if got, want := m.Get(metrics.LocalMessages), int64(edges*rounds); got != want {
		t.Errorf("local_messages = %d, want %d (exact despite timing sampling)", got, want)
	}
	if got := m.Get(metrics.RemoteEntries); got != 0 {
		t.Errorf("remote_entries = %d, want 0 (single worker)", got)
	}
	if m.PhaseNs[metrics.PhaseLocalDelivery] <= 0 {
		t.Errorf("PhaseLocalDelivery = %d ns, want > 0 (staged folds must be sampled)", m.PhaseNs[metrics.PhaseLocalDelivery])
	}
}

// TestStagedCountsExact runs a multi-worker broadcast where every message
// count is computable in closed form from the partition map, and checks
// the staged paths did not lose or double-count anything. Each of the n
// vertices sends along its out-edges once in superstep 0: even vertices
// with SendToAllOut, odd ones with one Send per edge. Every edge is then a
// local message, a remote point entry, or a target of a fan-out entry, and
// a broadcast sends one fan-out entry per remote worker holding an
// out-neighbor.
func TestStagedCountsExact(t *testing.T) {
	const n = 64
	b := graph.NewBuilder(n)
	edges := 0
	for u := 0; u < n; u++ {
		for _, d := range []int{1, 3, 7} {
			b.AddEdge(graph.VertexID(u), graph.VertexID((u+d)%n))
			edges++
		}
	}
	g := b.Build()
	prog := model.Program[int, int]{
		Semantics: model.Queue,
		Compute: func(ctx model.Context[int, int], msgs []int) {
			if ctx.Superstep() == 0 {
				if ctx.ID()%2 == 0 {
					ctx.SendToAllOut(1)
				} else {
					for _, dst := range ctx.OutNeighbors() {
						ctx.Send(dst, 1)
					}
				}
			}
			ctx.VoteToHalt()
		},
		MsgBytes: 8,
	}
	for _, mode := range []Mode{BSP, Async} {
		var pm *partition.Map
		_, res, _, err := Run(g, prog, Config{Workers: 4, ThreadsPerWorker: 2, Mode: mode, Seed: 9,
			Partitioner: func(g *graph.Graph, p, w int) *partition.Map {
				pm = partition.NewHash(g, p, w, 9)
				return pm
			}})
		if err != nil {
			t.Fatal(err)
		}
		var local, points, fanEntries, fanTargets int64
		for u := graph.VertexID(0); u < n; u++ {
			remoteWorkers := map[int]bool{}
			for _, v := range g.OutNeighbors(u) {
				switch wk := pm.WorkerOf(v); {
				case wk == pm.WorkerOf(u):
					local++
				case u%2 == 0:
					fanTargets++
					remoteWorkers[wk] = true
				default:
					points++
				}
			}
			fanEntries += int64(len(remoteWorkers))
		}
		if local+points+fanTargets != int64(edges) {
			t.Fatalf("closed form splits %d edges into %d + %d + %d", edges, local, points, fanTargets)
		}
		m := res.Metrics
		if got := m.Get(metrics.LocalMessages); got != local {
			t.Errorf("%v: local_messages %d, want %d", mode, got, local)
		}
		if got := m.Get(metrics.RemoteEntries); got != points+fanEntries {
			t.Errorf("%v: remote_entries %d, want %d point + %d fan-out", mode, got, points, fanEntries)
		}
		if got := m.Get(metrics.FanOutTargets); got != fanTargets {
			t.Errorf("%v: fan_out_targets %d, want %d", mode, got, fanTargets)
		}
		remote := m.Get(metrics.RemoteEntries)
		if remote != m.Get(metrics.RemoteEntriesFlushed) {
			t.Errorf("%v: flushed %d != buffered %d", mode, m.Get(metrics.RemoteEntriesFlushed), remote)
		}
		if remote != m.Get(metrics.RemoteEntriesDelivered) {
			t.Errorf("%v: delivered %d != buffered %d", mode, m.Get(metrics.RemoteEntriesDelivered), remote)
		}
	}
}

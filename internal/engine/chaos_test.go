package engine

// Chaos harness: every test here runs a full engine.Run with faults
// injected by internal/fault and asserts that automatic in-run recovery
// (barrier detection → whole-cluster rollback → revive → resume, §6.4)
// preserves the algorithm's answer — including the serializability
// guarantees of the Chandy–Misra technique across a mid-run rollback.

import (
	"math"
	"strings"
	"testing"

	"serialgraph/internal/algorithms"
	"serialgraph/internal/fault"
	"serialgraph/internal/generate"
	"serialgraph/internal/graph"
	"serialgraph/internal/history"
	"serialgraph/internal/metrics"
)

func chaosGraph(t *testing.T) *graph.Graph {
	t.Helper()
	return generate.PowerLaw(generate.PowerLawConfig{N: 500, AvgDegree: 4, Exponent: 2.2, Seed: 17})
}

// TestChaosSSSPCrashRecovery is the headline scenario: a worker crashes at
// superstep 3 of an SSSP run checkpointing every 2 supersteps. One Run
// call must detect the death, roll back to the superstep-1 checkpoint,
// revive the worker, resume, and produce exactly the fault-free answer.
func TestChaosSSSPCrashRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test")
	}
	g := chaosGraph(t)
	want := algorithms.ShortestPaths(g, 0)

	inj := fault.NewInjector(fault.Plan{Crashes: []fault.Crash{{Worker: 1, AtSuperstep: 3}}})
	cfg := Config{
		Workers: 4, Mode: Async, Sync: PartitionLock, Seed: 5,
		CheckpointEvery: 2, CheckpointDir: t.TempDir(),
		Fault: inj,
	}
	dist, res, _, err := Run(g, algorithms.SSSP(0), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("crashed run did not converge")
	}
	if !inj.Exhausted() {
		t.Fatal("scheduled crash never fired (run too short?)")
	}
	if got := res.Metrics.Get(metrics.Rollbacks); got != 1 {
		t.Errorf("Rollbacks = %d, want 1", got)
	}
	// The crash hit superstep 3; the latest checkpoint covered supersteps
	// 0-1, so supersteps 2 and 3 are recomputed.
	if got := res.Metrics.Get(metrics.RecomputedSupersteps); got != 2 {
		t.Errorf("RecomputedSupersteps = %d, want 2", got)
	}
	if got := res.Metrics.Get(metrics.WastedMessages); got <= 0 {
		t.Errorf("WastedMessages = %d, want > 0", got)
	}
	if res.Net.DroppedMessages <= 0 {
		t.Errorf("Net.DroppedMessages = %d, want > 0 (the dead worker's traffic)", res.Net.DroppedMessages)
	}
	for v := range want {
		if dist[v] != want[v] {
			t.Fatalf("dist[%d] = %v, want %v", v, dist[v], want[v])
		}
	}
}

// TestChaosColoringSerializabilitySurvivesRollback runs greedy coloring
// under partition-based Chandy–Misra locking with a crash and verifies
// both that the final coloring is proper and that the post-rollback
// transaction history still satisfies C1, C2, and 1SR — the
// serializability guarantee survives the recovery path.
func TestChaosColoringSerializabilitySurvivesRollback(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test")
	}
	g := undirected(chaosGraph(t))

	inj := fault.NewInjector(fault.Plan{Crashes: []fault.Crash{{Worker: 2, AtSuperstep: 1}}})
	cfg := Config{
		Workers: 4, Mode: Async, Sync: PartitionLock, Seed: 9,
		CheckpointEvery: 1, CheckpointDir: t.TempDir(),
		TrackHistory: true,
		Fault:        inj,
	}
	colors, res, rec, err := Run(g, algorithms.Coloring(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("crashed run did not converge")
	}
	if got := res.Metrics.Get(metrics.Rollbacks); got < 1 {
		t.Fatalf("Rollbacks = %d, want >= 1", got)
	}
	if err := algorithms.ValidateColoring(g, colors); err != nil {
		t.Fatalf("coloring invalid after recovery: %v", err)
	}
	if vs := history.CheckAll(rec.Txns(), g); len(vs) != 0 {
		t.Fatalf("%d serializability violations after rollback, first: %v", len(vs), vs[0])
	}
}

// TestChaosPageRankCrashRecovery exercises recovery under BSP: PageRank
// with a mid-run crash must match the fault-free run (up to floating-point
// summation order).
func TestChaosPageRankCrashRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test")
	}
	g := chaosGraph(t)
	// eps 0.05: tight enough to need tens of supersteps, loose enough that
	// BSP converges (at 0.01 this graph oscillates under BSP — the very
	// pathology the paper studies).
	const eps = 0.05
	base := Config{Workers: 4, Mode: BSP, Sync: SyncNone, Seed: 5, MaxSupersteps: 200}

	want, resBase, _, err := Run(g, algorithms.PageRank(eps), base)
	if err != nil {
		t.Fatal(err)
	}
	if !resBase.Converged {
		t.Fatal("baseline did not converge")
	}

	crashed := base
	crashed.CheckpointEvery = 2
	crashed.CheckpointDir = t.TempDir()
	crashed.Fault = fault.NewInjector(fault.Plan{Crashes: []fault.Crash{{Worker: 3, AtSuperstep: 3}}})
	got, res, _, err := Run(g, algorithms.PageRank(eps), crashed)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("crashed run did not converge")
	}
	if got := res.Metrics.Get(metrics.Rollbacks); got != 1 {
		t.Errorf("Rollbacks = %d, want 1", got)
	}
	for v := range want {
		if d := math.Abs(got[v] - want[v]); d > 1e-6 {
			t.Fatalf("rank[%d] = %v, want %v (Δ %v)", v, got[v], want[v], d)
		}
	}
}

// TestChaosMessageTriggeredCrash kills a worker mid-superstep, once the
// cluster has delivered a fixed number of data messages — the failure
// point no barrier aligns with.
func TestChaosMessageTriggeredCrash(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test")
	}
	g := chaosGraph(t)
	want := algorithms.ShortestPaths(g, 0)

	inj := fault.NewInjector(fault.Plan{Crashes: []fault.Crash{{Worker: 2, AfterMessages: 40}}})
	cfg := Config{
		Workers: 4, Mode: Async, Sync: PartitionLock, Seed: 5,
		CheckpointEvery: 2, CheckpointDir: t.TempDir(),
		Fault: inj,
	}
	dist, res, _, err := Run(g, algorithms.SSSP(0), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("crashed run did not converge")
	}
	if !inj.Exhausted() {
		t.Skip("run finished under 40 data batches; crash never fired")
	}
	if got := res.Metrics.Get(metrics.Rollbacks); got < 1 {
		t.Fatalf("Rollbacks = %d, want >= 1", got)
	}
	for v := range want {
		if dist[v] != want[v] {
			t.Fatalf("dist[%d] = %v, want %v", v, dist[v], want[v])
		}
	}
}

// TestChaosCrashBeforeAnyCheckpoint rolls back with nothing on disk: the
// cluster must restart the computation from its initial state within the
// same Run call.
func TestChaosCrashBeforeAnyCheckpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test")
	}
	g := chaosGraph(t)
	want := algorithms.ShortestPaths(g, 0)

	inj := fault.NewInjector(fault.Plan{Crashes: []fault.Crash{{Worker: 0, AtSuperstep: 1}}})
	cfg := Config{
		Workers: 4, Mode: Async, Sync: PartitionLock, Seed: 5,
		Fault: inj, // no CheckpointDir at all
	}
	dist, res, _, err := Run(g, algorithms.SSSP(0), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("run did not converge")
	}
	if got := res.Metrics.Get(metrics.Rollbacks); got != 1 {
		t.Errorf("Rollbacks = %d, want 1", got)
	}
	// Failed at superstep 1, restarted from 0: supersteps 0 and 1 redone.
	if got := res.Metrics.Get(metrics.RecomputedSupersteps); got != 2 {
		t.Errorf("RecomputedSupersteps = %d, want 2", got)
	}
	for v := range want {
		if dist[v] != want[v] {
			t.Fatalf("dist[%d] = %v, want %v", v, dist[v], want[v])
		}
	}
}

// TestChaosRepeatedCrashes drives several distinct failures through one
// run; each triggers its own rollback and the answer still comes out
// exact.
func TestChaosRepeatedCrashes(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test")
	}
	g := chaosGraph(t)
	want := algorithms.ShortestPaths(g, 0)

	inj := fault.NewInjector(fault.Plan{Crashes: []fault.Crash{
		{Worker: 1, AtSuperstep: 1},
		{Worker: 3, AtSuperstep: 3},
	}})
	cfg := Config{
		Workers: 4, Mode: Async, Sync: PartitionLock, Seed: 5,
		CheckpointEvery: 1, CheckpointDir: t.TempDir(),
		Fault: inj,
	}
	dist, res, _, err := Run(g, algorithms.SSSP(0), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("run did not converge")
	}
	if !inj.Exhausted() {
		t.Skip("run converged before both crashes fired")
	}
	if got := res.Metrics.Get(metrics.Rollbacks); got != 2 {
		t.Errorf("Rollbacks = %d, want 2", got)
	}
	for v := range want {
		if dist[v] != want[v] {
			t.Fatalf("dist[%d] = %v, want %v", v, dist[v], want[v])
		}
	}
}

// TestChaosDuplicatesAndStragglersAreHarmless: duplicated deliveries and
// stragglers must not change the answer of an idempotent algorithm (SSSP's
// min-combine), and stragglers must not leak messages across barriers.
func TestChaosDuplicatesAndStragglersAreHarmless(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test")
	}
	g := chaosGraph(t)
	want := algorithms.ShortestPaths(g, 0)

	inj := fault.NewInjector(fault.Plan{
		DuplicateRate: 0.2, StragglerRate: 0.1, StragglerDelay: 200_000, // 200µs
		Seed: 7,
	})
	cfg := Config{Workers: 4, Mode: Async, Sync: PartitionLock, Seed: 5, Fault: inj}
	dist, res, _, err := Run(g, algorithms.SSSP(0), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("run did not converge")
	}
	st := inj.Stats()
	if st.Duplicates == 0 || st.Delays == 0 {
		t.Fatalf("chaos never fired: %+v", st)
	}
	if got := res.Metrics.Get(metrics.Rollbacks); got != 0 {
		t.Errorf("Rollbacks = %d on a crash-free run", got)
	}
	for v := range want {
		if dist[v] != want[v] {
			t.Fatalf("dist[%d] = %v, want %v", v, dist[v], want[v])
		}
	}
}

// TestChaosDropsAreAccounted: injected message loss on a crash-free run
// terminates cleanly and every drop shows up in the transport counters.
// (Without a crash there is no rollback, so no correctness claim is made —
// lossy links are not the paper's failure model; this pins down liveness
// and accounting.) BufferCap 1 sends every remote message as a batch of
// its own, so the 5% rate has thousands of batches to fire on, not the few
// full 512-entry ones a run would otherwise send.
func TestChaosDropsAreAccounted(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test")
	}
	g := chaosGraph(t)
	inj := fault.NewInjector(fault.Plan{DropRate: 0.05, Seed: 11})
	cfg := Config{Workers: 4, Mode: Async, Sync: SyncNone, Seed: 5, Fault: inj, BufferCap: 1}
	_, res, _, err := Run(g, algorithms.SSSP(0), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("run did not terminate")
	}
	st := inj.Stats()
	if st.Drops == 0 {
		t.Fatal("no drops fired at 5% over a full run")
	}
	if res.Net.DroppedMessages < st.Drops {
		t.Errorf("transport counted %d drops, injector made %d", res.Net.DroppedMessages, st.Drops)
	}
}

// TestChaosMaxRollbacksGivesUp: a fault schedule that keeps killing
// workers must end in a clean error once MaxRollbacks is exhausted, not
// loop forever.
func TestChaosMaxRollbacksGivesUp(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test")
	}
	g := chaosGraph(t)
	inj := fault.NewInjector(fault.Plan{Crashes: []fault.Crash{
		{Worker: 0, AtSuperstep: 1},
		{Worker: 1, AtSuperstep: 2},
		{Worker: 2, AtSuperstep: 3},
	}})
	cfg := Config{
		Workers: 4, Mode: Async, Sync: PartitionLock, Seed: 5,
		CheckpointEvery: 1, CheckpointDir: t.TempDir(),
		MaxRollbacks: 2,
		Fault:        inj,
	}
	_, _, _, err := Run(g, algorithms.SSSP(0), cfg)
	if err == nil || !strings.Contains(err.Error(), "MaxRollbacks") {
		t.Fatalf("err = %v, want MaxRollbacks error", err)
	}
}

// Config validation around faults and checkpoints.

func TestConfigRejectsCheckpointEveryWithoutDir(t *testing.T) {
	g := generate.Ring(10)
	cfg := Config{Workers: 2, Mode: Async, CheckpointEvery: 2}
	if _, _, _, err := Run(g, algorithms.SSSP(0), cfg); err == nil {
		t.Fatal("CheckpointEvery with no CheckpointDir was accepted")
	}
}

func TestConfigRejectsFaultWithBAP(t *testing.T) {
	g := generate.Ring(10)
	cfg := Config{
		Workers: 2, Mode: BAP, Sync: SyncNone,
		Fault: fault.NewInjector(fault.Plan{}),
	}
	if _, _, _, err := Run(g, algorithms.SSSP(0), cfg); err == nil {
		t.Fatal("fault injection under BAP was accepted")
	}
}

func TestConfigRejectsCrashOutsideCluster(t *testing.T) {
	g := generate.Ring(10)
	cfg := Config{
		Workers: 2, Mode: Async,
		Fault: fault.NewInjector(fault.Plan{Crashes: []fault.Crash{{Worker: 7, AtSuperstep: 0}}}),
	}
	if _, _, _, err := Run(g, algorithms.SSSP(0), cfg); err == nil {
		t.Fatal("crash target outside the cluster was accepted")
	}
}

package engine

// Confined-recovery chaos tests: a crash under Recovery: RecoverConfined
// must roll back only the crashed workers' partitions — healthy workers
// keep their in-memory state and replay their logged sends — and still
// produce exactly the full-rollback (and fault-free) answer. The watchdog
// tests stall a run by dropping a control message and assert the deadline
// turns the wedge into a recovery instead of a hang.

import (
	"os"
	"testing"
	"time"

	"serialgraph/internal/algorithms"
	"serialgraph/internal/checkpoint"
	"serialgraph/internal/fault"
	"serialgraph/internal/history"
	"serialgraph/internal/metrics"
)

// TestConfinedRecoverySSSP is the headline confined scenario: one of four
// workers crashes at superstep 3 with a checkpoint covering supersteps 0-1.
// Only the dead worker's partitions reload and replay supersteps 2-3; the
// accounting must show exactly that share of the recompute work.
func TestConfinedRecoverySSSP(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test")
	}
	g := chaosGraph(t)
	want := algorithms.ShortestPaths(g, 0)

	inj := fault.NewInjector(fault.Plan{Crashes: []fault.Crash{{Worker: 1, AtSuperstep: 3}}})
	cfg := Config{
		Workers: 4, Mode: Async, Sync: PartitionLock, Seed: 5,
		CheckpointEvery: 2, CheckpointDir: t.TempDir(),
		Recovery: RecoverConfined,
		Fault:    inj,
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
	if a, b := res.Metrics.Get(metrics.Rollbacks), res.Metrics.Get(metrics.ConfinedRecoveries); a != 1 || b != 1 {
		t.Errorf("Rollbacks = %d, ConfinedRecoveries = %d, want 1 and 1", a, b)
	}
	// Crash at superstep 3, checkpoint at 1: supersteps 2 and 3 replay, but
	// only on the dead worker's quarter of the partitions.
	if got := res.Metrics.Get(metrics.RecomputedSupersteps); got != 2 {
		t.Errorf("RecomputedSupersteps = %d, want 2", got)
	}
	deadParts := int64(res.Partition.Partitions / cfg.Workers)
	if got := res.Metrics.Get(metrics.RecomputedPartitionSupersteps); got != 2*deadParts {
		t.Errorf("RecomputedPartitionSupersteps = %d, want %d", got, 2*deadParts)
	}
	if got := res.Metrics.Get(metrics.PartitionsRestored); got != deadParts {
		t.Errorf("partitions_restored = %d, want %d (only the dead worker's)", got, deadParts)
	}
	if got := res.Metrics.Get(metrics.MessagesReplayed); got <= 0 {
		t.Errorf("messages_replayed = %d, want > 0 (healthy logs feed the replay)", got)
	}
	for v := range want {
		if dist[v] != want[v] {
			t.Fatalf("dist[%d] = %v, want %v", v, dist[v], want[v])
		}
	}
}

// TestConfinedMatchesFull runs the same crash plan under both recovery
// scopes: answers must be identical, and confined must recompute strictly
// fewer partition-supersteps than full.
func TestConfinedMatchesFull(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test")
	}
	g := chaosGraph(t)
	run := func(mode RecoveryMode) ([]float64, Result) {
		cfg := Config{
			Workers: 4, Mode: Async, Sync: PartitionLock, Seed: 5,
			CheckpointEvery: 2, CheckpointDir: t.TempDir(),
			Recovery: mode,
			Fault:    fault.NewInjector(fault.Plan{Crashes: []fault.Crash{{Worker: 2, AtSuperstep: 3}}}),
		}
		dist, res, _, err := Run(g, algorithms.SSSP(0), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatal("run did not converge")
		}
		return dist, res
	}
	full, resFull := run(RecoverFull)
	conf, resConf := run(RecoverConfined)
	mc, mf := resConf.Metrics, resFull.Metrics
	if c, f := mc.Get(metrics.ConfinedRecoveries), mf.Get(metrics.ConfinedRecoveries); c != 1 || f != 0 {
		t.Errorf("ConfinedRecoveries: confined %d (want 1), full %d (want 0)", c, f)
	}
	if c, f := mc.Get(metrics.RecomputedPartitionSupersteps), mf.Get(metrics.RecomputedPartitionSupersteps); c >= f {
		t.Errorf("confined recomputed %d partition-supersteps, full %d; confined must be strictly fewer", c, f)
	}
	for v := range full {
		if full[v] != conf[v] {
			t.Fatalf("dist[%d]: full %v, confined %v", v, full[v], conf[v])
		}
	}
}

// TestConfinedNoCheckpointReplaysFromStart: with no checkpoint on disk a
// confined recovery still confines — the dead worker's partitions reset to
// their initial values and replay every superstep from 0, while healthy
// partitions never roll back.
func TestConfinedNoCheckpointReplaysFromStart(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test")
	}
	g := chaosGraph(t)
	want := algorithms.ShortestPaths(g, 0)

	inj := fault.NewInjector(fault.Plan{Crashes: []fault.Crash{{Worker: 0, AtSuperstep: 1}}})
	cfg := Config{
		Workers: 4, Mode: Async, Sync: PartitionLock, Seed: 5,
		Recovery: RecoverConfined,
		Fault:    inj, // no CheckpointDir at all
	}
	dist, res, _, err := Run(g, algorithms.SSSP(0), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("run did not converge")
	}
	if got := res.Metrics.Get(metrics.ConfinedRecoveries); got != 1 {
		t.Errorf("ConfinedRecoveries = %d, want 1", got)
	}
	// Failed at superstep 1, replayed from 0: supersteps 0 and 1, one
	// worker's partitions only.
	if got := res.Metrics.Get(metrics.RecomputedSupersteps); got != 2 {
		t.Errorf("RecomputedSupersteps = %d, want 2", got)
	}
	if want := int64(2 * res.Partition.Partitions / cfg.Workers); res.Metrics.Get(metrics.RecomputedPartitionSupersteps) != want {
		t.Errorf("RecomputedPartitionSupersteps = %d, want %d", res.Metrics.Get(metrics.RecomputedPartitionSupersteps), want)
	}
	for v := range want {
		if dist[v] != want[v] {
			t.Fatalf("dist[%d] = %v, want %v", v, dist[v], want[v])
		}
	}
}

// TestConfinedFallsBackOnMidSuperstepCrash: a worker killed mid-superstep
// (message-count trigger) leaked partial sends into healthy state before
// dying, so confinement is ineligible and the engine must fall back to a
// full rollback — and still be exact.
func TestConfinedFallsBackOnMidSuperstepCrash(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test")
	}
	g := chaosGraph(t)
	want := algorithms.ShortestPaths(g, 0)

	inj := fault.NewInjector(fault.Plan{Crashes: []fault.Crash{{Worker: 2, AfterMessages: 40}}})
	cfg := Config{
		Workers: 4, Mode: Async, Sync: PartitionLock, Seed: 5,
		CheckpointEvery: 2, CheckpointDir: t.TempDir(),
		Recovery: RecoverConfined,
		Fault:    inj,
	}
	dist, res, _, err := Run(g, algorithms.SSSP(0), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("run did not converge")
	}
	if !inj.Exhausted() {
		t.Skip("run finished under 40 data batches; crash never fired")
	}
	if got := res.Metrics.Get(metrics.ConfinedRecoveries); got != 0 {
		t.Errorf("ConfinedRecoveries = %d, want 0 (mid-superstep crash must fall back)", got)
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

// TestConfinedSerializabilitySurvives: greedy coloring under Chandy–Misra
// locking with a confined recovery in the middle — the final coloring must
// be proper and the post-recovery history must still satisfy C1, C2, and
// 1SR, i.e. the rebuilt fork state of the recovering partitions composes
// with the healthy workers' live fork state.
func TestConfinedSerializabilitySurvives(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test")
	}
	g := undirected(chaosGraph(t))

	inj := fault.NewInjector(fault.Plan{Crashes: []fault.Crash{{Worker: 2, AtSuperstep: 1}}})
	cfg := Config{
		Workers: 4, Mode: Async, Sync: PartitionLock, Seed: 9,
		CheckpointEvery: 1, CheckpointDir: t.TempDir(),
		Recovery:     RecoverConfined,
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
	if got := res.Metrics.Get(metrics.ConfinedRecoveries); got < 1 {
		t.Fatalf("ConfinedRecoveries = %d, want >= 1", got)
	}
	if err := algorithms.ValidateColoring(g, colors); err != nil {
		t.Fatalf("coloring invalid after confined recovery: %v", err)
	}
	if vs := history.CheckAll(rec.Txns(), g); len(vs) != 0 {
		t.Fatalf("%d serializability violations after confined recovery, first: %v", len(vs), vs[0])
	}
}

// TestConfinedPageRankBSP exercises confined recovery under BSP with
// Overwrite semantics: replayed remote sends re-deliver into healthy
// workers' stores as duplicates, which must be slot-idempotent.
func TestConfinedPageRankBSP(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test")
	}
	g := chaosGraph(t)
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
	crashed.Recovery = RecoverConfined
	crashed.Fault = fault.NewInjector(fault.Plan{Crashes: []fault.Crash{{Worker: 3, AtSuperstep: 3}}})
	got, res, _, err := Run(g, algorithms.PageRank(eps), crashed)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("crashed run did not converge")
	}
	if got := res.Metrics.Get(metrics.ConfinedRecoveries); got != 1 {
		t.Errorf("ConfinedRecoveries = %d, want 1", got)
	}
	for v := range want {
		if d := got[v] - want[v]; d > 1e-6 || d < -1e-6 {
			t.Fatalf("rank[%d] = %v, want %v (Δ %v)", v, got[v], want[v], d)
		}
	}
}

// TestWatchdogRecoversDroppedForkBatch wedges a partition-locking run by
// dropping one fork batch on the wire: without the watchdog the hungry
// philosopher would wait forever for forks that never come. The watchdog
// must detect the stall within the deadline, kill the wedged worker, force
// the barrier, and recover to the exact answer.
func TestWatchdogRecoversDroppedForkBatch(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test")
	}
	g := chaosGraph(t)
	want := algorithms.ShortestPaths(g, 0)

	inj := fault.NewInjector(fault.Plan{CtrlDrops: []fault.CtrlDrop{{AtSuperstep: 1, Count: 1}}})
	cfg := Config{
		Workers: 4, Mode: Async, Sync: PartitionLock, Seed: 5,
		WatchdogTimeout: 2 * time.Second,
		Fault:           inj,
	}
	start := time.Now()
	dist, res, _, err := Run(g, algorithms.SSSP(0), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("stalled run did not converge")
	}
	if st := inj.Stats(); st.CtrlDrops != 1 {
		t.Fatalf("CtrlDrops = %d, want 1 (the stall never happened)", st.CtrlDrops)
	}
	if got := res.Metrics.Get(metrics.WatchdogStalls); got < 1 {
		t.Errorf("WatchdogStalls = %d, want >= 1", got)
	}
	if got := res.Metrics.Get(metrics.Rollbacks); got < 1 {
		t.Errorf("Rollbacks = %d, want >= 1 (the stall escalates to recovery)", got)
	}
	// Generous bound: one stall costs one deadline; anything near a minute
	// means the run hung and something else timed it out.
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Errorf("run took %v; the watchdog did not bound the stall", elapsed)
	}
	for v := range want {
		if dist[v] != want[v] {
			t.Fatalf("dist[%d] = %v, want %v", v, dist[v], want[v])
		}
	}
}

// TestWatchdogCleanRunUnaffected: a fault-free run under a watchdog must
// never fire it — and must still be exact.
func TestWatchdogCleanRunUnaffected(t *testing.T) {
	g := chaosGraph(t)
	want := algorithms.ShortestPaths(g, 0)
	cfg := Config{
		Workers: 4, Mode: Async, Sync: TokenSingle, Seed: 5,
		WatchdogTimeout: 30 * time.Second,
	}
	dist, res, _, err := Run(g, algorithms.SSSP(0), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("run did not converge")
	}
	if a, b := res.Metrics.Get(metrics.WatchdogStalls), res.Metrics.Get(metrics.Rollbacks); a != 0 || b != 0 {
		t.Errorf("WatchdogStalls = %d, Rollbacks = %d on a clean run", a, b)
	}
	for v := range want {
		if dist[v] != want[v] {
			t.Fatalf("dist[%d] = %v, want %v", v, dist[v], want[v])
		}
	}
}

// TestTornCheckpointFallsBack simulates a worker crashing in the middle of
// a checkpoint write with a non-atomic writer: a torn newest generation
// sits on disk when the rollback runs. (Save itself is atomic — this
// plants the torn file directly — so the test pins the *reader's* fallback
// chain.) Recovery must skip the corrupt generation, restore the older
// intact one, and count the skip.
func TestTornCheckpointFallsBack(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test")
	}
	g := chaosGraph(t)
	want := algorithms.ShortestPaths(g, 0)

	dir := t.TempDir()
	// A torn generation newer than the intact one the run will write at
	// superstep 1, but older than the crash at superstep 3 — the residue
	// of a previous process that died mid-checkpoint in the same
	// directory. Recovery must restore from this run's own superstep-1
	// generation: files beyond the run's newest checkpoint are foreign
	// and are not even read (LoadChainMax), let alone restored.
	if err := os.WriteFile(checkpoint.Path(dir, 2), []byte("SGC2 torn mid-write"), 0o644); err != nil {
		t.Fatal(err)
	}

	inj := fault.NewInjector(fault.Plan{Crashes: []fault.Crash{{Worker: 1, AtSuperstep: 3}}})
	cfg := Config{
		Workers: 4, Mode: Async, Sync: PartitionLock, Seed: 5,
		CheckpointEvery: 2, CheckpointDir: dir,
		Fault: inj,
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
	if got := res.Metrics.Get(metrics.CheckpointGensSkipped); got != 0 {
		t.Errorf("checkpoint_gens_skipped = %d, want 0 (the torn file is foreign — ignored, not read and skipped)", got)
	}
	// The torn generation claimed superstep 2; restoring the run's own
	// superstep-1 generation recomputes supersteps 2 and 3.
	if got := res.Metrics.Get(metrics.RecomputedSupersteps); got != 2 {
		t.Errorf("RecomputedSupersteps = %d, want 2 (restored from this run's intact generation)", got)
	}
	for v := range want {
		if dist[v] != want[v] {
			t.Fatalf("dist[%d] = %v, want %v", v, dist[v], want[v])
		}
	}
}

// TestConfinedRepeatedCrashes: two separate crashes, each confined, one
// run, exact answer.
func TestConfinedRepeatedCrashes(t *testing.T) {
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
		Recovery: RecoverConfined,
		Fault:    inj,
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
	if a, b := res.Metrics.Get(metrics.Rollbacks), res.Metrics.Get(metrics.ConfinedRecoveries); a != 2 || b != 2 {
		t.Errorf("Rollbacks = %d, ConfinedRecoveries = %d, want 2 and 2", a, b)
	}
	for v := range want {
		if dist[v] != want[v] {
			t.Fatalf("dist[%d] = %v, want %v", v, dist[v], want[v])
		}
	}
}

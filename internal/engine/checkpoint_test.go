package engine

import (
	"testing"

	"serialgraph/internal/algorithms"
	"serialgraph/internal/checkpoint"
	"serialgraph/internal/fault"
	"serialgraph/internal/generate"
	"serialgraph/internal/metrics"
)

// TestCheckpointRecovery simulates a mid-run cluster failure: a first run
// checkpoints every 2 supersteps and is killed (MaxSupersteps) before
// converging; a second run restores from the latest checkpoint and must
// finish with exactly the reference answer.
func TestCheckpointRecovery(t *testing.T) {
	g := generate.PowerLaw(generate.PowerLawConfig{N: 500, AvgDegree: 4, Exponent: 2.2, Seed: 17})
	want := algorithms.ShortestPaths(g, 0)
	dir := t.TempDir()

	base := Config{
		Workers: 4, Mode: Async, Sync: PartitionLock, Seed: 5,
		CheckpointEvery: 2, CheckpointDir: dir,
	}

	// Run 1: crash after 4 supersteps.
	crashed := base
	crashed.MaxSupersteps = 4
	_, res1, _, err := Run(g, algorithms.SSSP(0), crashed)
	if err != nil {
		t.Fatal(err)
	}
	if res1.Converged {
		t.Skip("graph too easy: converged before the injected crash")
	}

	latest, err := checkpoint.Latest(dir)
	if err != nil || latest == "" {
		t.Fatalf("no checkpoint found: %v", err)
	}

	// Run 2: restore and finish.
	resumed := base
	resumed.RestoreFrom = latest
	dist, res2, _, err := Run(g, algorithms.SSSP(0), resumed)
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Converged {
		t.Fatal("resumed run did not converge")
	}
	for v := range want {
		if dist[v] != want[v] {
			t.Fatalf("dist[%d] = %v, want %v", v, dist[v], want[v])
		}
	}
	// The resumed run must not redo the completed supersteps.
	if res2.Supersteps <= 2 {
		t.Logf("resumed run took %d supersteps", res2.Supersteps)
	}
}

// TestCheckpointRecoveryColoring exercises recovery with the Overwrite
// store and fork state under partition locking.
func TestCheckpointRecoveryColoring(t *testing.T) {
	g0 := generate.PowerLaw(generate.PowerLawConfig{N: 400, AvgDegree: 5, Exponent: 2.1, Seed: 23})
	g := undirected(g0)
	dir := t.TempDir()
	base := Config{
		Workers: 4, Mode: Async, Sync: PartitionLock, Seed: 9,
		CheckpointEvery: 1, CheckpointDir: dir,
	}
	crashed := base
	crashed.MaxSupersteps = 1
	_, res1, _, err := Run(g, algorithms.Coloring(), crashed)
	if err != nil {
		t.Fatal(err)
	}
	if res1.Converged {
		t.Skip("converged in one superstep")
	}
	latest, err := checkpoint.Latest(dir)
	if err != nil || latest == "" {
		t.Fatalf("no checkpoint: %v", err)
	}
	resumed := base
	resumed.RestoreFrom = latest
	colors, res2, _, err := Run(g, algorithms.Coloring(), resumed)
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Converged {
		t.Fatal("resumed run did not converge")
	}
	if err := algorithms.ValidateColoring(g, colors); err != nil {
		t.Fatal(err)
	}
}

func TestRestoreRejectsWrongShape(t *testing.T) {
	g := generate.Ring(10)
	dir := t.TempDir()
	cfg := Config{Workers: 2, Mode: Async, CheckpointEvery: 1, CheckpointDir: dir, MaxSupersteps: 2}
	if _, _, _, err := Run(g, algorithms.SSSP(0), cfg); err != nil {
		t.Fatal(err)
	}
	latest, _ := checkpoint.Latest(dir)
	if latest == "" {
		t.Fatal("no checkpoint written")
	}
	// Restore onto a different graph size must fail loudly.
	g2 := generate.Ring(20)
	bad := Config{Workers: 2, Mode: Async, RestoreFrom: latest}
	if _, _, _, err := Run(g2, algorithms.SSSP(0), bad); err == nil {
		t.Error("mismatched restore succeeded")
	}
}

// TestRestoreFromThenCrash pins where a restored run finds its restore
// point: a run resumed with RestoreFrom and no CheckpointDir must recover a
// crash from the generation it restored, read from that generation's
// directory, under either recovery scope. The working directory holds
// another run's generations 0-3 of the same shape (PageRank on the same
// graph and workers), which a lookup in "" would find and restore.
func TestRestoreFromThenCrash(t *testing.T) {
	g := chaosGraph(t)
	want := algorithms.ShortestPaths(g, 0)
	base := Config{Workers: 4, Mode: Async, Sync: PartitionLock, Seed: 5}

	dirA := t.TempDir()
	first := base
	first.CheckpointEvery, first.CheckpointDir, first.MaxSupersteps = 2, dirA, 4
	if _, res, _, err := Run(g, algorithms.SSSP(0), first); err != nil {
		t.Fatal(err)
	} else if res.Converged {
		t.Skip("graph too easy: converged before the restore point")
	}
	foreign := t.TempDir()
	other := base
	other.CheckpointEvery, other.CheckpointDir, other.MaxSupersteps = 1, foreign, 4
	if _, _, _, err := Run(g, algorithms.PageRank(1e-9), other); err != nil {
		t.Fatal(err)
	}
	t.Chdir(foreign)

	for _, mode := range []RecoveryMode{RecoverFull, RecoverConfined} {
		t.Run(mode.String(), func(t *testing.T) {
			inj := fault.NewInjector(fault.Plan{Crashes: []fault.Crash{{Worker: 1, AtSuperstep: 5}}})
			cfg := base
			cfg.RestoreFrom, cfg.Recovery, cfg.Fault = checkpoint.Path(dirA, 3), mode, inj
			dist, res, _, err := Run(g, algorithms.SSSP(0), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !inj.Exhausted() {
				t.Fatal("scheduled crash never fired (run too short?)")
			}
			if mode == RecoverConfined && res.Metrics.Get(metrics.ConfinedRecoveries) != 1 {
				t.Errorf("ConfinedRecoveries = %d, want 1", res.Metrics.Get(metrics.ConfinedRecoveries))
			}
			// Restored at 3, crashed at 5: supersteps 4 and 5 run again.
			if got := res.Metrics.Get(metrics.RecomputedSupersteps); got != 2 {
				t.Errorf("RecomputedSupersteps = %d, want 2 (recovered from the restored generation)", got)
			}
			wrong := 0
			for v := range want {
				if dist[v] != want[v] {
					wrong++
				}
			}
			if wrong > 0 {
				t.Errorf("%d of %d distances wrong", wrong, len(want))
			}
		})
	}
}

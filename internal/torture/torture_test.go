package torture

import (
	"flag"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"serialgraph/internal/catalog"
	"serialgraph/internal/engine"
)

// Replay and sizing knobs. A failing sweep prints the exact command to
// re-run just the failing case:
//
//	go test ./internal/torture -run TestTorture -torture.seed=0x...
//
// Adding -torture.repeat=N runs that case N times and reports k/N failed,
// which tells a deterministic failure (N/N) from a schedule-dependent one.
var (
	flagSeed = flag.Uint64("torture.seed", 0,
		"replay a single case seed instead of sweeping (accepts 0x... hex)")
	flagRepeat = flag.Int("torture.repeat", 1,
		"with -torture.seed, run the case N times and report how many failed (k/N)")
	flagN = flag.Int("torture.n", 0,
		"number of sampled cases (default 50 with -short, 120 otherwise)")
	flagRoot = flag.Uint64("torture.root", 0xdecaf,
		"root seed the sweep derives its case seeds from")
	flagFaulty = flag.Bool("torture.faulty", false,
		"fault-plan sweep: count only cases whose plan schedules a crash toward -torture.n (other cases are skipped, keeping seeds replayable)")
	flagStreamPart = flag.Bool("torture.streampart", false,
		"force a streaming partitioner (ldg or fennel, by seed parity) on every case (nightly locality row; replay failures with the same flag plus -torture.seed)")
)

// applyStreamPart pins the scenario's partitioner to ldg or fennel when
// -torture.streampart is set, split by a seed bit so the sweep covers
// both. (Bit 1, not bit 0: CaseSeed forces every sweep seed odd.) The
// override is flag-derived, not seed-derived: replaying a failure needs
// the same flag.
func applyStreamPart(sc Scenario) Scenario {
	if *flagStreamPart {
		if sc.Seed&2 == 0 {
			sc.Partitioner = "ldg"
		} else {
			sc.Partitioner = "fennel"
		}
	}
	return sc
}

// waitGoroutines polls until the goroutine count drops back to the
// baseline (plus a little slack for runtime bookkeeping), failing the
// test if a case leaked workers.
func waitGoroutines(t *testing.T, baseline int, sc Scenario) {
	t.Helper()
	const slack = 4
	deadline := time.Now().Add(3 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= baseline+slack {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak after scenario %v: %d goroutines, baseline %d", sc, n, baseline)
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
}

// failCase shrinks a failing scenario and reports both the original and
// the minimized repro, with the one-line replay command.
func failCase(t *testing.T, sc Scenario, err error, scratch string) {
	t.Helper()
	t.Logf("FAIL %v\n%v", sc, err)
	t.Logf("replay: go test ./internal/torture -run TestTorture -torture.seed=%#x", sc.Seed)
	small, smallErr := Shrink(sc, err, scratch)
	t.Fatalf("torture case failed.\n  original: %v\n  shrunk:   %v\n  shrunk failure:\n%v\n  replay: go test ./internal/torture -run TestTorture -torture.seed=%#x",
		sc, small, smallErr, sc.Seed)
}

// TestTorture is the randomized sweep: it samples the configuration cube
// from a fixed root seed (so CI runs are reproducible) and applies every
// oracle to each case. With -torture.seed it replays exactly one case.
func TestTorture(t *testing.T) {
	if *flagSeed != 0 {
		sc := applyStreamPart(Sample(*flagSeed))
		if sc.Transport == engine.TransportTCP && !LoopbackAvailable() {
			t.Skipf("seed %#x needs TCP loopback, unavailable here", sc.Seed)
		}
		t.Logf("replaying %v", sc)
		n, failed := max(*flagRepeat, 1), 0
		var first error
		for range n {
			if err := RunScenario(sc, t.TempDir()); err != nil {
				if failed == 0 {
					first = err
				}
				failed++
			}
		}
		if failed > 0 {
			t.Fatalf("replay failed %d/%d runs; first failure:\n%v", failed, n, first)
		}
		t.Logf("replay failed 0/%d runs", n)
		return
	}
	if *flagRepeat > 1 {
		t.Fatal("-torture.repeat needs -torture.seed: it repeats one case")
	}

	n := *flagN
	if n == 0 {
		n = 120
		if testing.Short() {
			n = 50
		}
	}
	baseline := runtime.NumGoroutine()
	ran := 0
	for i := 0; ran < n; i++ {
		seed := CaseSeed(*flagRoot, i)
		sc := applyStreamPart(Sample(seed))
		if *flagFaulty && (sc.Fault == nil || len(sc.Fault.Crashes) == 0) {
			// The fault-plan sweep spends its case budget only on crash
			// scenarios; skipping (rather than resampling) keeps every
			// executed seed replayable with a plain -torture.seed.
			continue
		}
		if sc.Transport == engine.TransportTCP && !LoopbackAvailable() {
			// Same skip-not-resample rule for the transport dimension:
			// sandboxes without loopback skip TCP cases, so the seeds
			// that do run replay identically everywhere.
			continue
		}
		ran++
		scratch := t.TempDir()
		if err := RunScenario(sc, scratch); err != nil {
			failCase(t, sc, err, scratch)
		}
		waitGoroutines(t, baseline, sc)
	}
}

// TestTortureTokenDualLiveness replays seed 0x21c85e0af64cce4d: SSSP on a
// 115-vertex ring, Async with the dual token, 4 workers × 3 partitions. A
// mixed-boundary vertex runs once every 12 supersteps there, so the
// distances need well over a fixed 500-superstep budget to settle; the
// scenario's liveness bound must come from its own n, W and K.
func TestTortureTokenDualLiveness(t *testing.T) {
	sc := Sample(0x21c85e0af64cce4d)
	if sc.Shape != "ring" || sc.Algorithm != "sssp" || sc.Sync != engine.TokenDual {
		t.Fatalf("seed no longer decodes to the pinned scenario: %v", sc)
	}
	if sc.Transport == engine.TransportTCP && !LoopbackAvailable() {
		t.Skipf("seed %#x needs TCP loopback, unavailable here", sc.Seed)
	}
	if err := RunScenario(sc, t.TempDir()); err != nil {
		t.Fatal(err)
	}
}

// TestTortureReplayDeterministic proves the seed fully determines the
// scenario: decoding the same case seed twice yields identical structs,
// and successive case seeds are distinct (the sweep actually moves).
func TestTortureReplayDeterministic(t *testing.T) {
	seen := map[uint64]bool{}
	for i := 0; i < 200; i++ {
		seed := CaseSeed(0xfeed, i)
		if seen[seed] {
			t.Fatalf("case seed %#x repeats within the sweep", seed)
		}
		seen[seed] = true
		a, b := Sample(seed), Sample(seed)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("Sample(%#x) is not deterministic:\n  %v\n  %v", seed, a, b)
		}
	}
}

// TestSampleDecodesPinned pins two seeds' decodes as they were while Sample
// still drew a message-plane budget. Both seeds draw the retired budget:
// dropping the whole draw changes 0x2d's partitioner, dropping only its
// inner value changes 0x1b's. Seeds stay replayable only while both hold.
func TestSampleDecodesPinned(t *testing.T) {
	for seed, want := range map[uint64]string{
		0x2d: "seed=0x2d shape=ring n=116 alg=wcc workers=3 parts=3 threads=2 partitioner=hash mode=async sync=partition-lock transport=inproc ckpt=0 fault=none recovery=full broken=false",
		0x1b: "seed=0x1b shape=erdos n=63 alg=wcc workers=3 parts=2 threads=4 partitioner=fennel mode=bsp sync=none transport=tcp ckpt=0 fault=none recovery=full broken=false",
	} {
		if got := Sample(seed).String(); got != want {
			t.Errorf("Sample(%#x):\n  got  %s\n  want %s", seed, got, want)
		}
	}
}

// The harness runs the catalog's algorithms and its own mutation fixture,
// and nothing else: every sampled algorithm is one of them, and a scenario
// naming an unknown one fails before it runs.
func TestTortureAlgorithmsAreCatalogEntries(t *testing.T) {
	names := append(catalog.Names(), mutateEntry.Name)
	for i := 0; i < 2000; i++ {
		if sc := Sample(CaseSeed(0xdecaf, i)); !slices.Contains(names, sc.Algorithm) {
			t.Fatalf("scenario %v runs %q, not a catalog entry", sc, sc.Algorithm)
		}
	}
	if sc := SampleBroken(1); !slices.Contains(names, sc.Algorithm) {
		t.Fatalf("broken scenario runs %q, not a catalog entry", sc.Algorithm)
	}
	sc := Sample(CaseSeed(0xdecaf, 0))
	sc.Algorithm = "no-such-alg"
	if err := RunScenario(sc, t.TempDir()); err == nil || !strings.Contains(err.Error(), `unknown algorithm "no-such-alg"`) {
		t.Errorf("unknown algorithm: %v", err)
	}
}

// TestTortureCatchesBrokenProtocol is the harness self-test: with
// synchronization disabled while serializability is requested, the 1SR/C2
// oracle must flag the run, and replaying the same seed must reproduce
// the catch. Concurrency interleavings are not part of the seed, so both
// the hunt and the replay allow a few attempts.
func TestTortureCatchesBrokenProtocol(t *testing.T) {
	caught := uint64(0)
	var caughtErr error
	for i := 0; i < 40 && caught == 0; i++ {
		seed := CaseSeed(0xbad5eed, i)
		sc := SampleBroken(seed)
		if err := RunScenario(sc, t.TempDir()); err != nil && strings.Contains(err.Error(), "serializability") {
			caught, caughtErr = seed, err
		}
	}
	if caught == 0 {
		t.Fatal("broken protocol was never flagged by the serializability oracle")
	}
	t.Logf("caught broken protocol at seed %#x:\n%v", caught, caughtErr)
	t.Logf("replay: go test ./internal/torture -run TestTortureCatchesBrokenProtocol (seed %#x)", caught)

	// Reproduce from the printed seed.
	reproduced := false
	for attempt := 0; attempt < 10 && !reproduced; attempt++ {
		sc := SampleBroken(caught)
		if err := RunScenario(sc, t.TempDir()); err != nil && strings.Contains(err.Error(), "serializability") {
			reproduced = true
		}
	}
	if !reproduced {
		t.Fatalf("seed %#x did not reproduce the serializability violation on replay", caught)
	}
}

// TestShrinkSimplifies checks the minimizer on a scenario whose failure
// is deterministic (a broken protocol on a dense graph): the shrunk
// scenario must be no larger than the original and must still fail.
func TestShrinkSimplifies(t *testing.T) {
	if testing.Short() {
		t.Skip("shrinking budget is slow; covered by the long mode")
	}
	var sc Scenario
	var firstErr error
	for i := 0; i < 40; i++ {
		cand := SampleBroken(CaseSeed(0x5111, i))
		if err := RunScenario(cand, t.TempDir()); err != nil {
			sc, firstErr = cand, err
			break
		}
	}
	if firstErr == nil {
		t.Skip("no failing broken scenario found to shrink")
	}
	small, smallErr := Shrink(sc, firstErr, t.TempDir())
	if smallErr == nil {
		t.Fatal("Shrink returned a nil failure")
	}
	if small.N > sc.N || small.Threads > sc.Threads || small.Workers > sc.Workers {
		t.Fatalf("shrunk scenario grew: %v -> %v", sc, small)
	}
	if got := fmt.Sprint(small); !strings.Contains(got, "broken=true") {
		t.Fatalf("shrinking must not clear BreakProtocol: %v", got)
	}
}

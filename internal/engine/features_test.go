package engine

import (
	"strings"
	"testing"
	"time"

	"serialgraph/internal/algorithms"
	"serialgraph/internal/generate"
	"serialgraph/internal/graph"
	"serialgraph/internal/history"
	"serialgraph/internal/model"
)

func TestSenderCombineReducesDataTraffic(t *testing.T) {
	// SSSP uses min-combining; sender-side combining folds messages to the
	// same hub into one entry per batch, cutting data bytes without
	// changing the answer.
	g := generate.PowerLaw(generate.PowerLawConfig{N: 2000, AvgDegree: 10, Exponent: 2.0, Seed: 51})
	want := algorithms.ShortestPaths(g, 0)

	run := func(disable bool) ([]float64, Result) {
		dist, res, _, err := Run(g, algorithms.SSSP(0), Config{
			Workers: 4, Mode: Async, Sync: PartitionLock, Seed: 2,
			DisableSenderCombine: disable,
		})
		if err != nil {
			t.Fatal(err)
		}
		return dist, res
	}
	distOn, on := run(false)
	distOff, off := run(true)
	for v := range want {
		if distOn[v] != want[v] || distOff[v] != want[v] {
			t.Fatalf("dist[%d] wrong: combined=%v plain=%v want %v", v, distOn[v], distOff[v], want[v])
		}
	}
	if on.Net.DataBytes >= off.Net.DataBytes {
		t.Errorf("sender combining did not reduce data bytes: %d vs %d",
			on.Net.DataBytes, off.Net.DataBytes)
	}
}

func TestSenderCombineNotAppliedToOverwrite(t *testing.T) {
	// Overwrite semantics must keep per-source slots; combining would
	// corrupt them. Coloring (Overwrite) must behave identically with the
	// flag in either position.
	g := undirected(generate.PowerLaw(generate.PowerLawConfig{N: 400, AvgDegree: 5, Exponent: 2.2, Seed: 53}))
	for _, disable := range []bool{false, true} {
		colors, res, _, err := Run(g, algorithms.Coloring(), Config{
			Workers: 3, Mode: Async, Sync: PartitionLock, Seed: 1,
			DisableSenderCombine: disable,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatal("did not converge")
		}
		if err := algorithms.ValidateColoring(g, colors); err != nil {
			t.Fatal(err)
		}
	}
}

// TestOverwriteSendFailsRun: an Overwrite program's store keeps replicas
// of each source's broadcast, so a Send to one vertex fails the run with an
// error that names SendToAllOut, in every mode, whether the target is on
// the sender's worker or not.
func TestOverwriteSendFailsRun(t *testing.T) {
	g := generate.PowerLaw(generate.PowerLawConfig{N: 200, AvgDegree: 4, Exponent: 2.2, Seed: 5})
	prog := model.Program[int32, int32]{
		Name: "overwrite-point-send", Semantics: model.Overwrite, MsgBytes: 4,
		Compute: func(ctx model.Context[int32, int32], msgs []int32) {
			if ctx.Superstep() == 0 {
				for _, nb := range ctx.OutNeighbors() {
					ctx.Send(nb, 1)
				}
			}
			ctx.VoteToHalt()
		},
	}
	for _, mode := range []Mode{BSP, Async, BAP} {
		_, _, _, err := Run(g, prog, Config{Workers: 2, Mode: mode, MaxSupersteps: 10})
		if err == nil || !strings.Contains(err.Error(), "SendToAllOut") {
			t.Errorf("%v: err = %v, want one naming SendToAllOut", mode, err)
		}
	}
}

func TestHaltedPartitionSkipReducesForks(t *testing.T) {
	// With the §5.4 skip optimization, halted partitions stop acquiring
	// forks; disabling it forces every partition through Chandy–Misra
	// every superstep, inflating fork traffic for multi-superstep runs.
	g := generate.PowerLaw(generate.PowerLawConfig{N: 1500, AvgDegree: 6, Exponent: 2.1, Seed: 57})
	run := func(disable bool) Result {
		_, res, _, err := Run(g, algorithms.SSSP(0), Config{
			Workers: 4, Mode: Async, Sync: PartitionLock, Seed: 3,
			DisableHaltedPartitionSkip: disable,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatal("did not converge")
		}
		return res
	}
	withSkip := run(false)
	noSkip := run(true)
	if withSkip.ForkSends >= noSkip.ForkSends {
		t.Errorf("skip optimization did not reduce forks: %d vs %d",
			withSkip.ForkSends, noSkip.ForkSends)
	}
}

func TestDetailedStats(t *testing.T) {
	g := generate.PowerLaw(generate.PowerLawConfig{N: 500, AvgDegree: 5, Exponent: 2.2, Seed: 59})
	_, res, _, err := Run(g, algorithms.SSSP(0), Config{
		Workers: 3, Mode: Async, Sync: PartitionLock, Seed: 1, DetailedStats: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.SuperstepStats) != res.Supersteps {
		t.Fatalf("got %d superstep stats for %d supersteps", len(res.SuperstepStats), res.Supersteps)
	}
	var execs int64
	var dur time.Duration
	for _, s := range res.SuperstepStats {
		execs += s.Executions
		dur += s.Duration
	}
	if execs != res.Executions {
		t.Errorf("per-superstep executions sum %d != total %d", execs, res.Executions)
	}
	if dur > res.ComputeTime+time.Second || dur <= 0 {
		t.Errorf("per-superstep durations sum %v vs compute time %v", dur, res.ComputeTime)
	}
	// SSSP wavefront: the first superstep executes all vertices, later
	// ones fewer.
	if res.SuperstepStats[0].Executions < int64(g.NumVertices()) {
		t.Errorf("superstep 0 executed %d of %d vertices", res.SuperstepStats[0].Executions, g.NumVertices())
	}
	// Stats off by default.
	_, res2, _, err := Run(g, algorithms.SSSP(0), Config{Workers: 2, Mode: Async})
	if err != nil {
		t.Fatal(err)
	}
	if res2.SuperstepStats != nil {
		t.Error("SuperstepStats recorded without DetailedStats")
	}
}

func TestTokenSingleOnlyHolderRunsBoundary(t *testing.T) {
	// Single-layer token passing: in superstep s only worker s%W executes
	// m-boundary vertices. Verify through the per-superstep execution
	// pattern on a graph where every vertex is m-boundary (a complete
	// bipartite-ish structure across workers).
	g := undirected(generate.Complete(40))
	_, res, rec, err := Run(g, algorithms.Coloring(), Config{
		Workers: 4, Mode: Async, Sync: TokenSingle, Seed: 1,
		TrackHistory: true, DetailedStats: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("did not converge")
	}
	// On K40 every vertex is m-boundary, so per-superstep executions are
	// capped by the holder's vertex count (~10 per worker) plus wake-ups.
	for i, s := range res.SuperstepStats {
		if s.Executions > 45 {
			t.Errorf("superstep %d executed %d vertices; token should gate to one worker", i, s.Executions)
		}
	}
	if rec.Len() == 0 {
		t.Error("no history")
	}
}

func TestPageRankAggregatedMasterHalt(t *testing.T) {
	g := generate.PowerLaw(generate.PowerLawConfig{N: 800, AvgDegree: 6, Exponent: 2.2, Seed: 61})
	pr, res, _, err := Run(g, algorithms.PageRankAggregated(0.5), Config{
		Workers: 4, Mode: Async, Sync: PartitionLock, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("master never halted (%d supersteps)", res.Supersteps)
	}
	// No vertex ever votes to halt, so without MasterHalt this would hit
	// MaxSupersteps; converging proves the master-compute path works.
	if r := algorithms.PageRankResidual(g, pr); r > 1.0 {
		t.Errorf("residual %.3f too large for tol 0.5", r)
	}
	// Tighter tolerance takes more supersteps.
	_, res2, _, err := Run(g, algorithms.PageRankAggregated(0.01), Config{
		Workers: 4, Mode: Async, Sync: PartitionLock, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Supersteps <= res.Supersteps {
		t.Errorf("tol 0.01 took %d supersteps, tol 0.5 took %d", res2.Supersteps, res.Supersteps)
	}
}

func TestPageRankAggregatedBSPMatchesReference(t *testing.T) {
	g := generate.PowerLaw(generate.PowerLawConfig{N: 400, AvgDegree: 5, Exponent: 2.2, Seed: 63})
	pr, res, _, err := Run(g, algorithms.PageRankAggregated(1e-6), Config{
		Workers: 3, Mode: BSP, Seed: 2, MaxSupersteps: 500,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("did not converge")
	}
	want := algorithms.PageRankReference(g, 200)
	for v := range want {
		if diff := pr[v] - want[v]; diff > 0.01 || diff < -0.01 {
			t.Fatalf("pr[%d] = %.4f, want %.4f", v, pr[v], want[v])
		}
	}
}

func historyCheck(rec *history.Recorder, g *graph.Graph) string {
	if rec == nil || rec.Len() == 0 {
		return "no history recorded"
	}
	if v := history.CheckAll(rec.Txns(), g); v != nil {
		return v[0].String()
	}
	return ""
}

func TestVertexLockGiraphSerializable(t *testing.T) {
	// The Giraph-async + vertex-locking combination the paper excludes for
	// performance must still be CORRECT: proper coloring and clean
	// history.
	g := undirected(generate.PowerLaw(generate.PowerLawConfig{N: 300, AvgDegree: 5, Exponent: 2.2, Seed: 77}))
	colors, res, rec, err := Run(g, algorithms.Coloring(), Config{
		Workers: 4, Mode: Async, Sync: VertexLockGiraph, Seed: 3, TrackHistory: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("did not converge")
	}
	if err := algorithms.ValidateColoring(g, colors); err != nil {
		t.Fatal(err)
	}
	if v := historyCheck(rec, g); v != "" {
		t.Fatal(v)
	}
	if res.ForkSends == 0 {
		t.Error("no fork traffic under vertex locking")
	}
}

func TestVertexLockGiraphSlowerThanPartitionLock(t *testing.T) {
	// The exclusion claim of §7: vertex-granularity forks on the
	// partition-aware engine generate far more synchronization traffic
	// than partition-granularity forks.
	g := undirected(generate.PowerLaw(generate.PowerLawConfig{N: 1000, AvgDegree: 8, Exponent: 2.1, Seed: 79}))
	_, vres, _, err := Run(g, algorithms.Coloring(), Config{
		Workers: 4, Mode: Async, Sync: VertexLockGiraph, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, pres, _, err := Run(g, algorithms.Coloring(), Config{
		Workers: 4, Mode: Async, Sync: PartitionLock, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if vres.ForkSends <= pres.ForkSends {
		t.Errorf("vertex forks %d <= partition forks %d", vres.ForkSends, pres.ForkSends)
	}
}

func TestIsingGibbsOrdersAtLowTemperature(t *testing.T) {
	// On a 2D grid, Gibbs sampling at high beta (low temperature) orders
	// the spins; at very low beta they stay random. The magnetization gap
	// is the statistical-correctness smoke test.
	// Global magnetization stays low at finite sweep counts because
	// opposing domains coarsen slowly; the fraction of aligned neighbor
	// pairs is the robust local order parameter.
	g := generate.Grid(30, 30)
	run := func(beta float64) float64 {
		vals, res, _, err := Run(g, algorithms.IsingGibbs(beta, 30, 7), Config{
			Workers: 4, Mode: Async, Sync: PartitionLock, Seed: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatal("sampler did not finish its sweeps")
		}
		return algorithms.AlignedFraction(g, vals)
	}
	hot := run(0.05)
	cold := run(1.5)
	if cold < 0.8 {
		t.Errorf("cold aligned fraction %.3f, want ordered (> 0.8)", cold)
	}
	if hot > 0.65 {
		t.Errorf("hot aligned fraction %.3f, want disordered (< 0.65)", hot)
	}
	if cold <= hot {
		t.Errorf("no ordering transition: cold %.3f <= hot %.3f", cold, hot)
	}
}

func TestIsingGibbsHistoryClean(t *testing.T) {
	g := generate.Grid(12, 12)
	_, _, rec, err := Run(g, algorithms.IsingGibbs(1.0, 10, 3), Config{
		Workers: 4, Mode: Async, Sync: PartitionLock, Seed: 2, TrackHistory: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if v := historyCheck(rec, g); v != "" {
		t.Fatal(v)
	}
}

func TestIsingGibbsDeterministicUnderBSP(t *testing.T) {
	g := generate.Grid(10, 10)
	run := func() []algorithms.GibbsValue {
		vals, _, _, err := Run(g, algorithms.IsingGibbs(0.8, 15, 9), Config{
			Workers: 3, Mode: BSP, Seed: 4, MaxSupersteps: 100,
		})
		if err != nil {
			t.Fatal(err)
		}
		return vals
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("BSP Gibbs not deterministic at vertex %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestIsingGibbsUnderTokenPassing(t *testing.T) {
	// Sweep progress lives in the vertex value, so the sampler completes
	// its sweeps even when token passing prevents vertices from executing
	// every superstep (§6.5).
	g := generate.Grid(8, 8)
	vals, res, _, err := Run(g, algorithms.IsingGibbs(1.0, 5, 11), Config{
		Workers: 4, Mode: Async, Sync: TokenDual, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("did not converge")
	}
	for i, v := range vals {
		if v.Sweep != 5 {
			t.Fatalf("vertex %d completed %d sweeps, want 5", i, v.Sweep)
		}
		if v.Spin != 1 && v.Spin != -1 {
			t.Fatalf("vertex %d has invalid spin %d", i, v.Spin)
		}
	}
}

// Package torture is a randomized, deterministically-seeded model-checking
// harness for the whole engine stack. It samples the full configuration
// cube — graph shape, partitioner, worker/partition/thread counts,
// computation mode (BSP/Async/BAP), synchronization technique, transport
// backend (in-process simulator or real TCP loopback), combiner
// flags, topology mutations, and a random fault plan — runs a randomly
// chosen algorithm, and checks three oracle classes against the run:
//
//  1. serializability: whenever the sampled technique promises it,
//     history.CheckAll must report no C1/C2/1SR violations;
//  2. result equivalence: the distributed answer must match the
//     single-threaded references in internal/algorithms;
//  3. engine invariants: liveness (convergence within the superstep
//     budget), message/byte conservation under injected drops and
//     duplicates, rollback and checkpoint accounting, and (in the test
//     driver) no goroutine leaks.
//
// Every case is derived from a single uint64 seed, so a failure is
// reported as a one-line replay seed (`-torture.seed=`) and then greedily
// shrunk — faults removed, graph halved, workers and threads reduced —
// before the harness gives up and prints the smallest configuration that
// still fails.
package torture

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"

	"serialgraph/internal/algorithms"
	"serialgraph/internal/checkpoint"
	"serialgraph/internal/engine"
	"serialgraph/internal/fault"
	"serialgraph/internal/generate"
	"serialgraph/internal/graph"
	"serialgraph/internal/history"
	"serialgraph/internal/metrics"
	"serialgraph/internal/model"
	"serialgraph/internal/partition"
)

// Scenario is one fully-decoded point of the configuration cube. Sampling
// produces only valid scenarios (the mode/technique/fault compatibility
// rules of engine.Config are respected by construction); the shrinker
// mutates fields directly, which is why the scenario — not the seed — is
// the unit of execution.
type Scenario struct {
	// Seed is the case seed this scenario was sampled from (also feeds the
	// graph generator and hash partitioner). Replaying the seed through
	// Sample reproduces the scenario exactly.
	Seed uint64

	Shape     string // generate.Names() family
	N         int    // approximate vertex count
	Algorithm string // "sssp", "wcc", "coloring", "pagerank", "mutate", "recolor"

	Workers        int
	PartsPerWorker int
	Threads        int
	Partitioner    string // "hash", "range", "ldg", "fennel"
	Mode           engine.Mode
	Sync           engine.Sync
	// Transport selects the wire backend (in-process simulator or real
	// TCP loopback). Orthogonal to every compatibility rule: results and
	// oracles are transport-independent by design, which is exactly what
	// sweeping it here proves.
	Transport engine.TransportKind

	DisableSenderCombine bool
	DisableHaltedSkip    bool

	// CheckpointEvery > 0 takes checkpoints (requires a barriered mode).
	CheckpointEvery int
	// Fault is the injected fault schedule; nil for a clean run.
	Fault *fault.Plan
	// Recovery selects full or confined crash recovery; drawn only for
	// plans that actually crash workers.
	Recovery engine.RecoveryMode

	// BreakProtocol runs the scenario with synchronization disabled while
	// keeping the serializability oracle armed — the self-test mode that
	// proves the oracle catches a broken protocol. Requires a Sync that
	// promises serializability.
	BreakProtocol bool

	// MsgBudget bounds message-plane memory (engine.Config.MsgMemoryBudget):
	// zero leaves it unbounded, a tiny value shrinks the credit windows to
	// their floor and forces the BSP spill tier to cut runs constantly.
	// Orthogonal to every compatibility rule — results and oracles are
	// budget-independent by design, which sweeping it here proves.
	MsgBudget int64

	MaxSupersteps int
}

func (sc Scenario) String() string {
	f := "none"
	if sc.Fault != nil {
		f = sc.Fault.String()
	}
	return fmt.Sprintf("seed=%#x shape=%s n=%d alg=%s workers=%d parts=%d threads=%d partitioner=%s mode=%v sync=%v transport=%v ckpt=%d fault=%s recovery=%v broken=%v budget=%d",
		sc.Seed, sc.Shape, sc.N, sc.Algorithm, sc.Workers, sc.PartsPerWorker,
		sc.Threads, sc.Partitioner, sc.Mode, sc.Sync, sc.Transport, sc.CheckpointEvery, f, sc.Recovery, sc.BreakProtocol, sc.MsgBudget)
}

// livenessBound is the superstep budget a barriered scenario gets before
// the liveness oracle calls it stuck: a fixed allowance for convergence
// and recovery, plus a chain of n hops at the rate the technique lets a
// boundary vertex run. Under token passing a remote or mixed boundary
// vertex runs only while its worker holds the global token — once every W
// supersteps — and under the dual token a mixed one also needs its
// partition's local token, once every W×K; a value crossing such vertices
// one hop at a time can need about n times that period.
func livenessBound(sc Scenario) int {
	period := 1
	switch sc.Sync {
	case engine.TokenSingle:
		period = sc.Workers
	case engine.TokenDual:
		period = sc.Workers * sc.PartsPerWorker
	}
	return 500 + sc.N*period
}

// mix64 is the splitmix64 finalizer, the same mixer hash partitioning uses.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// CaseSeed derives the i-th case seed of a sweep from its root seed. The
// result is never zero, so it can double as the "replay this one case"
// flag value.
func CaseSeed(root uint64, i int) uint64 {
	return mix64(root+uint64(i)*0x9e3779b97f4a7c15) | 1
}

// Sample decodes a case seed into a valid scenario. The decoding is pure:
// the same seed always yields the same scenario.
func Sample(seed uint64) Scenario {
	r := rand.New(rand.NewSource(int64(seed)))
	sc := Scenario{Seed: seed}

	shapes := generate.Families()
	sc.Shape = shapes[r.Intn(len(shapes))]
	sc.N = 16 + r.Intn(120)
	if sc.Shape == "complete" {
		sc.N = 8 + r.Intn(16) // dense: keep the edge count sane
	}

	algs := []string{"sssp", "wcc", "coloring", "pagerank"}
	sc.Algorithm = algs[r.Intn(len(algs))]

	sc.Workers = 1 + r.Intn(4)
	sc.PartsPerWorker = 1 + r.Intn(3)
	sc.Threads = 1 + r.Intn(4)
	parts := []string{"hash", "hash", "range", "ldg"}
	sc.Partitioner = parts[r.Intn(len(parts))]

	switch r.Intn(3) {
	case 0:
		sc.Mode = engine.BSP
		sc.Sync = engine.SyncNone // serializability requires Async (§4.1)
	case 1:
		sc.Mode = engine.BAP
		if r.Intn(2) == 0 { // BAP composes with partition locking only
			sc.Sync = engine.PartitionLock
		} else {
			sc.Sync = engine.SyncNone
		}
	default:
		sc.Mode = engine.Async
		syncs := []engine.Sync{
			engine.SyncNone, engine.TokenSingle, engine.TokenDual,
			engine.PartitionLock, engine.PartitionLock, engine.VertexLockGiraph,
		}
		sc.Sync = syncs[r.Intn(len(syncs))]
		if sc.Sync == engine.VertexLockGiraph && sc.N > 48 {
			sc.N = 12 + r.Intn(36) // the paper's 44×-slower combination
		}
	}

	sc.DisableSenderCombine = r.Intn(4) == 0
	sc.DisableHaltedSkip = r.Intn(4) == 0

	// Topology mutations require SyncNone and global barriers.
	if sc.Sync == engine.SyncNone && sc.Mode != engine.BAP && r.Intn(4) == 0 {
		sc.Algorithm = "mutate"
	}
	// The serializability oracle assumes a workload that propagates every
	// write (see runPageRank). The always-propagating PageRank variant
	// needs aggregators, which barrierless BAP lacks — so BAP+locking
	// falls back to a Combine-semantics workload instead.
	if sc.Mode == engine.BAP && sc.Sync.Serializable() && sc.Algorithm == "pagerank" {
		sc.Algorithm = "wcc"
	}

	// Faults require barrier-based failure detection.
	if sc.Mode != engine.BAP && r.Intn(2) == 0 {
		p := fault.RandomPlan(mix64(seed^0xfa017), sc.Workers)
		sc.Fault = &p
		if len(p.Crashes) > 0 && r.Intn(2) == 0 {
			sc.CheckpointEvery = 1 + r.Intn(3)
		}
		// Tolerance-terminated PageRank has no liveness guarantee on lossy
		// links: sustained drops keep perturbing the error sum above the
		// threshold forever. Monotone workloads still converge under loss,
		// so lossy plans run one of those instead.
		if p.DropRate > 0 && sc.Algorithm == "pagerank" {
			sc.Algorithm = "sssp"
		}
	}

	if sc.Mode == engine.BAP {
		sc.MaxSupersteps = 20000 // logical per-worker supersteps tick fast
	} else {
		sc.MaxSupersteps = livenessBound(sc)
	}

	// Recovery mode is a late draw so it never perturbs the decoding of
	// older seeds' scenarios. Confined recovery is interesting only when
	// a crash can actually fire; the engine decides per-failure whether
	// confinement applies or the case degrades to a full rollback.
	if sc.Fault != nil && len(sc.Fault.Crashes) > 0 && r.Intn(2) == 0 {
		sc.Recovery = engine.RecoverConfined
	}
	// Transport is likewise a late draw, after everything older seeds
	// decoded: roughly a quarter of cases run over real TCP loopback
	// instead of the in-process simulator. Environments without loopback
	// skip these cases rather than resampling (see LoopbackAvailable and
	// the sweep in torture_test), so every executed seed stays replayable
	// with -torture.seed.
	if r.Intn(4) == 0 {
		sc.Transport = engine.TransportTCP
	}
	// Message-plane budget is the latest draw of all, after everything
	// older seeds decoded. A quarter of cases run with a deliberately tiny
	// budget — small enough that under BSP nearly every superstep spills —
	// sweeping the bounded-memory plane through the same oracle set.
	if r.Intn(4) == 0 {
		sc.MsgBudget = int64(256 + r.Intn(4096))
	}
	// Fennel joins the partitioner pool as a trailing draw (after every
	// dimension older seeds decoded), overriding a quarter of cases the
	// way the transport draw does — so pre-fennel seeds still decode
	// their shape/algorithm/fault plan identically and stay replayable.
	if r.Intn(4) == 0 {
		sc.Partitioner = "fennel"
	}
	return sc
}

// LoopbackAvailable reports (once) whether TCP loopback sockets work in
// this environment; TCP-transport scenarios are skipped when they don't.
func LoopbackAvailable() bool {
	loopbackOnce.Do(func() {
		if ln, err := net.Listen("tcp", "127.0.0.1:0"); err == nil {
			ln.Close()
			loopbackOK = true
		}
	})
	return loopbackOK
}

var (
	loopbackOnce sync.Once
	loopbackOK   bool
)

// SampleBroken decodes a seed into a deliberately broken scenario: a dense
// graph, a workload that keeps re-reading and re-writing neighbor state,
// serializability requested via PartitionLock — and the protocol then
// disabled by BreakProtocol. The serializability oracle must catch it.
func SampleBroken(seed uint64) Scenario {
	r := rand.New(rand.NewSource(int64(seed)))
	return Scenario{
		Seed:           seed,
		Shape:          "complete",
		N:              8 + r.Intn(12),
		Algorithm:      "recolor",
		Workers:        2 + r.Intn(3),
		PartsPerWorker: 1 + r.Intn(2),
		Threads:        2 + r.Intn(3),
		Partitioner:    "hash",
		Mode:           engine.Async,
		Sync:           engine.PartitionLock,
		BreakProtocol:  true,
		MaxSupersteps:  40,
	}
}

// buildGraph materializes the scenario's graph. Neighborhood-reading
// algorithms get a symmetrized graph, as the paper requires (§7.2.1).
func buildGraph(sc Scenario) *graph.Graph {
	g := generate.Family(sc.Shape, sc.N, int64(sc.Seed|1))
	switch sc.Algorithm {
	case "wcc", "coloring", "recolor":
		b := graph.NewBuilder(g.NumVertices())
		for u := graph.VertexID(0); int(u) < g.NumVertices(); u++ {
			for _, v := range g.OutNeighbors(u) {
				b.AddEdge(u, v)
			}
		}
		g = b.BuildUndirected()
	}
	return g
}

// serializabilityPromised reports whether the scenario's *requested*
// technique promises serializability — the oracle arms on the request,
// not on what BreakProtocol actually runs.
func (sc Scenario) serializabilityPromised() bool { return sc.Sync.Serializable() }

// lossy reports whether the plan can silently lose data messages, which
// is outside the paper's failure model: result- and freshness-oracles are
// disarmed for lossy runs (liveness and accounting still checked).
func (sc Scenario) lossy() bool { return sc.Fault != nil && sc.Fault.DropRate > 0 }

func buildConfig(sc Scenario, ckptDir string) engine.Config {
	cfg := engine.Config{
		Workers:                    sc.Workers,
		PartitionsPerWorker:        sc.PartsPerWorker,
		ThreadsPerWorker:           sc.Threads,
		Mode:                       sc.Mode,
		Sync:                       sc.Sync,
		Transport:                  sc.Transport,
		Seed:                       sc.Seed,
		MaxSupersteps:              sc.MaxSupersteps,
		DisableSenderCombine:       sc.DisableSenderCombine,
		DisableHaltedPartitionSkip: sc.DisableHaltedSkip,
		Recovery:                   sc.Recovery,
		TrackHistory:               sc.serializabilityPromised() && !sc.lossy(),
		MsgMemoryBudget:            sc.MsgBudget,
		// An external registry, so checkMetrics can re-snapshot it after the
		// run and verify Result.Metrics is a true immutable copy.
		Metrics: metrics.New(),
	}
	if sc.BreakProtocol {
		cfg.Sync = engine.SyncNone
	}
	switch sc.Partitioner {
	case "range":
		cfg.Partitioner = partition.NewRange
	case "ldg":
		cfg.Partitioner = partition.NewLDG
	case "fennel":
		cfg.Partitioner = func(g *graph.Graph, p, w int) *partition.Map {
			return partition.NewFennel(g, p, w, sc.Seed)
		}
	}
	if sc.Fault != nil {
		cfg.Fault = fault.NewInjector(*sc.Fault)
	}
	if sc.CheckpointEvery > 0 {
		cfg.CheckpointEvery = sc.CheckpointEvery
		cfg.CheckpointDir = ckptDir
	}
	return cfg
}

// RunScenario executes one scenario and returns nil if every applicable
// oracle passes, or an error naming each violated oracle. scratch is a
// directory for checkpoint files; each call uses a fresh subdirectory so
// stale checkpoints from other cases can never be restored by accident.
func RunScenario(sc Scenario, scratch string) error {
	ckptDir := ""
	if sc.CheckpointEvery > 0 {
		d, err := os.MkdirTemp(scratch, "ckpt-")
		if err != nil {
			return fmt.Errorf("scratch dir: %w", err)
		}
		ckptDir = d
	}
	g := buildGraph(sc)
	cfg := buildConfig(sc, ckptDir)
	fullCfg, err := fullComparisonConfig(sc, scratch)
	if err != nil {
		return err
	}
	switch sc.Algorithm {
	case "sssp":
		return runSSSP(sc, g, cfg, fullCfg)
	case "wcc":
		return runWCC(sc, g, cfg, fullCfg)
	case "coloring", "recolor":
		return runColoring(sc, g, cfg)
	case "pagerank":
		return runPageRank(sc, g, cfg)
	case "mutate":
		return runMutate(sc, g, cfg)
	default:
		return fmt.Errorf("torture: unknown algorithm %q", sc.Algorithm)
	}
}

// fullComparisonConfig builds the control config for the confined-vs-full
// oracle: the same scenario rerun with full rollbacks, a fresh injector,
// and its own checkpoint directory. Only unique-fixpoint workloads compare
// final values (sssp, wcc) — other algorithms return nil and rely on the
// per-run oracles alone. Lossy plans diverge legitimately (the message
// logs replay sends the chaos layer dropped on the original timeline), so
// they are excluded too.
func fullComparisonConfig(sc Scenario, scratch string) (*engine.Config, error) {
	if sc.Recovery != engine.RecoverConfined || sc.lossy() || sc.BreakProtocol {
		return nil, nil
	}
	if sc.Algorithm != "sssp" && sc.Algorithm != "wcc" {
		return nil, nil
	}
	scFull := sc
	scFull.Recovery = engine.RecoverFull
	ckptDir := ""
	if sc.CheckpointEvery > 0 {
		d, err := os.MkdirTemp(scratch, "ckpt-full-")
		if err != nil {
			return nil, fmt.Errorf("scratch dir: %w", err)
		}
		ckptDir = d
	}
	cfg := buildConfig(scFull, ckptDir)
	return &cfg, nil
}

// checkCommon applies the oracles shared by every workload: liveness,
// serializability of the recorded history, fault-injection accounting,
// message conservation, and rollback/checkpoint sanity.
func checkCommon(sc Scenario, cfg engine.Config, g *graph.Graph, res engine.Result, rec *history.Recorder) []error {
	var errs []error

	if !res.Converged && !sc.BreakProtocol {
		errs = append(errs, fmt.Errorf("liveness: did not converge within %d supersteps", sc.MaxSupersteps))
	}
	if res.Executions <= 0 {
		errs = append(errs, errors.New("invariant: zero vertex executions"))
	}
	// Credit conservation: the engine reconciles every ordered worker
	// pair's window at every barrier (granted == consumed, nothing
	// outstanding); any imbalance means bytes were acquired and never
	// released or vice versa. This must hold on every run — faulty,
	// budgeted, or not — because every drop/abort path releases.
	if res.CreditImbalances != 0 {
		errs = append(errs, fmt.Errorf("flow: %d barriers saw unbalanced credit windows", res.CreditImbalances))
	}

	// Frontier conservation: supersteps visit the set bits of the
	// unread-message and unhalted bitsets, and convergence is decided on
	// their counters; the engine recounts both at every barrier. Restores,
	// rollbacks, confined replays and store rebuilds rewrite them wholesale
	// and must leave them in step.
	if res.FrontierImbalances != 0 {
		errs = append(errs, fmt.Errorf("frontier: %d barrier×worker audits saw a counter disagree with its bitset", res.FrontierImbalances))
	}

	if cfg.TrackHistory && rec != nil {
		if vs := history.CheckAll(rec.Txns(), g); len(vs) > 0 {
			kinds := map[string]int{}
			for _, v := range vs {
				kinds[v.Kind]++
			}
			errs = append(errs, fmt.Errorf("serializability: %d violations (C1=%d C2=%d 1SR=%d), first: %v",
				len(vs), kinds["C1"], kinds["C2"], kinds["1SR"], vs[0]))
		}
	}

	if cfg.Fault != nil {
		st := cfg.Fault.Stats()
		if st.Drops > res.Net.DroppedMessages {
			errs = append(errs, fmt.Errorf("accounting: injector dropped %d messages but transport counted only %d",
				st.Drops, res.Net.DroppedMessages))
		}
		// Conservation: every enqueued data message was either delivered or
		// counted as dropped on the wire. (Send-time drops never enter the
		// DataMessages counter, so the difference is wire loss only.)
		wireLost := res.Net.DataMessages - cfg.Fault.Delivered()
		if wireLost < 0 || wireLost > res.Net.DroppedMessages {
			errs = append(errs, fmt.Errorf("conservation: sent %d data messages, delivered %d, dropped counter %d",
				res.Net.DataMessages, cfg.Fault.Delivered(), res.Net.DroppedMessages))
		}
		if int64(res.Rollbacks) > st.CrashesFired {
			errs = append(errs, fmt.Errorf("recovery: %d rollbacks from only %d crashes", res.Rollbacks, st.CrashesFired))
		}
	}
	if res.Rollbacks > 0 && res.RecomputedSupersteps < res.Rollbacks {
		errs = append(errs, fmt.Errorf("recovery: %d rollbacks recomputed only %d supersteps", res.Rollbacks, res.RecomputedSupersteps))
	}
	if res.Rollbacks > 0 && rec != nil && rec.LastResetTick() <= 0 {
		errs = append(errs, errors.New("recovery: rollback happened but the history clock was never reset"))
	}

	if cfg.CheckpointEvery > 0 {
		if err := checkCheckpoints(cfg.CheckpointDir, res); err != nil {
			errs = append(errs, err)
		}
	}
	errs = append(errs, checkPartition(sc, cfg, g, res)...)
	errs = append(errs, checkMetrics(cfg, res)...)
	return errs
}

// checkPartition is the placement oracle: the quality report the engine
// attaches to every Result must be self-consistent (the §5.3 class
// census covers every vertex exactly once), agree with the startup
// metrics counters, and — for the capacity-bounded streaming
// partitioners — respect the (1+ε)·n/P balance guarantee.
func checkPartition(sc Scenario, cfg engine.Config, g *graph.Graph, res engine.Result) []error {
	var errs []error
	q := res.Partition
	n := g.NumVertices()
	if sum := q.PInternal + q.LocalBoundary + q.RemoteBoundary + q.MixedBoundary; sum != n {
		errs = append(errs, fmt.Errorf("partition: class census sums to %d, want %d", sum, n))
	}
	if q.BoundaryFraction < 0 || q.BoundaryFraction > 1 || q.CutFraction < 0 || q.CutFraction > 1 {
		errs = append(errs, fmt.Errorf("partition: fraction out of range: boundary=%v cut=%v", q.BoundaryFraction, q.CutFraction))
	}
	if q.ReplicationFactor != 0 && (q.ReplicationFactor < 1 || q.ReplicationFactor > float64(cfg.Workers)) {
		errs = append(errs, fmt.Errorf("partition: replication factor %v outside [1, %d]", q.ReplicationFactor, cfg.Workers))
	}
	m := res.Metrics
	if got, want := m.Get(metrics.CutEdges), int64(q.CutEdges); got != want {
		errs = append(errs, fmt.Errorf("partition: cut_edges counter = %d, report says %d", got, want))
	}
	if got, want := m.Get(metrics.BoundaryVertices), int64(n-q.PInternal); got != want {
		errs = append(errs, fmt.Errorf("partition: boundary_vertices counter = %d, report says %d", got, want))
	}
	if sc.Partitioner == "ldg" || sc.Partitioner == "fennel" {
		p := cfg.Workers * cfg.PartitionsPerWorker
		if cap_ := (partition.StreamOptions{}).Capacity(n, p); q.MaxLoad > cap_ {
			errs = append(errs, fmt.Errorf("partition: %s max load %d exceeds capacity %d (n=%d p=%d)",
				sc.Partitioner, q.MaxLoad, cap_, n, p))
		}
	}
	return errs
}

// checkMetrics reconciles the run's metrics snapshot against the
// transport's ground-truth counters and the Result fields, and verifies
// the snapshot is a true immutable copy of the (caller-owned) registry.
func checkMetrics(cfg engine.Config, res engine.Result) []error {
	var errs []error
	m := res.Metrics

	// Non-negativity: counters and phase timers only ever accrue.
	for _, id := range metrics.CounterIDs() {
		if v := m.Get(id); v < 0 {
			errs = append(errs, fmt.Errorf("metrics: counter %s = %d < 0", id.Name(), v))
		}
	}
	for _, p := range metrics.Phases() {
		if v := m.Phase(p); v < 0 {
			errs = append(errs, fmt.Errorf("metrics: phase %s = %v < 0", p.Name(), v))
		}
	}

	// Executions are counted at the same site as Result.Executions, so
	// they agree exactly even across rollbacks and discarded supersteps.
	if got, want := m.Get(metrics.Executions), res.Executions; got != want {
		errs = append(errs, fmt.Errorf("metrics: executions counter = %d, Result.Executions = %d", got, want))
	}
	if got, want := m.Get(metrics.Rollbacks), int64(res.Rollbacks); got != want {
		errs = append(errs, fmt.Errorf("metrics: rollbacks counter = %d, Result.Rollbacks = %d", got, want))
	}

	// The supersteps counter includes discarded (rolled-back) supersteps,
	// and under BAP accumulates per-worker logical supersteps, so it is
	// exact only on clean barriered runs and a lower bound otherwise.
	steps := m.Get(metrics.Supersteps)
	if res.Rollbacks == 0 && cfg.Mode != engine.BAP {
		if steps != int64(res.Supersteps) {
			errs = append(errs, fmt.Errorf("metrics: supersteps counter = %d, Result.Supersteps = %d", steps, res.Supersteps))
		}
	} else if steps < int64(res.Supersteps) {
		errs = append(errs, fmt.Errorf("metrics: supersteps counter = %d < Result.Supersteps = %d", steps, res.Supersteps))
	}

	// Chaos and crashes touch data traffic only, so the control ledger
	// must match the transport exactly on every run.
	if got, want := m.Get(metrics.CtrlMessages), res.Net.ControlMessages; got != want {
		errs = append(errs, fmt.Errorf("metrics: ctrl_messages = %d, transport ControlMessages = %d", got, want))
	}
	if got, want := m.Get(metrics.CtrlBytes), res.Net.ControlBytes; got != want {
		errs = append(errs, fmt.Errorf("metrics: ctrl_bytes = %d, transport ControlBytes = %d", got, want))
	}

	// Data-side conservation. Fault-free: every emitted batch was counted
	// by the transport, and every flushed entry was delivered. Faulty:
	// send-time drops leave DataMessages but land in DroppedMessages, and
	// duplicates inflate DataMessages, so only the upper bound survives.
	batches := m.Get(metrics.RemoteBatches)
	if cfg.Fault == nil {
		if batches != res.Net.DataMessages {
			errs = append(errs, fmt.Errorf("metrics: remote_batches = %d, transport DataMessages = %d", batches, res.Net.DataMessages))
		}
		if got, want := m.Get(metrics.RemoteBatchBytes), res.Net.DataBytes; got != want {
			errs = append(errs, fmt.Errorf("metrics: remote_batch_bytes = %d, transport DataBytes = %d", got, want))
		}
		if got, want := m.Get(metrics.RemoteEntriesDelivered), m.Get(metrics.RemoteEntriesFlushed); got != want {
			errs = append(errs, fmt.Errorf("metrics: remote_entries_delivered = %d, remote_entries_flushed = %d", got, want))
		}
	} else if suppressed := m.Get(metrics.ReplayBatchesSuppressed); batches > res.Net.DataMessages+res.Net.DroppedMessages+suppressed {
		errs = append(errs, fmt.Errorf("metrics: remote_batches = %d > DataMessages+DroppedMessages+suppressed = %d",
			batches, res.Net.DataMessages+res.Net.DroppedMessages+suppressed))
	}
	if flushed, buffered := m.Get(metrics.RemoteEntriesFlushed), m.Get(metrics.RemoteEntries); flushed > buffered {
		errs = append(errs, fmt.Errorf("metrics: remote_entries_flushed = %d > remote_entries = %d", flushed, buffered))
	}
	if got, want := m.Hist(metrics.HistBatchEntries).Count, batches; got != want {
		errs = append(errs, fmt.Errorf("metrics: batch_entries hist count = %d, remote_batches = %d", got, want))
	}

	// Spill accounting: the spill tier is armed only under BSP with a
	// budget set, so every other configuration must report zero bytes
	// spilled; and a sender only waited on credit if a window existed.
	if spilled := m.Get(metrics.BytesSpilled); spilled != 0 && (cfg.MsgMemoryBudget == 0 || cfg.Mode != engine.BSP) {
		errs = append(errs, fmt.Errorf("metrics: bytes_spilled = %d on a configuration with no spill tier (budget=%d mode=%v)",
			spilled, cfg.MsgMemoryBudget, cfg.Mode))
	}

	// Sync-technique ledgers mirror the Result's own coordination counts.
	if got, want := m.Get(metrics.ForkGrants), res.ForkSends; got != want {
		errs = append(errs, fmt.Errorf("metrics: fork_grants = %d, Result.ForkSends = %d", got, want))
	}
	if got, want := m.Get(metrics.TokenSends), res.TokenSends; got != want {
		errs = append(errs, fmt.Errorf("metrics: token_sends = %d, Result.TokenSends = %d", got, want))
	}
	if got, want := m.Hist(metrics.HistLockWait).Count, m.Get(metrics.LockAcquires); got != want {
		errs = append(errs, fmt.Errorf("metrics: lock_wait hist count = %d, lock_acquires = %d", got, want))
	}

	// Scheduler ledgers: prefetches are a subset of lock acquires (each one
	// counts as an acquire at request time), and only partition locking has
	// forks to prefetch — under any other technique every partition goes
	// through the cursor and the prefetch counters stay zero.
	pref := m.Get(metrics.ForksPrefetched)
	if pref > m.Get(metrics.LockAcquires) {
		errs = append(errs, fmt.Errorf("metrics: forks_prefetched = %d > lock_acquires = %d", pref, m.Get(metrics.LockAcquires)))
	}
	if cfg.Sync != engine.PartitionLock && (pref != 0 || m.Get(metrics.OverlapComputeNs) != 0) {
		errs = append(errs, fmt.Errorf("metrics: prefetch counters moved without partition locking: prefetched=%d overlap_ns=%d",
			pref, m.Get(metrics.OverlapComputeNs)))
	}

	// Recovery-phase ledgers: the counters and Result fields are written at
	// the same sites, so they agree exactly; confined recoveries are a
	// subset of all recoveries; and with no confined recovery the restore
	// accounting is exactly "every rollback reloaded every partition" with
	// nothing replayed from message logs.
	if got, want := m.Get(metrics.ConfinedRecoveries), int64(res.ConfinedRecoveries); got != want {
		errs = append(errs, fmt.Errorf("metrics: confined_recoveries = %d, Result.ConfinedRecoveries = %d", got, want))
	}
	if got, want := m.Get(metrics.WatchdogStalls), int64(res.WatchdogStalls); got != want {
		errs = append(errs, fmt.Errorf("metrics: watchdog_stalls = %d, Result.WatchdogStalls = %d", got, want))
	}
	if res.ConfinedRecoveries > res.Rollbacks {
		errs = append(errs, fmt.Errorf("metrics: %d confined recoveries exceed %d rollbacks", res.ConfinedRecoveries, res.Rollbacks))
	}
	ppw := cfg.PartitionsPerWorker
	if ppw == 0 {
		ppw = cfg.Workers
	}
	parts := int64(cfg.Workers * ppw)
	restored := m.Get(metrics.PartitionsRestored)
	if res.ConfinedRecoveries == 0 {
		if replayed := m.Get(metrics.MessagesReplayed); replayed != 0 {
			errs = append(errs, fmt.Errorf("metrics: messages_replayed = %d without a confined recovery", replayed))
		}
		if restored != int64(res.Rollbacks)*parts {
			errs = append(errs, fmt.Errorf("metrics: partitions_restored = %d, want %d rollbacks x %d partitions",
				restored, res.Rollbacks, parts))
		}
	} else if restored > int64(res.Rollbacks)*parts || restored < int64(res.Rollbacks) {
		errs = append(errs, fmt.Errorf("metrics: partitions_restored = %d outside [%d, %d] for %d recoveries",
			restored, res.Rollbacks, int64(res.Rollbacks)*parts, res.Rollbacks))
	}

	// The run is over and the registry is ours alone, so re-snapshotting
	// it must reproduce Result.Metrics bit for bit — both that nothing
	// mutates the registry after Run returns, and that the snapshot really
	// copied (rather than aliased) the live counters.
	if cfg.Metrics != nil && !reflect.DeepEqual(cfg.Metrics.Snapshot(), res.Metrics) {
		errs = append(errs, errors.New("metrics: registry changed after Run returned, or Snapshot aliases live state"))
	}
	return errs
}

// checkCheckpoints verifies the on-disk checkpoint sequence: filenames
// parse, supersteps are unique, and the latest checkpoint stays strictly
// behind the run's final superstep — i.e. checkpoint versions were
// monotone even across rollbacks, which rewind and then re-save them.
func checkCheckpoints(dir string, res engine.Result) error {
	latest, err := checkpoint.Latest(dir)
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	if latest == "" {
		return nil // run converged before the first checkpoint interval
	}
	base := filepath.Base(latest)
	numPart := strings.TrimSuffix(strings.TrimPrefix(base, "checkpoint-"), ".gob")
	s, err := strconv.Atoi(numPart)
	if err != nil {
		return fmt.Errorf("checkpoint: unparseable name %q", base)
	}
	if s >= res.Supersteps {
		return fmt.Errorf("checkpoint: latest covers superstep %d but the run only reached %d", s, res.Supersteps)
	}
	return nil
}

func joinFailures(sc Scenario, errs []error) error {
	var nonNil []error
	for _, e := range errs {
		if e != nil {
			nonNil = append(nonNil, e)
		}
	}
	if len(nonNil) == 0 {
		return nil
	}
	return fmt.Errorf("scenario %v:\n%w", sc, errors.Join(nonNil...))
}

func runSSSP(sc Scenario, g *graph.Graph, cfg engine.Config, fullCfg *engine.Config) error {
	dist, res, rec, err := engine.Run(g, algorithms.SSSP(0), cfg)
	if err != nil {
		return fmt.Errorf("scenario %v: engine error: %w", sc, err)
	}
	errs := checkCommon(sc, cfg, g, res, rec)
	if res.Converged && !sc.lossy() && !sc.BreakProtocol {
		want := algorithms.ShortestPaths(g, 0)
		for v := range want {
			if dist[v] != want[v] {
				errs = append(errs, fmt.Errorf("result: sssp dist[%d] = %v, want %v", v, dist[v], want[v]))
				break
			}
		}
	}
	if fullCfg != nil && res.Converged {
		fullDist, fullRes, _, err := engine.Run(g, algorithms.SSSP(0), *fullCfg)
		errs = append(errs, compareRecoveries(res, fullRes, err, func(v int) bool {
			return dist[v] != fullDist[v]
		}, len(dist))...)
	}
	return joinFailures(sc, errs)
}

func runWCC(sc Scenario, g *graph.Graph, cfg engine.Config, fullCfg *engine.Config) error {
	labels, res, rec, err := engine.Run(g, algorithms.WCC(), cfg)
	if err != nil {
		return fmt.Errorf("scenario %v: engine error: %w", sc, err)
	}
	errs := checkCommon(sc, cfg, g, res, rec)
	if res.Converged && !sc.lossy() && !sc.BreakProtocol {
		want := algorithms.Components(g)
		for v := range want {
			if labels[v] != want[v] {
				errs = append(errs, fmt.Errorf("result: wcc label[%d] = %d, want %d", v, labels[v], want[v]))
				break
			}
		}
	}
	if fullCfg != nil && res.Converged {
		fullLabels, fullRes, _, err := engine.Run(g, algorithms.WCC(), *fullCfg)
		errs = append(errs, compareRecoveries(res, fullRes, err, func(v int) bool {
			return labels[v] != fullLabels[v]
		}, len(labels))...)
	}
	return joinFailures(sc, errs)
}

// compareRecoveries is the confined-vs-full oracle: the same crash plan
// recovered confined (primary run) and with full rollbacks (control run)
// must both converge to identical values, and a confined recovery that
// fired must have recomputed no more partition-supersteps than the
// cluster-wide control did.
func compareRecoveries(confined, full engine.Result, fullErr error, differs func(v int) bool, n int) []error {
	var errs []error
	if fullErr != nil {
		return append(errs, fmt.Errorf("confined-vs-full: control run errored: %w", fullErr))
	}
	if !full.Converged {
		return append(errs, errors.New("confined-vs-full: control run with full rollbacks did not converge"))
	}
	for v := 0; v < n; v++ {
		if differs(v) {
			errs = append(errs, fmt.Errorf("confined-vs-full: value[%d] differs between recovery modes", v))
			break
		}
	}
	if confined.ConfinedRecoveries > 0 && full.Rollbacks > 0 &&
		confined.ConfinedRecoveries == confined.Rollbacks && full.Rollbacks == confined.Rollbacks &&
		confined.RecomputedPartitionSupersteps > full.RecomputedPartitionSupersteps {
		errs = append(errs, fmt.Errorf("confined-vs-full: confined recomputed %d partition-supersteps, full only %d",
			confined.RecomputedPartitionSupersteps, full.RecomputedPartitionSupersteps))
	}
	return errs
}

func runColoring(sc Scenario, g *graph.Graph, cfg engine.Config) error {
	prog := algorithms.Coloring()
	if sc.Algorithm == "recolor" {
		prog = algorithms.ColoringRecolor()
	}
	colors, res, rec, err := engine.Run(g, prog, cfg)
	if err != nil {
		return fmt.Errorf("scenario %v: engine error: %w", sc, err)
	}
	errs := checkCommon(sc, cfg, g, res, rec)
	// A proper coloring is promised only under a serializable technique
	// (Figures 2 and 3 show exactly how it breaks without one).
	if res.Converged && sc.serializabilityPromised() && !sc.BreakProtocol && !sc.lossy() {
		if err := algorithms.ValidateColoring(g, colors); err != nil {
			errs = append(errs, fmt.Errorf("result: %w", err))
		}
	}
	return joinFailures(sc, errs)
}

func runPageRank(sc Scenario, g *graph.Graph, cfg engine.Config) error {
	const eps = 0.05
	// The eps-thresholded PageRank assumes retained neighbor contributions
	// (AP-style replica reads), so it is only meaningful on the async
	// engines; under BSP, where messages live for exactly one superstep,
	// its partial sums lose rank mass. It also suppresses sends once a
	// vertex's delta falls under eps, so neighbor replicas go stale by
	// design — algorithm-level staleness tolerance that would trip the C1
	// oracle spuriously. Both cases run the aggregated variant instead: it
	// propagates every write every superstep and terminates via MasterHalt.
	prog := algorithms.PageRank(eps)
	aggregated := cfg.Mode == engine.BSP || cfg.TrackHistory
	if aggregated {
		prog = algorithms.PageRankAggregated(eps)
	}
	pr, res, rec, err := engine.Run(g, prog, cfg)
	if err != nil {
		return fmt.Errorf("scenario %v: engine error: %w", sc, err)
	}
	errs := checkCommon(sc, cfg, g, res, rec)
	if res.Converged && !sc.lossy() && !sc.BreakProtocol {
		// Every vertex stopped propagating only once its delta fell below
		// eps, so the residual is bounded by eps summed over in-neighbors;
		// anything beyond that bound means corrupted rank state, not
		// execution-order noise. The eps variant never re-executes a vertex
		// that receives no messages, so in-degree-0 vertices legitimately
		// keep their initial rank under ALL modes — they are excluded from
		// its residual (the aggregated variant re-executes them).
		maxIn := 0
		for v := 0; v < g.NumVertices(); v++ {
			if d := g.InDegree(graph.VertexID(v)); d > maxIn {
				maxIn = d
			}
		}
		bound := eps * float64(1+maxIn)
		if !aggregated {
			// The eps variant suppresses every delta below eps, and a vertex
			// re-executing several times can accumulate multiple suppressed
			// deltas of drift relative to what its neighbors last received —
			// interleaving-dependent slack, not corruption, so its bound
			// carries an accumulation margin.
			bound *= 4
		}
		if r := pagerankResidual(g, pr, !aggregated); r > bound {
			errs = append(errs, fmt.Errorf("result: pagerank residual %v exceeds bound %v", r, bound))
		}
	}
	return joinFailures(sc, errs)
}

// pagerankResidual mirrors algorithms.PageRankResidual, optionally
// skipping vertices with no in-neighbors (see runPageRank).
func pagerankResidual(g *graph.Graph, pr []float64, skipSources bool) float64 {
	maxRes := 0.0
	for v := 0; v < g.NumVertices(); v++ {
		ins := g.InNeighbors(graph.VertexID(v))
		if skipSources && len(ins) == 0 {
			continue
		}
		sum := 0.0
		for _, in := range ins {
			if d := g.OutDegree(in); d > 0 {
				sum += pr[in] / float64(d)
			}
		}
		if res := abs(pr[v] - (0.15 + 0.85*sum)); res > maxRes {
			maxRes = res
		}
	}
	return maxRes
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// mutateProgram removes every out-edge of vertices with ID%5 == 0 (except
// vertex 0) at the first barrier, then floods a reachability token from
// vertex 0 — so the final values reveal exactly which topology the engine
// ran on after applying the mutations.
func mutateProgram() model.Program[int32, int32] {
	return model.Program[int32, int32]{
		Name:      "torture-mutate",
		Semantics: model.Queue,
		MsgBytes:  4,
		Compute: func(ctx model.Context[int32, int32], msgs []int32) {
			if ctx.Superstep() == 0 {
				if ctx.ID() != 0 && ctx.ID()%5 == 0 {
					for _, nb := range ctx.OutNeighbors() {
						ctx.RemoveEdgeRequest(ctx.ID(), nb)
					}
				}
				if ctx.ID() != 0 {
					ctx.VoteToHalt() // vertex 0 stays active to start the flood
				}
				return
			}
			if ctx.Value() == 0 && (ctx.ID() == 0 || len(msgs) > 0) {
				ctx.SetValue(1)
				ctx.SendToAllOut(1)
			}
			ctx.VoteToHalt()
		},
	}
}

// mutatedReachability is the sequential reference for mutateProgram: BFS
// from vertex 0 over the graph minus the out-edges the program removes.
func mutatedReachability(g *graph.Graph) []int32 {
	cut := func(u graph.VertexID) bool { return u != 0 && u%5 == 0 }
	want := make([]int32, g.NumVertices())
	queue := []graph.VertexID{0}
	want[0] = 1
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		if cut(u) {
			continue // reachable, but its out-edges were removed
		}
		for _, v := range g.OutNeighbors(u) {
			if want[v] == 0 {
				want[v] = 1
				queue = append(queue, v)
			}
		}
	}
	return want
}

func runMutate(sc Scenario, g *graph.Graph, cfg engine.Config) error {
	vals, res, rec, err := engine.Run(g, mutateProgram(), cfg)
	if err != nil {
		return fmt.Errorf("scenario %v: engine error: %w", sc, err)
	}
	errs := checkCommon(sc, cfg, g, res, rec)
	if res.Converged && !sc.lossy() {
		want := mutatedReachability(g)
		for v := range want {
			if vals[v] != want[v] {
				errs = append(errs, fmt.Errorf("result: mutate reach[%d] = %d, want %d", v, vals[v], want[v]))
				break
			}
		}
	}
	return joinFailures(sc, errs)
}

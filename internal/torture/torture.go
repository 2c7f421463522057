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

	"serialgraph/internal/catalog"
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
	Algorithm string // a catalog entry's name, or "mutate" (the local fixture)

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

	MaxSupersteps int
}

func (sc Scenario) String() string {
	f := "none"
	if sc.Fault != nil {
		f = sc.Fault.String()
	}
	return fmt.Sprintf("seed=%#x shape=%s n=%d alg=%s workers=%d parts=%d threads=%d partitioner=%s mode=%v sync=%v transport=%v ckpt=%d fault=%s recovery=%v broken=%v",
		sc.Seed, sc.Shape, sc.N, sc.Algorithm, sc.Workers, sc.PartsPerWorker,
		sc.Threads, sc.Partitioner, sc.Mode, sc.Sync, sc.Transport, sc.CheckpointEvery, f, sc.Recovery, sc.BreakProtocol)
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
	// The serializability oracle assumes a write-all workload (§3.3), and
	// the write-all form of the one that is not (PageRank's aggregated
	// variant) needs aggregators, which barrierless BAP lacks — so
	// BAP+locking falls back to a Combine-semantics workload instead.
	if sc.Mode == engine.BAP && sc.Sync.Serializable() && !mustEntry(sc.Algorithm).WriteAll {
		sc.Algorithm = "wcc"
	}

	// Faults require barrier-based failure detection.
	if sc.Mode != engine.BAP && r.Intn(2) == 0 {
		p := fault.RandomPlan(mix64(seed^0xfa017), sc.Workers)
		sc.Fault = &p
		if len(p.Crashes) > 0 && r.Intn(2) == 0 {
			sc.CheckpointEvery = 1 + r.Intn(3)
		}
		// Tolerance-terminated PageRank, the sampled workload that is not
		// write-all, has no liveness guarantee on lossy links: sustained
		// drops keep perturbing the error sum above the threshold forever.
		// Monotone workloads still converge under loss, so lossy plans run
		// one of those instead.
		if p.DropRate > 0 && !mustEntry(sc.Algorithm).WriteAll {
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
	// A retired draw (the message-plane budget of the deleted credit
	// windows) stays consumed, so every later draw, and so every seed,
	// decodes as it did before (TestSampleDecodesPinned).
	if r.Intn(4) == 0 {
		r.Intn(4096)
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

// workload is the entry an algorithm names: the catalog's, or the local
// topology-mutation fixture.
func workload(name string) (*catalog.Entry, error) {
	if name == mutateEntry.Name {
		return mutateEntry, nil
	}
	return catalog.Lookup(name)
}

// mustEntry is the workload a sampled algorithm names.
func mustEntry(name string) *catalog.Entry {
	e, err := workload(name)
	if err != nil {
		panic(err)
	}
	return e
}

// entry is the workload a scenario runs under cfg. A program that is not
// write-all runs its write-all form where every write must reach the
// replicas: under BSP, whose stores keep a message one superstep only, and
// under the serializability oracle.
func (sc Scenario) entry(cfg engine.Config) (*catalog.Entry, error) {
	e, err := workload(sc.Algorithm)
	if err == nil && !e.WriteAll && (cfg.Mode == engine.BSP || cfg.TrackHistory) {
		e, err = catalog.Lookup(e.WriteAllForm)
	}
	return e, err
}

// buildGraph materializes the scenario's graph, symmetrized for a
// workload that reads its neighbourhood both ways (§7.2.1).
func buildGraph(sc Scenario, e *catalog.Entry) *graph.Graph {
	g := generate.Family(sc.Shape, sc.N, int64(sc.Seed|1))
	if e.Undirected {
		g = graph.Symmetrize(g)
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
	cfg := buildConfig(sc, ckptDir)
	e, err := sc.entry(cfg)
	if err != nil {
		return fmt.Errorf("torture: %w", err)
	}
	g := buildGraph(sc, e)
	// Randomized schedules leave a tolerance-halting PageRank up to four
	// times the bound from its equations (catalog.Params.Margin).
	p := catalog.Params{Eps: 0.05, Margin: 4}
	out, err := e.Run(g, p, cfg)
	if err != nil {
		return fmt.Errorf("scenario %v: engine error: %w", sc, err)
	}
	res := out.Result
	errs := checkCommon(sc, cfg, g, res, out.History)
	// A lossy run may lose any message, and a broken protocol any
	// guarantee; a workload whose oracle needs serializability is held to
	// it only under a technique that promises it (Figures 2 and 3 show how
	// coloring breaks without one).
	if res.Converged && !sc.lossy() && !sc.BreakProtocol && (!e.Serial || sc.serializabilityPromised()) {
		if err := out.Check(g, p); err != nil {
			errs = append(errs, fmt.Errorf("result: %s: %w", e.Name, err))
		}
	}
	// The confined-vs-full oracle reruns the crash plan with full
	// rollbacks, a fresh injector and its own checkpoint directory. Only a
	// workload with one answer compares final values; lossy plans diverge
	// legitimately (the message logs replay sends the chaos layer dropped
	// on the original timeline).
	if sc.Recovery == engine.RecoverConfined && e.Unique && !sc.lossy() && !sc.BreakProtocol && res.Converged {
		full, err := fullRun(sc, scratch, e, g, p)
		errs = append(errs, compareRecoveries(out, full, err)...)
	}
	return joinFailures(sc, errs)
}

// fullRun is the scenario's control run for the confined-vs-full oracle:
// the same crash plan recovered with full rollbacks.
func fullRun(sc Scenario, scratch string, e *catalog.Entry, g *graph.Graph, p catalog.Params) (catalog.Output, error) {
	scFull := sc
	scFull.Recovery = engine.RecoverFull
	ckptDir := ""
	if sc.CheckpointEvery > 0 {
		d, err := os.MkdirTemp(scratch, "ckpt-full-")
		if err != nil {
			return catalog.Output{}, fmt.Errorf("scratch dir: %w", err)
		}
		ckptDir = d
	}
	return e.Run(g, p, buildConfig(scFull, ckptDir))
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
	// Frontier conservation is audited by the engine itself at every
	// barrier, and a failed audit fails Run, which every workload reports
	// as an engine error: the audit recounts the unhalted bitset against
	// its counter, which restores, rollbacks, confined replays and store
	// rebuilds rewrite wholesale.

	m := res.Metrics
	rollbacks := m.Get(metrics.Rollbacks)

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
		if rollbacks > st.CrashesFired {
			errs = append(errs, fmt.Errorf("recovery: %d rollbacks from only %d crashes", rollbacks, st.CrashesFired))
		}
	}
	if recomputed := m.Get(metrics.RecomputedSupersteps); rollbacks > 0 && recomputed < rollbacks {
		errs = append(errs, fmt.Errorf("recovery: %d rollbacks recomputed only %d supersteps", rollbacks, recomputed))
	}
	if rollbacks > 0 && rec != nil && rec.LastResetTick() <= 0 {
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
// transport's ground-truth counters and against itself, and verifies the
// snapshot is a true immutable copy of the (caller-owned) registry.
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

	// The supersteps counter includes discarded (rolled-back) supersteps,
	// and under BAP accumulates per-worker logical supersteps, so it is
	// exact only on clean barriered runs and a lower bound otherwise.
	steps := m.Get(metrics.Supersteps)
	rollbacks := m.Get(metrics.Rollbacks)
	if rollbacks == 0 && cfg.Mode != engine.BAP {
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

	// Every lock acquire is observed once by the wait histogram.
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

	// Recovery-phase ledgers: confined recoveries are a subset of all
	// recoveries; and with no confined recovery the restore accounting is
	// exactly "every rollback reloaded every partition" with nothing
	// replayed from message logs.
	confined := m.Get(metrics.ConfinedRecoveries)
	if confined > rollbacks {
		errs = append(errs, fmt.Errorf("metrics: %d confined recoveries exceed %d rollbacks", confined, rollbacks))
	}
	ppw := cfg.PartitionsPerWorker
	if ppw == 0 {
		ppw = cfg.Workers
	}
	parts := int64(cfg.Workers * ppw)
	restored := m.Get(metrics.PartitionsRestored)
	if confined == 0 {
		if replayed := m.Get(metrics.MessagesReplayed); replayed != 0 {
			errs = append(errs, fmt.Errorf("metrics: messages_replayed = %d without a confined recovery", replayed))
		}
		if restored != rollbacks*parts {
			errs = append(errs, fmt.Errorf("metrics: partitions_restored = %d, want %d rollbacks x %d partitions",
				restored, rollbacks, parts))
		}
	} else if restored > rollbacks*parts || restored < rollbacks {
		errs = append(errs, fmt.Errorf("metrics: partitions_restored = %d outside [%d, %d] for %d recoveries",
			restored, rollbacks, rollbacks*parts, rollbacks))
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

// compareRecoveries is the confined-vs-full oracle: the same crash plan
// recovered confined (primary run) and with full rollbacks (control run)
// must both converge to identical values, and a confined recovery that
// fired must have recomputed no more partition-supersteps than the
// cluster-wide control did.
func compareRecoveries(confined, full catalog.Output, fullErr error) []error {
	var errs []error
	if fullErr != nil {
		return append(errs, fmt.Errorf("confined-vs-full: control run errored: %w", fullErr))
	}
	if !full.Result.Converged {
		return append(errs, errors.New("confined-vs-full: control run with full rollbacks did not converge"))
	}
	if !reflect.DeepEqual(confined.Values, full.Values) {
		errs = append(errs, errors.New("confined-vs-full: values differ between recovery modes"))
	}
	c, f := confined.Result.Metrics, full.Result.Metrics
	cRollbacks, fRollbacks := c.Get(metrics.Rollbacks), f.Get(metrics.Rollbacks)
	cParts, fParts := c.Get(metrics.RecomputedPartitionSupersteps), f.Get(metrics.RecomputedPartitionSupersteps)
	if cr := c.Get(metrics.ConfinedRecoveries); cr > 0 && fRollbacks > 0 &&
		cr == cRollbacks && fRollbacks == cRollbacks && cParts > fParts {
		errs = append(errs, fmt.Errorf("confined-vs-full: confined recomputed %d partition-supersteps, full only %d", cParts, fParts))
	}
	return errs
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

// mutateEntry runs mutateProgram, judged by mutatedReachability.
var mutateEntry = catalog.Fixture(catalog.Entry{Name: "mutate", WriteAll: true}, mutateProgram,
	func(g *graph.Graph, reach []int32) error {
		for v, want := range mutatedReachability(g) {
			if reach[v] != want {
				return fmt.Errorf("reach[%d] = %d, want %d", v, reach[v], want)
			}
		}
		return nil
	})

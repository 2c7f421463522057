// Package engine implements the Pregel-like computation engines: the BSP
// model of §2.1 and the AP (Giraph async) model of §2.2, with
// serializability available on the AP engine as a configurable option via
// three synchronization techniques — single-layer token passing (§4.2),
// dual-layer token passing (§5.3), and the paper's contribution,
// partition-based distributed locking (§5.4). Vertex-based locking lives in
// the GAS engine (package gas), mirroring the paper's observation that
// GraphLab async, not Giraph, is the system suited to it.
package engine

import (
	"fmt"
	"time"

	"serialgraph/internal/cluster"
	"serialgraph/internal/fault"
	"serialgraph/internal/graph"
	"serialgraph/internal/metrics"
	"serialgraph/internal/partition"
)

// Mode selects the computation model.
type Mode uint8

const (
	// BSP delays all messages to the next superstep (§2.1).
	BSP Mode = iota
	// Async makes messages visible as soon as they arrive, within the same
	// superstep (the AP model, §2.2). Local messages skip the buffer cache
	// entirely (eager local replicas, §6.1). Supersteps keep global
	// barriers.
	Async
	// BAP is the barrierless asynchronous parallel model of Giraph
	// Unchained [20], which the paper's Giraph async builds on: per-worker
	// logical supersteps, no global barriers, quiescence-based
	// termination. Compatible with SyncNone and PartitionLock.
	BAP
)

func (m Mode) String() string {
	switch m {
	case BSP:
		return "bsp"
	case Async:
		return "async"
	case BAP:
		return "bap"
	default:
		return fmt.Sprintf("Mode(%d)", uint8(m))
	}
}

// Sync selects the synchronization technique layered on the engine.
type Sync uint8

const (
	// SyncNone provides no serializability (plain Giraph / Giraph async).
	SyncNone Sync = iota
	// TokenSingle is single-layer token passing (§4.2): one global token
	// rotates among workers, each worker computes with a single thread.
	TokenSingle
	// TokenDual is dual-layer token passing (§5.3): a global token among
	// workers plus a local token among each worker's partitions.
	TokenDual
	// PartitionLock is partition-based distributed locking (§5.4):
	// partitions are Chandy–Misra philosophers.
	PartitionLock
	// VertexLockGiraph is vertex-based distributed locking on the
	// partition-aware engine: p-boundary vertices are philosophers and the
	// heavy-weight partition thread blocks on every vertex's fork
	// acquisition (§5.2). The paper measured this combination up to 44×
	// slower than GraphLab async and excluded it from Figure 6; it exists
	// here to reproduce that exclusion.
	VertexLockGiraph
)

func (s Sync) String() string {
	switch s {
	case SyncNone:
		return "none"
	case TokenSingle:
		return "token-single"
	case TokenDual:
		return "token-dual"
	case PartitionLock:
		return "partition-lock"
	case VertexLockGiraph:
		return "vertex-lock-giraph"
	default:
		return fmt.Sprintf("Sync(%d)", uint8(s))
	}
}

// Serializable reports whether the technique provides serializability when
// paired with the Async engine (Theorem 1 via §4.2, §5.3, §5.4).
func (s Sync) Serializable() bool { return s != SyncNone }

// RecoveryMode selects how the engine recovers when a worker crash is
// detected at a superstep barrier.
type RecoveryMode uint8

const (
	// RecoverFull is Giraph-style whole-cluster rollback (§6.4): every
	// partition discards its in-memory state and recomputes from the
	// latest checkpoint, so recovery cost scales with cluster size.
	RecoverFull RecoveryMode = iota
	// RecoverConfined restores only the crashed workers' partitions from
	// the checkpoint; healthy workers keep their in-memory state, and the
	// messages they sent since the checkpoint are re-injected from their
	// per-superstep message logs while the crashed partitions recompute to
	// the frontier (the Distributed GraphLab / Pregelix approach). Falls
	// back to full rollback whenever the log cannot cover the replay — a
	// mid-superstep crash, a watchdog stall, a topology mutation since the
	// checkpoint, or an unusable checkpoint chain.
	RecoverConfined
)

func (m RecoveryMode) String() string {
	switch m {
	case RecoverFull:
		return "full"
	case RecoverConfined:
		return "confined"
	default:
		return fmt.Sprintf("RecoveryMode(%d)", uint8(m))
	}
}

// TransportKind selects the cluster.Transport backend for a run.
type TransportKind uint8

const (
	// TransportInProc is the simulated in-process transport (cluster.Mem).
	TransportInProc TransportKind = iota
	// TransportTCP moves all inter-worker traffic over loopback TCP
	// sockets through the binary frame codec (cluster.TCP).
	TransportTCP
)

func (t TransportKind) String() string {
	switch t {
	case TransportInProc:
		return "inproc"
	case TransportTCP:
		return "tcp"
	default:
		return fmt.Sprintf("TransportKind(%d)", uint8(t))
	}
}

// Config parameterizes a run.
type Config struct {
	// Workers is the simulated cluster size. Default 1.
	Workers int
	// PartitionsPerWorker defaults to Workers, Giraph's default (§7.1).
	PartitionsPerWorker int
	// ThreadsPerWorker is the compute thread pool size per worker; default
	// 4 (the paper's r3.xlarge instances have 4 vCPUs). TokenSingle forces
	// 1 thread, as §4.2 requires.
	ThreadsPerWorker int
	// Mode selects BSP or Async. Serializability (Sync != SyncNone)
	// requires Async (§4.1: synchronous models cannot update local
	// replicas eagerly).
	Mode Mode
	// Sync selects the synchronization technique.
	Sync Sync
	// Latency is the simulated network model. Enforced by the in-process
	// transport; the TCP backend ignores it and lets the real wire set
	// the timing.
	Latency cluster.LatencyModel
	// Transport selects the wire backend connecting the workers: the
	// in-process simulator (default) or real TCP loopback sockets with
	// the binary frame codec. Everything above the transport — engines,
	// message stores, sync techniques, fault injection — runs unchanged
	// over either.
	Transport TransportKind
	// BufferCap is the message buffer cache threshold in entries; default
	// 512.
	BufferCap int
	// MaxSupersteps aborts runs that do not converge (e.g. BSP graph
	// coloring, Figure 2); default 100000.
	MaxSupersteps int
	// Seed feeds hash partitioning.
	Seed uint64
	// Partitioner overrides hash partitioning when non-nil.
	Partitioner func(g *graph.Graph, p, w int) *partition.Map
	// TrackHistory attaches a transaction recorder for serializability
	// checking (testing only; adds overhead).
	TrackHistory bool
	// CheckpointEvery takes a checkpoint after every k-th superstep when
	// k > 0 (§6.4). It requires CheckpointDir; a positive interval with
	// no directory is a configuration error, not a silent no-op.
	CheckpointEvery int
	// CheckpointDir is where checkpoints are written — and, once the run
	// has written one, where in-run recovery loads its restore point after
	// a worker crash.
	CheckpointDir string
	// RestoreFrom resumes a run from a checkpoint file written by a
	// previous run with identical Config, graph, and program. It is
	// independent of CheckpointEvery/CheckpointDir: a restored run only
	// writes new checkpoints if those are also set (typically to the same
	// directory, so recovery keeps working across restarts). Until it does,
	// the restored generation is its restore point, reloaded from that
	// file's directory after a crash.
	RestoreFrom string
	// Fault optionally injects worker crashes and message-level chaos
	// into the run (see internal/fault). When a crash fires, the master
	// detects the dead worker at the superstep barrier, rolls the whole
	// cluster back to the run's restore point (its latest checkpoint, the
	// RestoreFrom generation, or the initial state), revives the worker,
	// and resumes — all within the same Run call. Requires a mode with
	// global barriers (BSP or Async).
	Fault *fault.Injector
	// Recovery selects full (default) or confined crash recovery. Confined
	// recovery additionally enables per-worker message logging between
	// checkpoints, which is what makes partial rollback possible.
	Recovery RecoveryMode
	// WatchdogTimeout, when > 0, arms the liveness watchdog: a superstep
	// whose workers have not all reached the barrier within this deadline
	// is declared stalled — the laggards are treated as crashed, their
	// blocking primitives (fork waits, credit waits) are aborted so the
	// barrier is reached, and recovery runs instead of the run hanging
	// forever on, say, a lost fork batch. Zero disables the
	// watchdog. Requires a mode with global barriers.
	WatchdogTimeout time.Duration
	// MaxRollbacks bounds recovery attempts per run (default 16) so a
	// pathological fault schedule terminates with an error instead of
	// crash-looping forever.
	MaxRollbacks int
	// DisableSenderCombine turns off sender-side combining, which is
	// otherwise applied automatically for Combine-semantics programs
	// (Giraph applies the user combiner in the buffer cache).
	DisableSenderCombine bool
	// DisableHaltedPartitionSkip turns off the §5.4 optimization of not
	// acquiring forks for partitions whose vertices are all halted with no
	// pending messages (for ablation).
	DisableHaltedPartitionSkip bool
	// DetailedStats records per-superstep durations and execution counts
	// into Result.SuperstepStats.
	DetailedStats bool
	// Metrics optionally supplies the run's metrics registry. When nil the
	// engine creates a private one; supplying one lets callers observe
	// counters live while the run executes (Result.Metrics is a snapshot
	// taken at the end either way). A registry serves one run.
	Metrics *metrics.Registry
	// MsgMemoryBudget, when > 0, bounds the message bytes in flight
	// (DESIGN.md §12): the transport's per-ordered-pair credit windows are
	// sized from it (cluster.WindowForBudget), and a sender blocks once its
	// lane's window is full. Zero (the default) leaves every window at
	// cluster.DefaultCreditWindow; results are bitwise identical either way.
	MsgMemoryBudget int64
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.PartitionsPerWorker <= 0 {
		c.PartitionsPerWorker = c.Workers
	}
	if c.ThreadsPerWorker <= 0 {
		c.ThreadsPerWorker = 4
	}
	if c.Sync == TokenSingle {
		c.ThreadsPerWorker = 1
	}
	if c.BufferCap <= 0 {
		c.BufferCap = 512
	}
	if c.MaxSupersteps <= 0 {
		c.MaxSupersteps = 100000
	}
	if c.MaxRollbacks <= 0 {
		c.MaxRollbacks = 16
	}
	return c
}

func (c Config) validate() error {
	if c.Mode == BSP && c.Sync != SyncNone {
		return fmt.Errorf("engine: %v requires the Async mode: synchronous models cannot update local replicas eagerly (§4.1)", c.Sync)
	}
	if c.Mode == BAP {
		if c.Sync == TokenSingle || c.Sync == TokenDual {
			return fmt.Errorf("engine: %v requires superstep-aligned token rotation; BAP has no global supersteps", c.Sync)
		}
		if c.Sync == VertexLockGiraph {
			return fmt.Errorf("engine: BAP supports SyncNone and PartitionLock only; %v is not composed with barrierless execution", c.Sync)
		}
		if on := c.barrierOptions(); len(on) > 0 {
			return fmt.Errorf("engine: %s requires global superstep barriers; BAP has none (no barriers to checkpoint, detect failures or recover at)", on[0])
		}
	}
	if c.Transport > TransportTCP {
		return fmt.Errorf("engine: unknown transport kind %d", uint8(c.Transport))
	}
	if c.CheckpointEvery > 0 && c.CheckpointDir == "" {
		return fmt.Errorf("engine: CheckpointEvery = %d with no CheckpointDir; checkpoints need somewhere to go", c.CheckpointEvery)
	}
	if c.Fault != nil {
		if err := c.Fault.Validate(c.Workers); err != nil {
			return err
		}
	}
	return nil
}

// ValidatePeer reports why cfg cannot run as a multi-process job (NewPeer),
// or nil. Each process hosts one worker, so everything that needs the whole
// cluster in one address space is refused by name, and so is every
// technique without a multi-process conformance test.
func (c Config) ValidatePeer() error {
	c = c.withDefaults()
	if err := c.validate(); err != nil {
		return err
	}
	var refused string
	switch on := c.barrierOptions(); {
	case c.Mode == BAP:
		refused = "the BAP mode"
	case c.Sync != SyncNone && c.Sync != PartitionLock:
		refused = "the " + c.Sync.String() + " technique"
	case len(on) > 0:
		refused = on[0]
	case c.TrackHistory:
		refused = "TrackHistory (a history recorder is per process)"
	default:
		return nil
	}
	return fmt.Errorf("engine: multi-process runs do not support %s", refused)
}

// barrierOptions names the options set in c that act at the master's
// global superstep barrier: checkpoints are taken and restored there, and
// crashes (injected, or declared by the watchdog) are detected and
// recovered there. BAP has no such barrier, and a multi-process run's
// coordinator does not implement them.
func (c Config) barrierOptions() []string {
	var on []string
	if c.CheckpointEvery > 0 || c.RestoreFrom != "" {
		on = append(on, "checkpoints")
	}
	if c.Fault != nil {
		on = append(on, "fault injection")
	}
	if c.WatchdogTimeout > 0 {
		on = append(on, "the liveness watchdog")
	}
	if c.Recovery != RecoverFull {
		on = append(on, c.Recovery.String()+" recovery")
	}
	return on
}

// Result reports what a run did: the answer's shape, the fields a caller
// reads on every run, and the run's metrics snapshot. Every other count
// (rollbacks, recomputed supersteps, token sends, ...) is a counter in
// Metrics, so it lives in one place.
type Result struct {
	// Converged is true when every vertex halted with no pending messages,
	// false when MaxSupersteps was hit first.
	Converged bool
	// Supersteps executed (BSP/Async engines).
	Supersteps int
	// Executions is the total number of vertex executions (transactions):
	// Metrics' executions counter.
	Executions int64
	// ComputeTime excludes graph loading and partitioning, matching the
	// paper's "computation time" metric (§7.3).
	ComputeTime time.Duration
	// Net is the network traffic of the run.
	Net cluster.Snapshot
	// ForkSends is the Chandy–Misra forks yielded (PartitionLock and the
	// GAS engine only): Metrics' fork_grants counter.
	ForkSends int64
	// Partition is the quality report of the run's partition map:
	// edge-cut, the §5.3 per-class boundary census, replication factor,
	// and balance skew. Computed once at startup, outside ComputeTime.
	Partition partition.Quality
	// MaxConcurrency is the peak number of concurrently executing
	// partitions observed (used for the Figure 1 spectrum experiment).
	MaxConcurrency int64
	// SuperstepStats holds per-superstep detail when
	// Config.DetailedStats is set.
	SuperstepStats []SuperstepStat
	// Metrics is the run's final metrics snapshot: counters, phase
	// timings, and histograms (see internal/metrics for the taxonomy).
	Metrics metrics.Snapshot
}

// SuperstepStat is per-superstep detail for Result.SuperstepStats. The
// phase fields are the per-superstep deltas of the registry's phase
// accumulators, summed across workers; Duration is the master's wall time
// for the superstep. JSON keys of wall-clock-valued fields end in "_ns"
// (Duration marshals as integer nanoseconds).
type SuperstepStat struct {
	Duration   time.Duration `json:"duration_ns"`
	Executions int64         `json:"executions"`
	DataMsgs   int64         `json:"data_msgs"`
	CtrlMsgs   int64         `json:"ctrl_msgs"`
	// ComputeNs..BarrierWaitNs are summed across workers, so each can
	// exceed Duration on multi-worker runs; per worker, compute + flush +
	// barrier-wait <= the superstep wall time.
	ComputeNs       int64 `json:"compute_ns"`
	LocalDeliveryNs int64 `json:"local_delivery_ns"`
	RemoteFlushNs   int64 `json:"remote_flush_ns"`
	BarrierWaitNs   int64 `json:"barrier_wait_ns"`
	// BarrierDrainNs and BarrierCommitNs are the master's barrier critical
	// path, which every worker sits out: last worker finish → transport
	// idle, then aggregator merge, store swap, halt count and mutations,
	// plus the mean dispatch-to-running delay of this superstep's workers.
	// The commit proper falls after Duration ends. Per superstep, compute +
	// flush + barrier-wait + workers × (drain + commit) accounts for
	// workers × the wall time from this superstep's start to the next's.
	BarrierDrainNs  int64 `json:"barrier_drain_ns"`
	BarrierCommitNs int64 `json:"barrier_commit_ns"`
}

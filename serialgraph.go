// Package serialgraph is a Pregel-like distributed graph processing
// framework with serializability as a configurable, algorithm-transparent
// option. It reproduces the system of Han & Daudjee, "Providing
// Serializability for Pregel-like Graph Processing Systems" (EDBT 2016):
//
//   - a vertex-centric programming model with BSP and asynchronous (AP)
//     execution, combiners, aggregators, and vote-to-halt semantics;
//   - a GraphLab-style asynchronous gather/apply/scatter engine;
//   - four synchronization techniques providing serializability:
//     single-layer token passing, dual-layer token passing, vertex-based
//     distributed locking (Chandy–Misra over vertices, on the GAS engine),
//     and the paper's contribution, partition-based distributed locking;
//   - a transaction history checker that verifies the paper's conditions
//     C1 (fresh replica reads) and C2 (no concurrent neighbors) plus
//     one-copy serializability;
//   - synchronous checkpointing with restore.
//
// The cluster is simulated in-process: workers are goroutines and the
// network is a transport with configurable propagation latency and
// bandwidth that counts every message and byte, so the communication /
// parallelism trade-off the paper studies is directly measurable.
//
// # Quick start
//
//	g := serialgraph.GeneratePowerLaw(10_000, 16, 2.2, 42)
//	u := serialgraph.Undirected(g)
//	colors, res, err := serialgraph.Run(u, serialgraph.Coloring(), serialgraph.Options{
//		Workers:   16,
//		Technique: serialgraph.PartitionLocking,
//	})
//
// See the examples directory for runnable programs.
package serialgraph

import (
	"fmt"
	"time"

	"serialgraph/internal/algorithms"
	"serialgraph/internal/cluster"
	"serialgraph/internal/engine"
	"serialgraph/internal/fault"
	"serialgraph/internal/gas"
	"serialgraph/internal/generate"
	"serialgraph/internal/graph"
	"serialgraph/internal/history"
	"serialgraph/internal/model"
	"serialgraph/internal/partition"
)

// Core re-exported types. These aliases are the public names of the
// library's data model.
type (
	// Graph is an immutable CSR graph over dense vertex IDs.
	Graph = graph.Graph
	// Builder accumulates edges into a Graph.
	Builder = graph.Builder
	// VertexID identifies a vertex: 0 <= id < NumVertices.
	VertexID = graph.VertexID
	// Edge is a directed, optionally weighted edge.
	Edge = graph.Edge

	// Program is a Pregel-style vertex program.
	Program[V, M any] = model.Program[V, M]
	// Context is a vertex's view of one execution.
	Context[V, M any] = model.Context[V, M]
	// GASProgram is a GraphLab-style gather/apply/scatter program.
	GASProgram[V, M any] = model.GASProgram[V, M]

	// Result reports what a run did: supersteps, vertex executions,
	// compute time, network and fork traffic, and the run's metrics
	// snapshot, which holds every other count (token sends and, under
	// fault injection, rollbacks, recomputed supersteps, wasted messages).
	Result = engine.Result
	// Violation is one failed serializability check.
	Violation = history.Violation

	// FaultPlan schedules deterministic fault injection for a run: worker
	// crashes plus seeded message-level chaos (drops, duplicates,
	// stragglers). Attach one via Options.Fault.
	FaultPlan = fault.Plan
	// CrashSpec schedules one worker crash within a FaultPlan, triggered
	// at a superstep or after a number of delivered data messages.
	CrashSpec = fault.Crash

	// RecoveryMode selects how a crash detected at a barrier is repaired:
	// whole-cluster rollback or confined (crashed-partitions-only) replay.
	RecoveryMode = engine.RecoveryMode
)

// Crash recovery modes for Options.Recovery.
const (
	// RecoverFull rolls the whole cluster back to the latest checkpoint
	// (Giraph-style, §6.4) and recomputes everywhere.
	RecoverFull = engine.RecoverFull
	// RecoverConfined restores only the crashed workers' partitions and
	// replays them against the healthy workers' message logs; healthy
	// partitions keep their in-memory state.
	RecoverConfined = engine.RecoverConfined
)

// Message-store semantics for Program.Semantics.
const (
	// Queue appends messages; each batch is consumed by the next execution.
	Queue = model.Queue
	// Combine folds messages with Program.Combine and consumes on read.
	Combine = model.Combine
	// Overwrite keeps each in-neighbor's latest message (replica reads).
	Overwrite = model.Overwrite
)

// Model selects the computation model for Run.
type Model uint8

const (
	// BSP delays messages to the next superstep (Pregel/Giraph).
	BSP Model = iota
	// Async delivers messages within the same superstep (Giraph async).
	// Serializability requires Async or BAP.
	Async
	// BAP is the barrierless asynchronous parallel model (Giraph
	// Unchained): per-worker logical supersteps with no global barriers.
	// Compatible with NoSerializability and PartitionLocking.
	BAP
)

func (m Model) String() string {
	switch m {
	case BSP:
		return "bsp"
	case Async:
		return "async"
	case BAP:
		return "bap"
	default:
		return fmt.Sprintf("Model(%d)", uint8(m))
	}
}

// Technique selects the synchronization technique.
type Technique uint8

const (
	// NoSerializability runs the bare engine (plain Giraph / Giraph async /
	// GraphLab async).
	NoSerializability Technique = iota
	// SingleToken is single-layer token passing: minimal communication,
	// minimal parallelism.
	SingleToken
	// DualToken is dual-layer (partition aware) token passing.
	DualToken
	// PartitionLocking is partition-based distributed locking — the
	// paper's contribution and the recommended technique.
	PartitionLocking
	// VertexLocking is vertex-based distributed locking; it runs on the
	// GAS engine (RunGAS), matching the paper's finding that GraphLab
	// async is the system suited to it.
	VertexLocking
)

func (t Technique) String() string {
	switch t {
	case NoSerializability:
		return "none"
	case SingleToken:
		return "single-token"
	case DualToken:
		return "dual-token"
	case PartitionLocking:
		return "partition-locking"
	case VertexLocking:
		return "vertex-locking"
	default:
		return fmt.Sprintf("Technique(%d)", uint8(t))
	}
}

// Transport selects the wire backend connecting the simulated workers.
type Transport uint8

const (
	// InProc is the in-process simulated transport (default): messages
	// cross goroutine channels with modeled latency and byte accounting.
	InProc Transport = iota
	// TCPLoopback moves every inter-worker message over real loopback
	// TCP sockets through the binary frame codec. Results are identical
	// to InProc; Result.Net additionally reports true wire bytes.
	TCPLoopback
)

func (t Transport) String() string {
	switch t {
	case InProc:
		return "inproc"
	case TCPLoopback:
		return "tcp"
	default:
		return fmt.Sprintf("Transport(%d)", uint8(t))
	}
}

// Options configures a run. The zero value is a single-worker asynchronous
// run without serializability.
type Options struct {
	// Workers is the simulated cluster size (default 1).
	Workers int
	// PartitionsPerWorker defaults to Workers, Giraph's default.
	PartitionsPerWorker int
	// ThreadsPerWorker is the compute pool per worker (default 4).
	ThreadsPerWorker int
	// FibersPerWorker applies to RunGAS only (default 64).
	FibersPerWorker int
	// Model selects BSP or Async (Run only; RunGAS is always async).
	Model Model
	// Technique selects the serializability technique.
	Technique Technique
	// Transport selects the wire backend: the in-process simulator
	// (default) or real TCP loopback sockets (Run only; the GAS engine
	// is in-process).
	Transport Transport
	// NetworkLatency is the simulated one-way propagation delay.
	NetworkLatency time.Duration
	// NetworkBandwidth is per-link bytes/second (0 = infinite).
	NetworkBandwidth float64
	// BufferCap is the outgoing message batch threshold (default 512).
	BufferCap int
	// MaxSupersteps bounds non-converging runs (default 100000).
	MaxSupersteps int
	// Seed makes partitioning reproducible.
	Seed uint64
	// Partitioner names the vertex-placement strategy: "hash" (the
	// paper's baseline, default), "range", "ldg" (linear deterministic
	// greedy streaming), or "fennel". Locality-aware placement changes
	// only where vertices run — results are unchanged — but it shrinks
	// boundary fractions and with them token, lock, and network cost.
	// Result.Partition reports the achieved quality.
	Partitioner string
	// TrackHistory records transactions for CheckSerializability.
	TrackHistory bool
	// CheckpointEvery/CheckpointDir enable synchronous checkpoints;
	// RestoreFrom resumes from one.
	CheckpointEvery int
	CheckpointDir   string
	RestoreFrom     string
	// Fault injects worker crashes and message chaos into the run (Run
	// only; the GAS engine has no fault support). When a crash fires, the
	// engine detects it at the next barrier, rolls the cluster back to the
	// latest checkpoint (or to the initial state), and resumes within the
	// same call; Result reports the recovery cost.
	Fault *FaultPlan
	// MaxRollbacks bounds in-run recovery attempts (default 16).
	MaxRollbacks int
	// Recovery selects full (default) or confined crash recovery.
	// Confined recovery logs outgoing remote messages per superstep and,
	// on a crash, restores and replays only the crashed workers'
	// partitions; it falls back to a full rollback whenever the logs or
	// checkpoint chain cannot support a confined replay.
	Recovery RecoveryMode
	// WatchdogTimeout, when > 0, arms the liveness watchdog: a superstep
	// that fails to reach its barrier within the deadline is declared
	// stalled, the unfinished workers are treated as crashed, and the run
	// recovers as from a crash.
	WatchdogTimeout time.Duration
	// DetailedStats records a per-superstep breakdown (wall time, message
	// counts, phase timers) in Result.SuperstepStats. Costs one metrics
	// snapshot per superstep; Result.Metrics is populated regardless.
	DetailedStats bool
}

func (o Options) latency() cluster.LatencyModel {
	return cluster.LatencyModel{Propagation: o.NetworkLatency, BytesPerSec: o.NetworkBandwidth}
}

// EngineConfig is the engine configuration Run derives from o.
func (o Options) EngineConfig() (engine.Config, error) {
	var sync engine.Sync
	switch o.Technique {
	case NoSerializability:
		sync = engine.SyncNone
	case SingleToken:
		sync = engine.TokenSingle
	case DualToken:
		sync = engine.TokenDual
	case PartitionLocking:
		sync = engine.PartitionLock
	case VertexLocking:
		return engine.Config{}, fmt.Errorf("serialgraph: vertex-based locking runs on the GAS engine; use RunGAS")
	default:
		return engine.Config{}, fmt.Errorf("serialgraph: unknown technique %v", o.Technique)
	}
	var mode engine.Mode
	switch o.Model {
	case BSP:
		mode = engine.BSP
	case Async:
		mode = engine.Async
	case BAP:
		mode = engine.BAP
	default:
		return engine.Config{}, fmt.Errorf("serialgraph: unknown model %v", o.Model)
	}
	var transport engine.TransportKind
	switch o.Transport {
	case InProc:
		transport = engine.TransportInProc
	case TCPLoopback:
		transport = engine.TransportTCP
	default:
		return engine.Config{}, fmt.Errorf("serialgraph: unknown transport %v", o.Transport)
	}
	cfg := engine.Config{
		Workers:             o.Workers,
		PartitionsPerWorker: o.PartitionsPerWorker,
		ThreadsPerWorker:    o.ThreadsPerWorker,
		Mode:                mode,
		Sync:                sync,
		Transport:           transport,
		Latency:             o.latency(),
		BufferCap:           o.BufferCap,
		MaxSupersteps:       o.MaxSupersteps,
		Seed:                o.Seed,
		TrackHistory:        o.TrackHistory,
		CheckpointEvery:     o.CheckpointEvery,
		CheckpointDir:       o.CheckpointDir,
		RestoreFrom:         o.RestoreFrom,
		MaxRollbacks:        o.MaxRollbacks,
		Recovery:            o.Recovery,
		WatchdogTimeout:     o.WatchdogTimeout,
		DetailedStats:       o.DetailedStats,
	}
	if o.Fault != nil {
		cfg.Fault = fault.NewInjector(*o.Fault)
	}
	if o.Partitioner != "" {
		place, err := partition.Placer(o.Partitioner, o.Seed)
		if err != nil {
			return engine.Config{}, fmt.Errorf("serialgraph: %w", err)
		}
		cfg.Partitioner = place
	}
	return cfg, nil
}

// Run executes a Pregel-style program over g and returns the final vertex
// values. Serializable techniques require Options.Model == Async.
func Run[V, M any](g *Graph, prog Program[V, M], opt Options) ([]V, Result, error) {
	cfg, err := opt.EngineConfig()
	if err != nil {
		return nil, Result{}, err
	}
	vals, res, _, err := engine.Run(g, prog, cfg)
	return vals, res, err
}

// RunChecked is Run plus serializability verification: it records every
// vertex execution as a transaction and checks conditions C1 and C2 and
// one-copy serializability, returning any violations.
func RunChecked[V, M any](g *Graph, prog Program[V, M], opt Options) ([]V, Result, []Violation, error) {
	opt.TrackHistory = true
	cfg, err := opt.EngineConfig()
	if err != nil {
		return nil, Result{}, nil, err
	}
	vals, res, rec, err := engine.Run(g, prog, cfg)
	if err != nil {
		return nil, Result{}, nil, err
	}
	return vals, res, history.CheckAll(rec.Txns(), g), nil
}

// RunGAS executes a gather/apply/scatter program on the GraphLab-style
// asynchronous engine. Technique must be VertexLocking (serializable) or
// NoSerializability.
func RunGAS[V comparable, M any](g *Graph, prog GASProgram[V, M], opt Options) ([]V, Result, error) {
	vals, res, _, err := runGAS(g, prog, opt)
	return vals, res, err
}

// RunGASChecked is RunGAS plus serializability verification.
func RunGASChecked[V comparable, M any](g *Graph, prog GASProgram[V, M], opt Options) ([]V, Result, []Violation, error) {
	opt.TrackHistory = true
	vals, res, rec, err := runGAS(g, prog, opt)
	if err != nil {
		return nil, Result{}, nil, err
	}
	return vals, res, history.CheckAll(rec.Txns(), g), nil
}

func runGAS[V comparable, M any](g *Graph, prog GASProgram[V, M], opt Options) ([]V, Result, *history.Recorder, error) {
	cfg, err := opt.GASConfig()
	if err != nil {
		return nil, Result{}, nil, err
	}
	return gas.Run(g, prog, cfg)
}

// GASConfig is the GAS engine configuration RunGAS derives from o.
func (o Options) GASConfig() (gas.Config, error) {
	switch o.Technique {
	case VertexLocking, NoSerializability:
	default:
		return gas.Config{}, fmt.Errorf("serialgraph: the GAS engine supports VertexLocking or NoSerializability, not %v", o.Technique)
	}
	return gas.Config{
		Workers:         o.Workers,
		FibersPerWorker: o.FibersPerWorker,
		Serializable:    o.Technique == VertexLocking,
		Latency:         o.latency(),
		BufferCap:       o.BufferCap,
		Seed:            o.Seed,
		Partitioner:     o.Partitioner,
		TrackHistory:    o.TrackHistory,
	}, nil
}

// Built-in algorithms (§7.2 of the paper).

// Coloring returns the serializable greedy graph coloring program; run it
// on an undirected graph with a serializable technique.
func Coloring() Program[int32, int32] { return algorithms.Coloring() }

// PageRank returns the PageRank program with the given per-vertex
// convergence threshold.
func PageRank(eps float64) Program[float64, float64] { return algorithms.PageRank(eps) }

// SSSP returns the single-source shortest paths program (parallel
// Bellman–Ford).
func SSSP(source VertexID) Program[float64, float64] { return algorithms.SSSP(source) }

// WCC returns the weakly-connected-components program (HCC); run it on an
// undirected graph.
func WCC() Program[int32, int32] { return algorithms.WCC() }

// GAS forms of the same algorithms, for RunGAS.

// ColoringGAS returns greedy coloring in gather/apply/scatter form.
func ColoringGAS() GASProgram[int32, []int32] { return algorithms.ColoringGAS() }

// PageRankGAS returns PageRank in GAS form.
func PageRankGAS(g *Graph, eps float64) GASProgram[float64, float64] {
	return algorithms.PageRankGAS(g, eps)
}

// SSSPGAS returns SSSP in GAS form.
func SSSPGAS(source VertexID) GASProgram[float64, float64] { return algorithms.SSSPGAS(source) }

// WCCGAS returns WCC in GAS form.
func WCCGAS() GASProgram[int32, int32] { return algorithms.WCCGAS() }

// PageRankAggregated returns the aggregator-terminated PageRank variant:
// the master halts when the global error aggregate drops below tol.
func PageRankAggregated(tol float64) Program[float64, float64] {
	return algorithms.PageRankAggregated(tol)
}

// MISGreedy returns the one-pass greedy maximal-independent-set program;
// it requires a serializable technique and an undirected graph.
func MISGreedy() Program[int32, int32] { return algorithms.MISGreedy() }

// MISGreedyGAS returns greedy MIS in GAS form for RunGAS.
func MISGreedyGAS() GASProgram[int32, []int32] { return algorithms.MISGreedyGAS() }

// ValidateMIS checks independence and maximality of an MIS result.
func ValidateMIS(g *Graph, states []int32) error { return algorithms.ValidateMIS(g, states) }

// MIS state values returned by MISGreedy.
const (
	MISIn  = algorithms.MISIn
	MISOut = algorithms.MISOut
)

// LabelPropagation returns the community-detection label propagation
// program; like coloring, it oscillates under BSP on bipartite structures
// and converges under serializable asynchronous execution. Run on an
// undirected graph.
func LabelPropagation() Program[int32, int32] { return algorithms.LabelPropagation() }

// KCoreValue is the per-vertex state of KCore.
type KCoreValue = algorithms.KCoreValue

// KCoreMsg is KCore's message type.
type KCoreMsg = algorithms.KCoreMsg

// KCore returns the H-index coreness program; extract results with
// KCoreEstimates. Run on an undirected graph.
func KCore() Program[KCoreValue, KCoreMsg] { return algorithms.KCore() }

// KCoreEstimates extracts coreness numbers from KCore's final values.
func KCoreEstimates(vals []KCoreValue) []int32 { return algorithms.KCoreEstimates(vals) }

// TriangleMsg is TriangleCount's message type.
type TriangleMsg = algorithms.TriangleMsg

// TriangleCount returns the two-superstep triangle counting program (BSP;
// needs no serializability). Run on an undirected graph; per-vertex counts
// sum to the triangle total.
func TriangleCount() Program[int32, TriangleMsg] { return algorithms.TriangleCount() }

// GibbsValue is the per-vertex state of the Ising Gibbs sampler.
type GibbsValue = algorithms.GibbsValue

// IsingGibbs returns a Gibbs sampler for the Ising model at inverse
// temperature beta running the given number of sweeps — the machine
// learning workload class the paper cites as requiring serializability for
// statistical correctness. Run on an undirected graph.
func IsingGibbs(beta float64, sweeps int, seed uint64) Program[GibbsValue, int32] {
	return algorithms.IsingGibbs(beta, sweeps, seed)
}

// Magnetization returns the Ising order parameter |Σ spins|/n.
func Magnetization(vals []GibbsValue) float64 { return algorithms.Magnetization(vals) }

// AlignedFraction returns the fraction of edges with agreeing spins.
func AlignedFraction(g *Graph, vals []GibbsValue) float64 {
	return algorithms.AlignedFraction(g, vals)
}

// NoColor is the sentinel value of uncolored vertices.
const NoColor = algorithms.NoColor

// ValidateColoring checks that colors is a proper coloring of g.
func ValidateColoring(g *Graph, colors []int32) error { return algorithms.ValidateColoring(g, colors) }

// Graph construction and I/O.

// NewBuilder creates a builder for a graph with n vertices.
func NewBuilder(n int) *Builder { return graph.NewBuilder(n) }

// LoadGraph reads a graph from a file; ".bin"/".gob" selects the binary
// format, anything else a text edge list.
func LoadGraph(path string) (*Graph, error) { return graph.LoadFile(path) }

// SaveGraph writes a graph; format chosen as in LoadGraph.
func SaveGraph(path string, g *Graph) error { return graph.SaveFile(path, g) }

// Undirected returns the symmetrized version of g (for coloring and WCC).
func Undirected(g *Graph) *Graph { return graph.Symmetrize(g) }

// GeneratePowerLaw builds a seeded synthetic power-law graph with the given
// vertex count, average degree, and exponent.
func GeneratePowerLaw(n int, avgDegree float64, exponent float64, seed int64) *Graph {
	return generate.PowerLaw(generate.PowerLawConfig{N: n, AvgDegree: avgDegree, Exponent: exponent, Seed: seed})
}

// Dataset returns one of the paper's Table 1 synthetic dataset analogs
// ("OR", "AR", "TW", "UK") at the given scale (1.0 = catalog size).
func Dataset(name string, scale float64) (*Graph, error) {
	d, err := generate.ByName(name)
	if err != nil {
		return nil, err
	}
	return d.Build(scale), nil
}

// Partitioning quality inspection.

// PartitionQuality is the placement quality report attached to every
// Result: edge-cut, per-Class vertex census (§5.3), boundary fraction,
// replication factor, and balance skew.
type PartitionQuality = partition.Quality

// PartitionerKinds lists the valid Options.Partitioner names.
func PartitionerKinds() []string { return partition.Kinds() }

// PartitionReport partitions g with the named strategy (see
// Options.Partitioner) and returns the quality report without running
// anything — diagnostics for placement tuning.
func PartitionReport(g *Graph, kind string, p, w int, seed uint64) (PartitionQuality, error) {
	m, err := partition.New(kind, g, p, w, seed)
	if err != nil {
		return PartitionQuality{}, err
	}
	return partition.Report(g, m), nil
}

// EdgeCutFraction reports the fraction of edges cut by hash-partitioning g
// into p partitions over w workers (diagnostics for technique tuning).
func EdgeCutFraction(g *Graph, p, w int, seed uint64) float64 {
	return partition.Report(g, partition.NewHash(g, p, w, seed)).CutFraction
}

// Degree-ordered relabeling.

// Relabeling is a bijection between an original dense ID space and a
// hub-clustered one; see DegreeRelabel.
type Relabeling = graph.Relabeling

// DegreeRelabel rebuilds g under the degree-ordered permutation (hubs at
// low IDs) and returns the remap table. Streaming partitioners place the
// relabeled graph better — hubs stream first, while the capacity
// discount still has room to spread them. Map algorithm inputs through
// Relabeling.NewID (e.g. an SSSP source) and map result slices back with
// Unpermute, and outputs are indexed exactly as an un-relabeled run.
func DegreeRelabel(g *Graph) (*Graph, *Relabeling) {
	r := graph.DegreeOrder(g)
	return r.Apply(g), r
}

// Unpermute reindexes a per-vertex result slice from the relabeled space
// back to the original: out[old] = vals[r.NewID(old)].
func Unpermute[T any](r *Relabeling, vals []T) []T { return graph.Unpermute(r, vals) }

// Permute reindexes a per-vertex input slice from the original space
// into the relabeled one (the inverse of Unpermute).
func Permute[T any](r *Relabeling, vals []T) []T { return graph.Permute(r, vals) }

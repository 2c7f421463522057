// Package metrics is the engine's low-overhead observability registry.
// The paper's evaluation (§7, Figs. 1–6) reasons entirely in terms of
// *where time goes* — barrier wait vs. compute vs. communication, and the
// lock/token/fork overhead of each synchronization technique — so the
// registry records exactly those signals: a fixed set of atomic counters,
// fixed-bucket histograms, and per-phase time accumulators.
//
// Design constraints, in priority order:
//
//  1. Allocation-free on the hot path. Counters, histograms, and phases
//     are identified by dense enum IDs into fixed arrays — no maps, no
//     strings, no interface boxing between a vertex execution and its
//     counter bump. The only allocations happen in Snapshot, which runs
//     at barriers or after the run.
//  2. Always on. Every engine.Run carries a registry, so conservation
//     oracles (metrics vs. transport truth) hold for every test and
//     torture case, not only specially-configured ones. The overhead
//     budget is <5% of Fig. 1 benchmark wall time (see DESIGN.md §8).
//  3. Stable schema. Snapshot serializes to JSON with a fixed field set
//     and a naming convention: every time-valued field's key ends in
//     "_ns", so tooling (and the golden-file tests) can mask wall-clock
//     noise mechanically while diffing everything else exactly.
package metrics

import (
	"encoding/json"
	"fmt"
	"math/bits"
	"sync/atomic"
	"time"
)

// CounterID identifies one registry counter.
type CounterID int

// The counter set. Message counters are maintained at the exact points
// the engine hands traffic to (or receives it from) the transport, so
// they must reconcile with cluster.Stats — the conservation tests in
// internal/engine enforce the equalities documented per counter.
const (
	// Executions counts vertex executions (transactions).
	Executions CounterID = iota
	// Supersteps counts executed global supersteps (including supersteps
	// later discarded by a rollback) on the barriered engines, and logical
	// per-worker supersteps under BAP.
	Supersteps
	// LocalMessages counts vertex messages delivered eagerly to the
	// sender's own worker, bypassing the transport (§6.1).
	LocalMessages
	// RemoteEntries counts vertex messages buffered for a remote worker.
	RemoteEntries
	// RemoteEntriesFlushed counts buffered messages actually handed to the
	// transport inside a batch (rollbacks discard buffered entries, so
	// flushed <= buffered).
	RemoteEntriesFlushed
	// RemoteEntriesDelivered counts vertex messages applied on batch
	// delivery. On a clean run delivered == flushed; drops lower it and
	// duplicate deliveries raise it.
	RemoteEntriesDelivered
	// RemoteBatches counts message batches handed to the transport. On a
	// fault-free run this exactly equals cluster.Stats.DataMessages.
	RemoteBatches
	// RemoteBatchBytes counts the simulated wire bytes of those batches;
	// fault-free it equals cluster.Stats.DataBytes.
	RemoteBatchBytes
	// CtrlMessages counts control messages sent by the engine: the lock
	// managers' remote fork/token batches. Chaos applies to data
	// traffic only, so this equals cluster.Stats.ControlMessages even on
	// faulty runs.
	CtrlMessages
	// CtrlBytes is the simulated wire bytes of those control messages;
	// equals cluster.Stats.ControlBytes.
	CtrlBytes
	// LockAcquires counts Chandy–Misra Acquire calls (= meals = partition
	// or vertex executions under a locking technique).
	LockAcquires
	// LockWaitNs is the total time compute threads spent blocked waiting
	// for forks — in Acquire, or in the engine's partition scheduler with
	// only prefetched grants left to run — the locking techniques'
	// contention signal.
	LockWaitNs
	// ForkGrants counts forks yielded by philosophers (local + remote).
	ForkGrants
	// ForkGrantsRemote counts forks that crossed the (simulated) network.
	ForkGrantsRemote
	// TokenSends counts Chandy–Misra request tokens sent (local + remote).
	TokenSends
	// TokenSendsRemote counts request tokens that crossed the network.
	TokenSendsRemote
	// TokenHoldNs is, under the token-passing techniques, the total wall
	// time the global token's holder spent executing its supersteps.
	TokenHoldNs
	// TokenIdleNs is the total wall time non-holders spent waiting at
	// barriers for the token holder's superstep to complete — the token
	// techniques' (lack of) parallelism, measured.
	TokenIdleNs
	// Checkpoints counts checkpoints written.
	Checkpoints
	// Rollbacks counts recoveries of either scope after a worker crash was
	// detected at a barrier: whole-cluster rollbacks (§6.4, Giraph-style)
	// and confined (partial) recoveries both bump it. Zero on a fault-free
	// run.
	Rollbacks
	// ConfinedRecoveries counts the subset of Rollbacks handled by confined
	// recovery (only crashed workers' partitions restored and recomputed).
	ConfinedRecoveries
	// PartitionsRestored counts partitions whose state was reloaded from a
	// checkpoint during recovery. Full rollback restores every partition;
	// confined recovery restores only the crashed workers' partitions — the
	// gap between the two is confined recovery's savings, measured.
	PartitionsRestored
	// MessagesReplayed counts logged message entries re-delivered from
	// healthy workers' message logs to recovering partitions during
	// confined recovery.
	MessagesReplayed
	// ReplayBatchesSuppressed counts remote batches a recovering worker
	// regenerated during confined BSP replay below the crash frontier and
	// the engine withheld from the transport — the healthy destinations
	// received the originals before the crash. Flushed but never sent,
	// they reconcile the buffer ledger against the transport's.
	ReplayBatchesSuppressed
	// WatchdogStalls counts supersteps the liveness watchdog declared
	// stalled (no progress within the configured deadline) and escalated
	// to recovery.
	WatchdogStalls
	// CheckpointGensSkipped counts checkpoint generations skipped during
	// restore because their checksum or decode failed — the corruption
	// fallback chain's activity.
	CheckpointGensSkipped
	// CreditWaitNs was the time senders spent blocked on the credit
	// windows, which are gone: nothing adds to it, and it always reads 0.
	// It stays only because the fixed benchmark reads it (its
	// cluster.credit_wait_s row), and goes with the next change to
	// benchmark/.
	CreditWaitNs
	// CutEdges is the number of directed edges crossing partitions under
	// the run's partition map — set once at startup from the partition
	// quality report (it is a placement property, not run activity).
	CutEdges
	// BoundaryVertices is the number of vertices that are not p-internal
	// (§5.3) under the run's partition map, set once at startup alongside
	// CutEdges. Together they make partition quality visible in every
	// metrics snapshot.
	BoundaryVertices
	// ForksPrefetched counts asynchronous fork acquisitions issued ahead of
	// a partition's execution by the partition scheduler (RequestForks
	// calls from the prefetch path). Every prefetch is also a LockAcquires,
	// so forks_prefetched <= lock_acquires; zero without partition locking.
	ForksPrefetched
	// OverlapComputeNs is thread time spent executing partitions while this
	// worker had fork prefetches outstanding — the compute that the
	// partition scheduler placed inside fork-wait windows. An overlap
	// estimate, not a disjoint phase: it sums across threads. Zero without
	// partition locking.
	OverlapComputeNs
	// FanOutTargets counts the store slots written by expanded remote
	// fan-out entries (msgstore.FanOut): one per in-edge a fan-out entry
	// reaches on the receiving worker. A BSP sender's staged fan-out entry
	// for its own worker counts as LocalMessages instead. A clean run's
	// remote messages are the point entries in RemoteEntriesDelivered plus
	// these.
	FanOutTargets
	// RecomputedSupersteps counts supersteps executed more than once
	// because a recovery discarded them: the recompute cost in barriers.
	RecomputedSupersteps
	// RecomputedPartitionSupersteps counts partition×superstep units
	// re-executed by recovery: a full rollback recomputes every partition
	// for every discarded superstep, confined recovery only the crashed
	// workers' partitions. This is the measure on which confined recovery
	// wins.
	RecomputedPartitionSupersteps
	// WastedMessages counts data messages sent since the restore point
	// whose effects a full rollback discarded: the recovery's wasted
	// network work.
	WastedMessages
	numCounters
)

// counterNames is the JSON schema: index = CounterID. Time-valued
// counters end in "_ns" by convention (see the package comment).
var counterNames = [numCounters]string{
	"executions",
	"supersteps",
	"local_messages",
	"remote_entries",
	"remote_entries_flushed",
	"remote_entries_delivered",
	"remote_batches",
	"remote_batch_bytes",
	"ctrl_messages",
	"ctrl_bytes",
	"lock_acquires",
	"lock_wait_ns",
	"fork_grants",
	"fork_grants_remote",
	"token_sends",
	"token_sends_remote",
	"token_hold_ns",
	"token_idle_ns",
	"checkpoints",
	"rollbacks",
	"confined_recoveries",
	"partitions_restored",
	"messages_replayed",
	"replay_batches_suppressed",
	"watchdog_stalls",
	"checkpoint_gens_skipped",
	"credit_wait_ns",
	"cut_edges",
	"boundary_vertices",
	"forks_prefetched",
	"overlap_compute_ns",
	"fan_out_targets",
	"recomputed_supersteps",
	"recomputed_partition_supersteps",
	"wasted_messages",
}

// Name returns the stable JSON key of a counter.
func (c CounterID) Name() string { return counterNames[c] }

// Phase identifies one slice of the per-superstep phase taxonomy
// (DESIGN.md §8). Compute, RemoteFlush, and BarrierWait are disjoint
// wall-clock intervals of each worker's superstep timeline; BarrierDrain,
// BarrierCommit and Checkpoint are master-side intervals that follow them,
// during which every worker idles (so the per-worker budget charges them
// once per worker); LocalDelivery is accumulated *inside* Compute across
// compute threads (so it can exceed the Compute wall when
// ThreadsPerWorker > 1, and is reported separately rather than summed).
type Phase int

const (
	// PhaseCompute: partition execution, from superstep start until every
	// compute thread has joined. Includes lock waits and local delivery.
	PhaseCompute Phase = iota
	// PhaseLocalDelivery: time inside Compute spent writing local
	// messages into the worker's own store. Both delivery paths — the
	// staged-batch folds and the eager per-message puts — are sampled
	// 1-in-64 and scaled by 64 (engine.localTimingSampleShift), so this
	// phase is an estimate — unlike the message counters, which are exact.
	PhaseLocalDelivery
	// PhaseRemoteFlush: the end-of-superstep buffer flush.
	PhaseRemoteFlush
	// PhaseBarrierWait: time between a worker finishing its superstep and
	// the cluster-wide last finisher — zero for the slowest worker.
	PhaseBarrierWait
	// PhaseCheckpoint: master-side checkpoint writing.
	PhaseCheckpoint
	// PhaseWireEncode: TCP-backend frame encoding (writer goroutines,
	// off the compute path). Zero on the in-process backend.
	PhaseWireEncode
	// PhaseWireDecode: TCP-backend frame decoding (read pumps).
	PhaseWireDecode
	// PhaseWireFlush: TCP-backend socket writes and coalesced flushes.
	PhaseWireFlush
	// PhaseBarrierDrain: the master's wait from the last worker's finish
	// until the transport is idle — messages still on the wire at the
	// barrier. Zero under BAP, which has no barriers.
	PhaseBarrierDrain
	// PhaseBarrierCommit: the master's work after the drain — aggregator
	// merge, store swap and clear, halt count, topology mutations — until
	// the superstep is committed (checkpointing and failure recovery
	// excluded), plus the mean delay from the master's dispatch of a
	// superstep until a worker is running it.
	PhaseBarrierCommit
	numPhases
)

var phaseNames = [numPhases]string{
	"compute_ns",
	"local_delivery_ns",
	"remote_flush_ns",
	"barrier_wait_ns",
	"checkpoint_ns",
	"wire_encode_ns",
	"wire_decode_ns",
	"wire_flush_ns",
	"barrier_drain_ns",
	"barrier_commit_ns",
}

// Name returns the stable JSON key of a phase.
func (p Phase) Name() string { return phaseNames[p] }

// HistID identifies one registry histogram.
type HistID int

const (
	// HistLockWait is the distribution of individual Chandy–Misra Acquire
	// block times (ns). Zero-wait fast-path acquires are recorded as 0.
	HistLockWait HistID = iota
	// HistSuperstepWall is the distribution of global superstep wall times
	// (ns), recorded by the master on the barriered engines.
	HistSuperstepWall
	// HistBatchEntries is the distribution of remote batch sizes in
	// entries — the buffer cache's effectiveness (§6.1).
	HistBatchEntries
	numHists
)

var histNames = [numHists]string{
	"lock_wait_ns",
	"superstep_wall_ns",
	"batch_entries",
}

// Name returns the stable JSON key of a histogram.
func (h HistID) Name() string { return histNames[h] }

// HistBuckets is the fixed bucket count: bucket i holds observations v
// with bits.Len64(v) == i, i.e. power-of-two ranges [2^(i-1), 2^i).
// Bucket 0 holds v == 0; the last bucket holds everything larger.
const HistBuckets = 40

// Histogram is a fixed-layout power-of-two histogram, safe for concurrent
// use and allocation-free to observe.
type Histogram struct {
	buckets [HistBuckets]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64
	max     atomic.Int64
}

// Observe records one non-negative value (negative values clamp to 0).
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	i := bits.Len64(uint64(v))
	if i >= HistBuckets {
		i = HistBuckets - 1
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		m := h.max.Load()
		if v <= m || h.max.CompareAndSwap(m, v) {
			break
		}
	}
}

// HistSnapshot is a plain-value copy of a histogram. Buckets are sparse:
// only non-empty buckets appear, keyed by their upper bound exponent.
type HistSnapshot struct {
	Count int64 `json:"count"`
	Sum   int64 `json:"sum"`
	Max   int64 `json:"max"`
	// Buckets[i] is the count of observations v with bits.Len64(v) == i.
	Buckets map[int]int64 `json:"buckets,omitempty"`
}

func (h *Histogram) snapshot() HistSnapshot {
	s := HistSnapshot{Count: h.count.Load(), Sum: h.sum.Load(), Max: h.max.Load()}
	for i := range h.buckets {
		if n := h.buckets[i].Load(); n > 0 {
			if s.Buckets == nil {
				s.Buckets = make(map[int]int64)
			}
			s.Buckets[i] = n
		}
	}
	return s
}

// Mean returns the mean observed value, or 0 when empty.
func (s HistSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Registry is one run's metric state.
// All methods are safe for concurrent use. The zero value is NOT ready;
// use New.
type Registry struct {
	counters [numCounters]atomic.Int64
	phases   [numPhases]atomic.Int64
	hists    [numHists]Histogram
}

// New returns an empty registry.
func New() *Registry { return &Registry{} }

// Add increments counter c by v.
func (r *Registry) Add(c CounterID, v int64) { r.counters[c].Add(v) }

// Get returns counter c's current value.
func (r *Registry) Get(c CounterID) int64 { return r.counters[c].Load() }

// AddPhase accrues d into phase p's cumulative time.
func (r *Registry) AddPhase(p Phase, d time.Duration) { r.phases[p].Add(int64(d)) }

// Observe records v into histogram h.
func (r *Registry) Observe(h HistID, v int64) { r.hists[h].Observe(v) }

// Snapshot copies the registry into a plain value. Call at a quiescent
// point (a barrier, or after the run) for a consistent cut; individual
// fields are always atomically read.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	for i := range r.counters {
		s.Counters[i] = r.counters[i].Load()
	}
	for i := range r.phases {
		s.PhaseNs[i] = r.phases[i].Load()
	}
	for i := range r.hists {
		s.Hists[i] = r.hists[i].snapshot()
	}
	return s
}

// Snapshot is a plain-value copy of a Registry. It serializes to JSON as
// three name-keyed objects with the stable schema described in the
// package comment; in Go, use Get/Phase/Hist for typed access.
type Snapshot struct {
	Counters [numCounters]int64
	PhaseNs  [numPhases]int64
	Hists    [numHists]HistSnapshot
}

// Get returns counter c's value.
func (s Snapshot) Get(c CounterID) int64 { return s.Counters[c] }

// Phase returns phase p's cumulative duration.
func (s Snapshot) Phase(p Phase) time.Duration { return time.Duration(s.PhaseNs[p]) }

// Hist returns histogram h's snapshot.
func (s Snapshot) Hist(h HistID) HistSnapshot { return s.Hists[h] }

// PhaseTotal returns the sum of all phase accumulators.
func (s Snapshot) PhaseTotal() time.Duration {
	var t int64
	for _, v := range s.PhaseNs {
		t += v
	}
	return time.Duration(t)
}

// jsonSnapshot is the wire form of Snapshot.
type jsonSnapshot struct {
	Counters map[string]int64        `json:"counters"`
	PhaseNs  map[string]int64        `json:"phase_ns"`
	Hists    map[string]HistSnapshot `json:"histograms"`
}

// MarshalJSON renders the snapshot with stable string keys.
func (s Snapshot) MarshalJSON() ([]byte, error) {
	j := jsonSnapshot{
		Counters: make(map[string]int64, len(counterNames)),
		PhaseNs:  make(map[string]int64, len(phaseNames)),
		Hists:    make(map[string]HistSnapshot, len(histNames)),
	}
	for i, name := range counterNames {
		j.Counters[name] = s.Counters[i]
	}
	for i, name := range phaseNames {
		j.PhaseNs[name] = s.PhaseNs[i]
	}
	for i, name := range histNames {
		j.Hists[name] = s.Hists[i]
	}
	return json.Marshal(j)
}

// UnmarshalJSON parses the wire form back. Unknown keys are rejected so a
// schema drift between writer and reader is loud, not silent.
func (s *Snapshot) UnmarshalJSON(data []byte) error {
	var j jsonSnapshot
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	*s = Snapshot{}
	for name, v := range j.Counters {
		i, ok := counterIndex(name)
		if !ok {
			return fmt.Errorf("metrics: unknown counter %q", name)
		}
		s.Counters[i] = v
	}
	for name, v := range j.PhaseNs {
		i, ok := phaseIndex(name)
		if !ok {
			return fmt.Errorf("metrics: unknown phase %q", name)
		}
		s.PhaseNs[i] = v
	}
	for name, v := range j.Hists {
		i, ok := histIndex(name)
		if !ok {
			return fmt.Errorf("metrics: unknown histogram %q", name)
		}
		s.Hists[i] = v
	}
	return nil
}

func counterIndex(name string) (int, bool) {
	for i, n := range counterNames {
		if n == name {
			return i, true
		}
	}
	return 0, false
}

func phaseIndex(name string) (int, bool) {
	for i, n := range phaseNames {
		if n == name {
			return i, true
		}
	}
	return 0, false
}

func histIndex(name string) (int, bool) {
	for i, n := range histNames {
		if n == name {
			return i, true
		}
	}
	return 0, false
}

// CounterIDs returns all counter IDs, for tests that sweep the schema.
func CounterIDs() []CounterID {
	ids := make([]CounterID, numCounters)
	for i := range ids {
		ids[i] = CounterID(i)
	}
	return ids
}

// Phases returns all phase IDs.
func Phases() []Phase {
	ps := make([]Phase, numPhases)
	for i := range ps {
		ps[i] = Phase(i)
	}
	return ps
}

// HistIDs returns all histogram IDs.
func HistIDs() []HistID {
	hs := make([]HistID, numHists)
	for i := range hs {
		hs[i] = HistID(i)
	}
	return hs
}

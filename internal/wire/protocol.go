package wire

// protocol.go encodes the multi-process driver's coordination payloads
// (internal/dist): the handshake, job spec, superstep loop, and final
// value collection. Everything is explicit fixed
// binary — varints and length-prefixed strings, no gob — so the frames
// are deterministic, golden-testable, and safe to parse from untrusted
// bytes (every length is validated before allocation).

import (
	"encoding/binary"
	"fmt"
	"maps"
	"math"
	"slices"

	"serialgraph/internal/cluster"
)

// Hello opens a worker's control connection: protocol version and the
// address the worker accepts its peers' lanes on.
type Hello struct {
	Version int32
	Addr    string
}

// Job is the coordinator's run spec: enough for every worker process to
// deterministically rebuild the same graph and partition map and find
// its peers.
type Job struct {
	Alg            string // "sssp" | "pagerank" | "pagerank-agg" | "coloring" | "wcc"
	GraphPath      string // load a saved graph...
	Family         string // ...or generate one from a family
	N              int32  // generated-graph size
	Undirected     bool   // symmetrize after loading/generating
	Workers        int32  // worker-process count
	PartsPerWorker int32
	MaxSupersteps  int32
	Seed           uint64   // partitioner seed (and generator seed)
	Source         int32    // SSSP source
	Eps            float64  // PageRank tolerance
	You            int32    // the recipient's worker ID
	Peers          []string // data-plane addresses indexed by worker ID
	// MsgMemoryBudget sizes each worker process's credit windows, which
	// bound the message bytes in flight on every lane (0 = the default
	// window).
	MsgMemoryBudget int64
	// Partitioner names the vertex-placement strategy ("" = hash); every
	// worker rebuilds the identical map from it deterministically.
	Partitioner string
	// Mode and Sync are the run's engine.Mode and engine.Sync (graphrun's
	// -model and -technique).
	Mode, Sync uint8
}

// StepStart dispatches one superstep with the previous step's merged
// aggregator values.
type StepStart struct {
	Superstep int32
	Aggs      map[string]float64
}

// StepDone reports one worker's superstep: halting votes, pending
// messages and its local aggregator contributions, with the worker's
// counters so far (cumulative over the run).
type StepDone struct {
	Superstep    int32
	Unhalted     int64
	Pending      int64
	Executions   int64
	SentBatches  int64 // data batches sent to peers (simulated ledger)
	SentBytes    int64 // simulated bytes of those batches
	CtrlMessages int64 // control messages (fork and token batches) sent to peers
	WireBytes    int64 // true encoded bytes written to peer sockets
	Aggs         map[string]float64
}

// Finish ends the run.
type Finish struct {
	Converged  bool
	Supersteps int32
}

// ValueEntry is one (vertex, value) pair of the final result collection.
type ValueEntry[V any] struct {
	ID  int32
	Val V
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func readString(b []byte) (string, []byte, error) {
	size, n := binary.Uvarint(b)
	if n <= 0 {
		return "", nil, ErrTruncated
	}
	b = b[n:]
	if size > uint64(len(b)) {
		return "", nil, ErrTruncated
	}
	return string(b[:size]), b[size:], nil
}

func appendBool(dst []byte, v bool) []byte {
	if v {
		return append(dst, 1)
	}
	return append(dst, 0)
}

func readBool(b []byte) (bool, []byte, error) {
	if len(b) < 1 {
		return false, nil, ErrTruncated
	}
	if b[0] > 1 {
		return false, nil, ErrCorrupt
	}
	return b[0] == 1, b[1:], nil
}

func readZigzag32(b []byte) (int32, []byte, error) {
	v, n := cluster.Zigzag(b)
	if n <= 0 {
		return 0, nil, ErrTruncated
	}
	if v < math.MinInt32 || v > math.MaxInt32 {
		return 0, nil, ErrCorrupt
	}
	return int32(v), b[n:], nil
}

func readZigzag64(b []byte) (int64, []byte, error) {
	v, n := cluster.Zigzag(b)
	if n <= 0 {
		return 0, nil, ErrTruncated
	}
	return v, b[n:], nil
}

func appendFloat(dst []byte, v float64) []byte {
	return binary.BigEndian.AppendUint64(dst, math.Float64bits(v))
}

func readFloat(b []byte) (float64, []byte, error) {
	if len(b) < 8 {
		return 0, nil, ErrTruncated
	}
	return math.Float64frombits(binary.BigEndian.Uint64(b)), b[8:], nil
}

// aggregates are encoded as count, then (key, value) pairs in key order,
// so the encoding is deterministic.
func appendAggs(dst []byte, aggs map[string]float64) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(aggs)))
	for _, k := range slices.Sorted(maps.Keys(aggs)) {
		dst = appendString(dst, k)
		dst = appendFloat(dst, aggs[k])
	}
	return dst
}

func readAggs(b []byte) (aggs map[string]float64, rest []byte, err error) {
	count, n := binary.Uvarint(b)
	if n <= 0 {
		return nil, nil, ErrTruncated
	}
	b = b[n:]
	// Each pair takes at least 9 bytes (empty key + float64).
	if count > uint64(len(b))/9+1 {
		return nil, nil, fmt.Errorf("%w: aggregate count %d exceeds payload", ErrCorrupt, count)
	}
	aggs = make(map[string]float64, count)
	for i := uint64(0); i < count; i++ {
		var k string
		var v float64
		if k, b, err = readString(b); err != nil {
			return nil, nil, err
		}
		if v, b, err = readFloat(b); err != nil {
			return nil, nil, err
		}
		aggs[k] = v
	}
	return aggs, b, nil
}

// AppendHello encodes h.
func AppendHello(dst []byte, h Hello) []byte {
	dst = cluster.AppendZigzag(dst, int64(h.Version))
	return appendString(dst, h.Addr)
}

// DecodeHello parses a Hello payload.
func DecodeHello(b []byte) (Hello, error) {
	var h Hello
	var err error
	if h.Version, b, err = readZigzag32(b); err != nil {
		return h, err
	}
	if h.Addr, b, err = readString(b); err != nil {
		return h, err
	}
	if len(b) != 0 {
		return h, fmt.Errorf("%w: trailing bytes after hello", ErrCorrupt)
	}
	return h, nil
}

// AppendJob encodes j.
func AppendJob(dst []byte, j Job) []byte {
	dst = appendString(dst, j.Alg)
	dst = appendString(dst, j.GraphPath)
	dst = appendString(dst, j.Family)
	dst = cluster.AppendZigzag(dst, int64(j.N))
	dst = appendBool(dst, j.Undirected)
	dst = cluster.AppendZigzag(dst, int64(j.Workers))
	dst = cluster.AppendZigzag(dst, int64(j.PartsPerWorker))
	dst = cluster.AppendZigzag(dst, int64(j.MaxSupersteps))
	dst = binary.AppendUvarint(dst, j.Seed)
	dst = cluster.AppendZigzag(dst, int64(j.Source))
	dst = appendFloat(dst, j.Eps)
	dst = cluster.AppendZigzag(dst, int64(j.You))
	dst = binary.AppendUvarint(dst, uint64(len(j.Peers)))
	for _, p := range j.Peers {
		dst = appendString(dst, p)
	}
	dst = cluster.AppendZigzag(dst, j.MsgMemoryBudget)
	dst = appendString(dst, j.Partitioner)
	return append(dst, j.Mode, j.Sync)
}

// DecodeJob parses a Job payload.
func DecodeJob(b []byte) (Job, error) {
	var j Job
	var err error
	if j.Alg, b, err = readString(b); err != nil {
		return j, err
	}
	if j.GraphPath, b, err = readString(b); err != nil {
		return j, err
	}
	if j.Family, b, err = readString(b); err != nil {
		return j, err
	}
	if j.N, b, err = readZigzag32(b); err != nil {
		return j, err
	}
	if j.Undirected, b, err = readBool(b); err != nil {
		return j, err
	}
	if j.Workers, b, err = readZigzag32(b); err != nil {
		return j, err
	}
	if j.PartsPerWorker, b, err = readZigzag32(b); err != nil {
		return j, err
	}
	if j.MaxSupersteps, b, err = readZigzag32(b); err != nil {
		return j, err
	}
	seed, n := binary.Uvarint(b)
	if n <= 0 {
		return j, ErrTruncated
	}
	j.Seed = seed
	b = b[n:]
	if j.Source, b, err = readZigzag32(b); err != nil {
		return j, err
	}
	if j.Eps, b, err = readFloat(b); err != nil {
		return j, err
	}
	if j.You, b, err = readZigzag32(b); err != nil {
		return j, err
	}
	count, n := binary.Uvarint(b)
	if n <= 0 {
		return j, ErrTruncated
	}
	b = b[n:]
	if count > uint64(len(b))+1 {
		return j, fmt.Errorf("%w: peer count %d exceeds payload", ErrCorrupt, count)
	}
	j.Peers = make([]string, 0, count)
	for i := uint64(0); i < count; i++ {
		var p string
		if p, b, err = readString(b); err != nil {
			return j, err
		}
		j.Peers = append(j.Peers, p)
	}
	if j.MsgMemoryBudget, b, err = readZigzag64(b); err != nil {
		return j, err
	}
	if j.Partitioner, b, err = readString(b); err != nil {
		return j, err
	}
	if len(b) < 2 {
		return j, ErrTruncated
	}
	j.Mode, j.Sync, b = b[0], b[1], b[2:]
	if len(b) != 0 {
		return j, fmt.Errorf("%w: trailing bytes after job", ErrCorrupt)
	}
	return j, nil
}

// AppendStepStart encodes s.
func AppendStepStart(dst []byte, s StepStart) []byte {
	dst = cluster.AppendZigzag(dst, int64(s.Superstep))
	return appendAggs(dst, s.Aggs)
}

// DecodeStepStart parses a StepStart payload.
func DecodeStepStart(b []byte) (StepStart, error) {
	var s StepStart
	var err error
	if s.Superstep, b, err = readZigzag32(b); err != nil {
		return s, err
	}
	if s.Aggs, b, err = readAggs(b); err != nil {
		return s, err
	}
	if len(b) != 0 {
		return s, fmt.Errorf("%w: trailing bytes after step-start", ErrCorrupt)
	}
	return s, nil
}

// AppendStepDone encodes s.
func AppendStepDone(dst []byte, s StepDone) []byte {
	dst = cluster.AppendZigzag(dst, int64(s.Superstep))
	dst = cluster.AppendZigzag(dst, s.Unhalted)
	dst = cluster.AppendZigzag(dst, s.Pending)
	dst = cluster.AppendZigzag(dst, s.Executions)
	dst = cluster.AppendZigzag(dst, s.SentBatches)
	dst = cluster.AppendZigzag(dst, s.SentBytes)
	dst = cluster.AppendZigzag(dst, s.CtrlMessages)
	dst = cluster.AppendZigzag(dst, s.WireBytes)
	return appendAggs(dst, s.Aggs)
}

// DecodeStepDone parses a StepDone payload.
func DecodeStepDone(b []byte) (StepDone, error) {
	var s StepDone
	var err error
	if s.Superstep, b, err = readZigzag32(b); err != nil {
		return s, err
	}
	if s.Unhalted, b, err = readZigzag64(b); err != nil {
		return s, err
	}
	if s.Pending, b, err = readZigzag64(b); err != nil {
		return s, err
	}
	if s.Executions, b, err = readZigzag64(b); err != nil {
		return s, err
	}
	if s.SentBatches, b, err = readZigzag64(b); err != nil {
		return s, err
	}
	if s.SentBytes, b, err = readZigzag64(b); err != nil {
		return s, err
	}
	if s.CtrlMessages, b, err = readZigzag64(b); err != nil {
		return s, err
	}
	if s.WireBytes, b, err = readZigzag64(b); err != nil {
		return s, err
	}
	if s.Aggs, b, err = readAggs(b); err != nil {
		return s, err
	}
	if len(b) != 0 {
		return s, fmt.Errorf("%w: trailing bytes after step-done", ErrCorrupt)
	}
	return s, nil
}

// AppendFinish encodes f.
func AppendFinish(dst []byte, f Finish) []byte {
	dst = appendBool(dst, f.Converged)
	return cluster.AppendZigzag(dst, int64(f.Supersteps))
}

// DecodeFinish parses a Finish payload.
func DecodeFinish(b []byte) (Finish, error) {
	var f Finish
	var err error
	if f.Converged, b, err = readBool(b); err != nil {
		return f, err
	}
	if f.Supersteps, b, err = readZigzag32(b); err != nil {
		return f, err
	}
	if len(b) != 0 {
		return f, fmt.Errorf("%w: trailing bytes after finish", ErrCorrupt)
	}
	return f, nil
}

// AppendValues encodes final (vertex, value) pairs: count, then
// zigzag-delta IDs with codec-encoded values.
func AppendValues[V any](dst []byte, c MsgCodec[V], vals []ValueEntry[V]) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(vals)))
	prev := int64(0)
	for _, e := range vals {
		dst = cluster.AppendZigzag(dst, int64(e.ID)-prev)
		prev = int64(e.ID)
		dst = c.Append(dst, e.Val)
	}
	return dst
}

// DecodeValues parses a FrameValues payload.
func DecodeValues[V any](c MsgCodec[V], b []byte) ([]ValueEntry[V], error) {
	count, n := binary.Uvarint(b)
	if n <= 0 {
		return nil, ErrTruncated
	}
	b = b[n:]
	if count > uint64(len(b))+1 {
		return nil, fmt.Errorf("%w: value count %d exceeds payload", ErrCorrupt, count)
	}
	vals := make([]ValueEntry[V], 0, count)
	prev := int64(0)
	for i := uint64(0); i < count; i++ {
		delta, n := cluster.Zigzag(b)
		if n <= 0 {
			return nil, ErrTruncated
		}
		b = b[n:]
		id := prev + delta
		if id < math.MinInt32 || id > math.MaxInt32 {
			return nil, ErrCorrupt
		}
		prev = id
		v, n, err := c.Read(b)
		if err != nil {
			return nil, err
		}
		b = b[n:]
		vals = append(vals, ValueEntry[V]{ID: int32(id), Val: v})
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("%w: trailing bytes after values", ErrCorrupt)
	}
	return vals, nil
}

// Package wire implements the payload encodings behind the TCP transport
// backend: a generic, combiner-aware batch codec for vertex messages plus
// fixed encodings for the coordination payloads (Chandy–Misra forks and
// tokens — one per frame or a count-prefixed batch of them — flush markers,
// acks, peer-lane barriers, and the multi-process control
// plane's protocol).
//
// The frame envelope itself (length prefix, type, routing, fault
// metadata) lives in internal/cluster/frame.go; this package only turns
// typed payloads into bytes and back.
//
// Batch encoding ([]msgstore.Entry[M], frame type FrameData):
//
//	uvarint  entry count
//	per entry:
//	  zigzag varint  Dst delta vs previous entry's Dst (batches are
//	                 per-destination-worker, so deltas stay small)
//	  zigzag varint  Src (can be a negative sentinel)
//	  uvarint        Ver
//	  ...            message bytes (MsgCodec)
//
// An entry's in-slot hint (Entry.Slot) does not travel: it is a
// receiving-store hint that no remote sender sets, and a decoded entry
// carries 0, "unknown".
//
// Batches arrive already sender-combined (the Buffer folds messages with
// the program's combiner before emitting), so the codec never re-combines;
// it just keeps the combined form compact with varints.
//
// Message values use a MsgCodec[M]: fixed binary fast paths for the
// numeric types every built-in algorithm uses, and a gob fallback that
// makes any exotic message type (struct messages like KCoreMsg) work
// without registration.
package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"math"
	"sync"

	"serialgraph/internal/chandy"
	"serialgraph/internal/cluster"
	"serialgraph/internal/graph"
	"serialgraph/internal/msgstore"
)

// Decoding errors. Like the frame layer, payload decoders return errors —
// never panic — on malformed input.
var (
	ErrTruncated = errors.New("wire: truncated payload")
	ErrCorrupt   = errors.New("wire: corrupt payload")
)

// MsgCodec serializes one message value. Append appends m's encoding to
// dst; Read parses one value from the front of b and returns the bytes
// consumed.
type MsgCodec[M any] struct {
	Append func(dst []byte, m M) []byte
	Read   func(b []byte) (M, int, error)
}

// AutoMsgCodec picks a codec for M: compact fixed/varint encodings for
// the numeric kinds the built-in algorithms use, gob for everything else.
func AutoMsgCodec[M any]() MsgCodec[M] {
	var zero M
	switch any(zero).(type) {
	case float64:
		return MsgCodec[M]{
			Append: func(dst []byte, m M) []byte {
				return binary.BigEndian.AppendUint64(dst, math.Float64bits(any(m).(float64)))
			},
			Read: func(b []byte) (M, int, error) {
				var m M
				if len(b) < 8 {
					return m, 0, ErrTruncated
				}
				return any(math.Float64frombits(binary.BigEndian.Uint64(b))).(M), 8, nil
			},
		}
	case float32:
		return MsgCodec[M]{
			Append: func(dst []byte, m M) []byte {
				return binary.BigEndian.AppendUint32(dst, math.Float32bits(any(m).(float32)))
			},
			Read: func(b []byte) (M, int, error) {
				var m M
				if len(b) < 4 {
					return m, 0, ErrTruncated
				}
				return any(math.Float32frombits(binary.BigEndian.Uint32(b))).(M), 4, nil
			},
		}
	case int32:
		return signedCodec[M](func(v int64) any { return int32(v) }, math.MinInt32, math.MaxInt32)
	case int64:
		return signedCodec[M](func(v int64) any { return v }, math.MinInt64, math.MaxInt64)
	case int:
		return signedCodec[M](func(v int64) any { return int(v) }, math.MinInt64, math.MaxInt64)
	case uint32:
		return unsignedCodec[M](func(v uint64) any { return uint32(v) }, math.MaxUint32)
	case uint64:
		return unsignedCodec[M](func(v uint64) any { return v }, math.MaxUint64)
	case bool:
		return MsgCodec[M]{
			Append: func(dst []byte, m M) []byte {
				if any(m).(bool) {
					return append(dst, 1)
				}
				return append(dst, 0)
			},
			Read: func(b []byte) (M, int, error) {
				var m M
				if len(b) < 1 {
					return m, 0, ErrTruncated
				}
				if b[0] > 1 {
					return m, 0, ErrCorrupt
				}
				return any(b[0] == 1).(M), 1, nil
			},
		}
	default:
		return gobMsgCodec[M]()
	}
}

func toInt64(m any) int64 {
	switch v := m.(type) {
	case int32:
		return int64(v)
	case int64:
		return v
	case int:
		return int64(v)
	}
	panic("wire: not a signed integer")
}

func toUint64(m any) uint64 {
	switch v := m.(type) {
	case uint32:
		return uint64(v)
	case uint64:
		return v
	}
	panic("wire: not an unsigned integer")
}

func signedCodec[M any](back func(int64) any, min, max int64) MsgCodec[M] {
	return MsgCodec[M]{
		Append: func(dst []byte, m M) []byte {
			return cluster.AppendZigzag(dst, toInt64(any(m)))
		},
		Read: func(b []byte) (M, int, error) {
			var m M
			v, n := cluster.Zigzag(b)
			if n <= 0 {
				return m, 0, ErrTruncated
			}
			if v < min || v > max {
				return m, 0, ErrCorrupt
			}
			return back(v).(M), n, nil
		},
	}
}

func unsignedCodec[M any](back func(uint64) any, max uint64) MsgCodec[M] {
	return MsgCodec[M]{
		Append: func(dst []byte, m M) []byte {
			return binary.AppendUvarint(dst, toUint64(any(m)))
		},
		Read: func(b []byte) (M, int, error) {
			var m M
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return m, 0, ErrTruncated
			}
			if v > max {
				return m, 0, ErrCorrupt
			}
			return back(v).(M), n, nil
		},
	}
}

// gobMsgCodec is the totality fallback: any message type encodes, at the
// cost of a length prefix and gob's framing. Struct message types that
// care about wire size should provide explicit codecs on their Program.
func gobMsgCodec[M any]() MsgCodec[M] {
	return MsgCodec[M]{
		Append: func(dst []byte, m M) []byte {
			var buf bytes.Buffer
			if err := gob.NewEncoder(&buf).Encode(&m); err != nil {
				panic(fmt.Sprintf("wire: gob encode %T: %v", m, err))
			}
			dst = binary.AppendUvarint(dst, uint64(buf.Len()))
			return append(dst, buf.Bytes()...)
		},
		Read: func(b []byte) (M, int, error) {
			var m M
			size, n := binary.Uvarint(b)
			if n <= 0 {
				return m, 0, ErrTruncated
			}
			if size > uint64(len(b)-n) {
				return m, 0, ErrTruncated
			}
			if err := gob.NewDecoder(bytes.NewReader(b[n : n+int(size)])).Decode(&m); err != nil {
				return m, 0, fmt.Errorf("%w: gob: %v", ErrCorrupt, err)
			}
			return m, n + int(size), nil
		},
	}
}

// Codec is the cluster.PayloadCodec for an engine run with message type
// M. It encodes data batches with the message codec and the coordination
// payloads (forks/tokens, flush markers, acks) with fixed layouts.
type Codec[M any] struct {
	msg MsgCodec[M]
	// auto marks the AutoMsgCodec, whose float64 layout (eight big-endian
	// bytes) the batch loops read and write in line, not through msg.
	auto bool
	pool *sync.Pool // see SetPool
}

var _ cluster.PayloadCodec = (*Codec[float64])(nil)

// NewCodec builds a payload codec using AutoMsgCodec for M.
func NewCodec[M any]() *Codec[M] { return &Codec[M]{msg: AutoMsgCodec[M](), auto: true} }

// SetPool attaches a pool of []msgstore.Entry[M] batch slices, each owned
// by one party at a time: EncodePayload puts the sender's slice back once
// encoded (the caller must not touch it again, nor encode it twice) and
// DecodePayload fills a pooled one, which the receiver puts back when it
// has applied it. Call before any traffic flows.
func (c *Codec[M]) SetPool(p *sync.Pool) { c.pool = p }

// NewCodecWith builds a payload codec with an explicit message codec
// (model.Program's serialization contract overrides).
func NewCodecWith[M any](msg MsgCodec[M]) *Codec[M] { return &Codec[M]{msg: msg} }

// EncodePayload implements cluster.PayloadCodec.
func (c *Codec[M]) EncodePayload(payload any, dst []byte) (byte, []byte, error) {
	switch p := payload.(type) {
	case []msgstore.Entry[M]:
		dst = binary.AppendUvarint(dst, uint64(len(p)))
		prev := int64(0)
		for i := range p {
			e := &p[i]
			dst = cluster.AppendZigzag(dst, int64(e.Dst)-prev)
			prev = int64(e.Dst)
			dst = cluster.AppendZigzag(dst, int64(e.Src))
			dst = binary.AppendUvarint(dst, uint64(e.Ver))
			if f, ok := any(&e.Msg).(*float64); ok && c.auto {
				dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(*f))
			} else {
				dst = c.msg.Append(dst, e.Msg)
			}
		}
		if c.pool != nil && cap(p) > 0 {
			c.pool.Put(payload) // the caller's own box: no new allocation
		}
		return cluster.FrameData, dst, nil
	case chandy.Ctrl:
		return cluster.FrameCtrl, appendCtrl(dst, p), nil
	case *[]chandy.Ctrl: // a lock manager's batch, sent by pointer
		return c.EncodePayload(*p, dst)
	case []chandy.Ctrl:
		dst = binary.AppendUvarint(dst, uint64(len(p)))
		for _, c := range p {
			dst = appendCtrl(dst, c)
		}
		return cluster.FrameCtrlBatch, dst, nil
	case cluster.FlushMarker:
		return cluster.FrameFlush, binary.AppendUvarint(dst, p.Seq), nil
	case cluster.AckMsg:
		return cluster.FrameAck, binary.AppendUvarint(dst, p.Seq), nil
	case cluster.BarrierMarker:
		return cluster.FrameBarrier, binary.AppendUvarint(dst, p.Seq), nil
	}
	return 0, nil, fmt.Errorf("wire: no encoding for payload type %T", payload)
}

func appendCtrl(dst []byte, c chandy.Ctrl) []byte {
	dst = append(dst, byte(c.Kind))
	dst = cluster.AppendZigzag(dst, int64(c.From))
	return cluster.AppendZigzag(dst, int64(c.To))
}

// DecodePayload implements cluster.PayloadCodec. All lengths are
// validated before allocation: a corrupt count can never allocate more
// than the payload's own size could justify.
func (c *Codec[M]) DecodePayload(ftype byte, b []byte) (any, error) {
	switch ftype {
	case cluster.FrameData:
		count, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, ErrTruncated
		}
		b = b[n:]
		// Every entry takes at least 3 varint bytes before its message.
		if count > uint64(len(b))/3+1 {
			return nil, fmt.Errorf("%w: entry count %d exceeds payload", ErrCorrupt, count)
		}
		var batch []msgstore.Entry[M]
		if c.pool != nil {
			batch, _ = c.pool.Get().([]msgstore.Entry[M])
		}
		if uint64(cap(batch)) < count {
			batch = make([]msgstore.Entry[M], count)
		}
		batch = batch[:count]
		prev := int64(0)
		for i := range batch {
			e := &batch[i]
			delta, n := cluster.Zigzag(b)
			if n <= 0 {
				return nil, ErrTruncated
			}
			b = b[n:]
			dst := prev + delta
			// A vertex, or msgstore.FanOut.
			if dst < int64(msgstore.FanOut) || dst > math.MaxInt32 {
				return nil, ErrCorrupt
			}
			prev = dst
			e.Dst = graph.VertexID(dst)
			src, n := cluster.Zigzag(b)
			if n <= 0 {
				return nil, ErrTruncated
			}
			b = b[n:]
			if src < math.MinInt32 || src > math.MaxInt32 {
				return nil, ErrCorrupt
			}
			e.Src = graph.VertexID(src)
			ver, n := cluster.Uvarint(b)
			if n <= 0 || ver > math.MaxUint32 {
				return nil, ErrCorrupt
			}
			b = b[n:]
			e.Ver = uint32(ver)
			e.Slot = 0 // a pooled batch may hold a local hint
			if f, ok := any(&e.Msg).(*float64); ok && c.auto {
				if len(b) < 8 {
					return nil, ErrTruncated
				}
				*f = math.Float64frombits(binary.BigEndian.Uint64(b))
				b = b[8:]
				continue
			}
			msg, n, err := c.msg.Read(b)
			if err != nil {
				return nil, err
			}
			b = b[n:]
			e.Msg = msg
		}
		if len(b) != 0 {
			return nil, fmt.Errorf("%w: %d trailing bytes after batch", ErrCorrupt, len(b))
		}
		return batch, nil
	case cluster.FrameCtrl, cluster.FrameCtrlBatch:
		count := uint64(1) // a bare Ctrl is a batch of one without the count
		if ftype == cluster.FrameCtrlBatch {
			var n int
			if count, n = binary.Uvarint(b); n <= 0 {
				return nil, ErrTruncated
			}
			b = b[n:]
		}
		if count > uint64(len(b))/3 { // an entry takes at least 3 bytes
			return nil, fmt.Errorf("%w: ctrl count %d exceeds payload", ErrCorrupt, count)
		}
		batch := make([]chandy.Ctrl, count)
		for i := range batch {
			if len(b) < 1 {
				return nil, ErrTruncated
			}
			if b[0] != byte(chandy.TokenMsg) && b[0] != byte(chandy.ForkMsg) {
				return nil, fmt.Errorf("%w: bad ctrl kind %d", ErrCorrupt, b[0])
			}
			from, n := cluster.Zigzag(b[1:])
			if n <= 0 {
				return nil, ErrTruncated
			}
			to, k := cluster.Zigzag(b[1+n:])
			if k <= 0 {
				return nil, ErrTruncated
			}
			if from < math.MinInt32 || from > math.MaxInt32 || to < math.MinInt32 || to > math.MaxInt32 {
				return nil, ErrCorrupt
			}
			batch[i] = chandy.Ctrl{Kind: chandy.CtrlKind(b[0]), From: chandy.PhilID(from), To: chandy.PhilID(to)}
			b = b[1+n+k:]
		}
		if len(b) != 0 {
			return nil, fmt.Errorf("%w: trailing bytes after ctrl", ErrCorrupt)
		}
		if ftype == cluster.FrameCtrl {
			return batch[0], nil
		}
		return batch, nil
	case cluster.FrameFlush:
		seq, n := binary.Uvarint(b)
		if n <= 0 || n != len(b) {
			return nil, ErrCorrupt
		}
		return cluster.FlushMarker{Seq: seq}, nil
	case cluster.FrameAck:
		seq, n := binary.Uvarint(b)
		if n <= 0 || n != len(b) {
			return nil, ErrCorrupt
		}
		return cluster.AckMsg{Seq: seq}, nil
	case cluster.FrameBarrier:
		seq, n := binary.Uvarint(b)
		if n <= 0 || n != len(b) {
			return nil, ErrCorrupt
		}
		return cluster.BarrierMarker{Seq: seq}, nil
	}
	return nil, fmt.Errorf("%w: unknown frame type 0x%02x", ErrCorrupt, ftype)
}

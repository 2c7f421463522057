package cluster

// frame.go defines the length-prefixed binary frame that every TCP-backed
// message travels in. The layout is deliberately payload-agnostic: this
// file knows how to move a typed envelope (who, what kind, simulated
// size, fault metadata) plus opaque payload bytes; encoding the payload
// itself is the PayloadCodec's job (implemented generically over the
// message type in internal/wire).
//
// Wire layout (all multi-byte integers big-endian or unsigned varints):
//
//	u32  body length (bytes after this field; <= MaxFrameBytes)
//	u8   frame type (Frame* constants)
//	u8   flags (FlagWireLost)
//	zigzag varint  from  (worker ID; -1 = coordinator in dist mode)
//	zigzag varint  to
//	uvarint        declared bytes (the simulated Message.Bytes ledger)
//	uvarint        straggler delay in nanoseconds (injected Fate.Delay)
//	...  payload bytes (frame-type specific)
//
// Versioning: ProtocolVersion is carried in the Hello frame that opens
// every connection (both the TCP backend's lane preamble and the
// multi-process control plane's handshake); peers with a different
// version refuse the connection rather than misparse frames.

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"time"
)

// ProtocolVersion is the wire protocol generation. Bump it whenever the
// frame layout or any payload encoding changes incompatibly — including a
// change of what a value means: since version 5 a data entry's Dst of -1
// is a fan-out entry, which an older peer would index as a vertex; version 6
// dropped the Credit frame and the job's message budget.
const ProtocolVersion = 6

// MaxFrameBytes caps the declared body length of a single frame. A peer
// (or fuzzer) claiming a larger frame is rejected before any allocation,
// so corrupt length prefixes can never balloon memory.
const MaxFrameBytes = 16 << 20

// Frame types. The low range carries engine traffic (one frame per
// cluster.Message); the 0x1x range carries multi-process mode's lane
// barrier and its coordinator's control plane.
const (
	// FrameData is a batch of vertex messages ([]msgstore.Entry[M]).
	FrameData byte = 0x01
	// FrameCtrl is a Chandy–Misra fork/token control message.
	FrameCtrl byte = 0x02
	// FrameFlush is a FlushMarker.
	FrameFlush byte = 0x03
	// FrameAck is an AckMsg.
	FrameAck byte = 0x04
	// 0x05 was the Credit frame of the retired credit windows (protocol
	// version 5 and earlier). It is never to be reused: a decoder refuses
	// it as an unknown frame type.

	// FrameCtrlBatch is a count-prefixed []chandy.Ctrl: everything one lock
	// manager operation owes one worker.
	FrameCtrlBatch byte = 0x06

	// FrameHello opens every connection: protocol version + sender
	// identity (and, for the multi-process driver, a listen address).
	FrameHello byte = 0x10
	// FrameJob carries the coordinator's job spec to a worker process.
	FrameJob byte = 0x11
	// FrameStepStart tells workers to execute one superstep.
	FrameStepStart byte = 0x12
	// FrameStepDone reports a worker's superstep results to the master.
	FrameStepDone byte = 0x13
	// FrameBarrier ends a superstep on one lane of a peer transport: by
	// FIFO order it proves every earlier frame on the lane has been
	// applied. The receiving pump consumes it; no handler sees it.
	FrameBarrier byte = 0x14
	// FrameValues carries final (vertex, value) pairs back to the master.
	FrameValues byte = 0x15
	// FrameFinish ends the run (converged flag + superstep count).
	FrameFinish byte = 0x16
)

// Frame flags.
const (
	// FlagWireLost marks a frame the fault injector decided to lose on
	// the wire (Fate.DropDelivery): it crosses the socket so the sender's
	// ledger counts it, then the receiver discards it and counts a drop —
	// exactly mirroring the Mem backend's wire-loss accounting.
	FlagWireLost byte = 1 << 0
)

// KindOfFrame maps an engine-traffic frame type to its accounting Kind.
func KindOfFrame(ftype byte) Kind {
	switch ftype {
	case FrameData:
		return Data
	case FrameAck:
		return Ack
	default:
		return Control
	}
}

// Frame is the decoded envelope of one wire frame.
type Frame struct {
	Type     byte
	Flags    byte
	From, To WorkerID
	// Declared is the simulated byte size from Message.Bytes, carried so
	// both ends agree on the ledger the conservation checks reconcile.
	Declared int
	// Delay is straggler latency injected by a fault hook, applied by the
	// receiver's read pump (head-of-line, like a Mem lane).
	Delay   time.Duration
	Payload []byte
}

// Frame decoding errors. Decoders must return these (wrapped is fine) and
// never panic: FuzzFrameDecode feeds arbitrary bytes through this path.
var (
	ErrFrameTooLarge  = errors.New("cluster: frame exceeds MaxFrameBytes")
	ErrFrameTruncated = errors.New("cluster: truncated frame")
	ErrFrameCorrupt   = errors.New("cluster: corrupt frame")
)

// PayloadCodec encodes and decodes frame payloads. The engine supplies a
// codec specialized to its message type (wire.NewCodec[M]); the transport
// itself never inspects payloads. dst and data are buffers the transport
// reuses (a writer's scratch, a pump's frame body): a codec keeps neither.
type PayloadCodec interface {
	// EncodePayload appends payload's encoding to dst and returns the
	// frame type byte and the extended buffer. It fails on payload types
	// the codec does not know. Each queued copy is encoded once and then
	// forgotten: where nothing duplicates a send, a codec may recycle it.
	EncodePayload(payload any, dst []byte) (ftype byte, out []byte, err error)
	// DecodePayload parses the payload bytes of a frame of type ftype
	// into a value sharing no memory with data. It must validate lengths
	// before allocating and return an error, never panic, on bad input.
	DecodePayload(ftype byte, data []byte) (payload any, err error)
}

// AppendZigzag appends v in zigzag varint encoding (small magnitudes of
// either sign stay small on the wire).
func AppendZigzag(dst []byte, v int64) []byte {
	return binary.AppendUvarint(dst, uint64(v<<1)^uint64(v>>63))
}

// Uvarint is binary.Uvarint without the general loop for encodings of up
// to three bytes, which covers vertex IDs below 2^20 and every Ver and Slot.
func Uvarint(b []byte) (uint64, int) {
	if len(b) >= 3 {
		x, y, z := uint64(b[0]), uint64(b[1]), uint64(b[2])
		switch {
		case x < 0x80:
			return x, 1
		case y < 0x80:
			return x&0x7f | y<<7, 2
		case z < 0x80:
			return x&0x7f | (y&0x7f)<<7 | z<<14, 3
		}
	}
	return binary.Uvarint(b)
}

// Zigzag decodes a zigzag varint from b, returning the value and bytes
// consumed (n <= 0 means truncated/corrupt, as in binary.Uvarint).
func Zigzag(b []byte) (int64, int) {
	u, n := Uvarint(b)
	return int64(u>>1) ^ -int64(u&1), n
}

// AppendFrame appends f's wire encoding to dst.
func AppendFrame(dst []byte, f *Frame) []byte {
	lenAt := len(dst)
	dst = append(dst, 0, 0, 0, 0) // length back-patched below
	dst = append(dst, f.Type, f.Flags)
	dst = AppendZigzag(dst, int64(f.From))
	dst = AppendZigzag(dst, int64(f.To))
	dst = binary.AppendUvarint(dst, uint64(f.Declared))
	dst = binary.AppendUvarint(dst, uint64(f.Delay))
	dst = append(dst, f.Payload...)
	body := len(dst) - lenAt - 4
	if body > MaxFrameBytes {
		panic(fmt.Sprintf("cluster: encoded frame body %d exceeds MaxFrameBytes", body))
	}
	binary.BigEndian.PutUint32(dst[lenAt:], uint32(body))
	return dst
}

// decodeBody parses a frame body (everything after the length prefix).
// The returned Frame's Payload aliases b.
func decodeBody(b []byte) (Frame, error) {
	var f Frame
	if len(b) < 2 {
		return f, ErrFrameTruncated
	}
	f.Type, f.Flags = b[0], b[1]
	b = b[2:]
	from, n := Zigzag(b)
	if n <= 0 {
		return f, ErrFrameCorrupt
	}
	b = b[n:]
	to, n := Zigzag(b)
	if n <= 0 {
		return f, ErrFrameCorrupt
	}
	b = b[n:]
	declared, n := binary.Uvarint(b)
	if n <= 0 || declared > math.MaxInt32 {
		return f, ErrFrameCorrupt
	}
	b = b[n:]
	delay, n := binary.Uvarint(b)
	if n <= 0 || delay > uint64(math.MaxInt64) {
		return f, ErrFrameCorrupt
	}
	b = b[n:]
	if from < math.MinInt32 || from > math.MaxInt32 || to < math.MinInt32 || to > math.MaxInt32 {
		return f, ErrFrameCorrupt
	}
	f.From, f.To = WorkerID(from), WorkerID(to)
	f.Declared = int(declared)
	f.Delay = time.Duration(delay)
	f.Payload = b
	return f, nil
}

// DecodeFrame parses one complete frame from the front of b, returning
// the frame and the total bytes consumed. The returned Payload aliases b.
// It validates the length prefix against both MaxFrameBytes and len(b)
// before touching the body, so it never over-reads or over-allocates.
func DecodeFrame(b []byte) (Frame, int, error) {
	if len(b) < 4 {
		return Frame{}, 0, ErrFrameTruncated
	}
	body := binary.BigEndian.Uint32(b)
	if body > MaxFrameBytes {
		return Frame{}, 0, ErrFrameTooLarge
	}
	if uint32(len(b)-4) < body {
		return Frame{}, 0, ErrFrameTruncated
	}
	f, err := decodeBody(b[4 : 4+body])
	if err != nil {
		return Frame{}, 0, err
	}
	return f, 4 + int(body), nil
}

// FrameReader reads frames off one connection into a body buffer it owns
// and reuses: a returned Frame's Payload aliases that buffer and is valid
// only until the next Read, so callers decode a payload before reading on.
type FrameReader struct {
	r   *bufio.Reader
	hdr [4]byte
	buf []byte
}

// NewFrameReader wraps r in a buffered frame reader.
func NewFrameReader(r io.Reader) *FrameReader {
	return &FrameReader{r: bufio.NewReaderSize(r, 64<<10)}
}

// Read reads one frame, returning it and the wire bytes consumed (length
// prefix included). The length prefix is validated against MaxFrameBytes
// before the body buffer grows. io.EOF is returned untouched on a clean
// connection close (no bytes read).
func (fr *FrameReader) Read() (Frame, int, error) {
	if _, err := io.ReadFull(fr.r, fr.hdr[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			return Frame{}, 0, ErrFrameTruncated
		}
		return Frame{}, 0, err
	}
	body := binary.BigEndian.Uint32(fr.hdr[:])
	if body > MaxFrameBytes {
		return Frame{}, 0, ErrFrameTooLarge
	}
	if uint32(cap(fr.buf)) < body {
		fr.buf = make([]byte, body)
	}
	buf := fr.buf[:body]
	if _, err := io.ReadFull(fr.r, buf); err != nil {
		return Frame{}, 0, ErrFrameTruncated
	}
	f, err := decodeBody(buf)
	if err != nil {
		return Frame{}, 0, err
	}
	return f, 4 + int(body), nil
}

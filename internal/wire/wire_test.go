package wire

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"serialgraph/internal/cluster"
	"serialgraph/internal/msgstore"
)

func roundTripMsg[M any](t *testing.T, c MsgCodec[M], vals []M) {
	t.Helper()
	var buf []byte
	for _, v := range vals {
		buf = c.Append(buf, v)
	}
	for _, want := range vals {
		got, n, err := c.Read(buf)
		if err != nil {
			t.Fatalf("read %v: %v", want, err)
		}
		if n <= 0 || n > len(buf) {
			t.Fatalf("read consumed %d of %d bytes", n, len(buf))
		}
		buf = buf[n:]
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	if len(buf) != 0 {
		t.Fatalf("%d bytes left over", len(buf))
	}
}

func TestAutoMsgCodecRoundTrips(t *testing.T) {
	roundTripMsg(t, AutoMsgCodec[float64](),
		[]float64{0, 1.5, -2.25, math.Inf(1), math.MaxFloat64, math.SmallestNonzeroFloat64})
	roundTripMsg(t, AutoMsgCodec[float32](), []float32{0, 0.5, -7, math.MaxFloat32})
	roundTripMsg(t, AutoMsgCodec[int32](), []int32{0, 1, -1, math.MinInt32, math.MaxInt32})
	roundTripMsg(t, AutoMsgCodec[int64](), []int64{0, -5, math.MinInt64, math.MaxInt64})
	roundTripMsg(t, AutoMsgCodec[int](), []int{0, 42, -42, math.MinInt, math.MaxInt})
	roundTripMsg(t, AutoMsgCodec[uint32](), []uint32{0, 7, math.MaxUint32})
	roundTripMsg(t, AutoMsgCodec[uint64](), []uint64{0, 9, math.MaxUint64})
	roundTripMsg(t, AutoMsgCodec[bool](), []bool{true, false, true})
	// NaN: bit pattern must survive even though NaN != NaN.
	c := AutoMsgCodec[float64]()
	got, _, err := c.Read(c.Append(nil, math.NaN()))
	if err != nil || !math.IsNaN(got) {
		t.Fatalf("NaN round trip: got %v, err %v", got, err)
	}
}

func TestAutoMsgCodecGobFallback(t *testing.T) {
	type kcoreMsg struct {
		Src  int32
		Core int32
	}
	roundTripMsg(t, AutoMsgCodec[kcoreMsg](),
		[]kcoreMsg{{1, 2}, {0, 0}, {-3, 99}})
	// Truncated gob payload errors instead of reading past the buffer.
	c := AutoMsgCodec[kcoreMsg]()
	buf := c.Append(nil, kcoreMsg{1, 2})
	if _, _, err := c.Read(buf[:len(buf)-1]); err == nil {
		t.Fatal("truncated gob read succeeded")
	}
}

func TestMsgCodecErrorPaths(t *testing.T) {
	if _, _, err := AutoMsgCodec[bool]().Read([]byte{2}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bool byte 2: err = %v, want ErrCorrupt", err)
	}
	if _, _, err := AutoMsgCodec[float64]().Read([]byte{1, 2, 3}); !errors.Is(err, ErrTruncated) {
		t.Fatalf("short float64: err = %v, want ErrTruncated", err)
	}
	// An int64 zigzag value outside int32 range must not wrap into an int32.
	big := cluster.AppendZigzag(nil, math.MaxInt32+1)
	if _, _, err := AutoMsgCodec[int32]().Read(big); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("overflowing int32: err = %v, want ErrCorrupt", err)
	}
	huge := make([]byte, 11)
	for i := range huge {
		huge[i] = 0xff
	}
	if _, _, err := AutoMsgCodec[uint32]().Read(huge); err == nil {
		t.Fatal("overlong uvarint read succeeded")
	}
}

// TestProgramMsgCodecContract exercises NewCodecWith: a program-supplied
// serialization contract (model.Program.MsgAppend/MsgRead) replaces the
// automatic codec.
func TestProgramMsgCodecContract(t *testing.T) {
	custom := MsgCodec[float64]{
		// Fixed-point milli encoding: deliberately different from the
		// auto codec so a mix-up would fail the round trip.
		Append: func(dst []byte, m float64) []byte {
			return cluster.AppendZigzag(dst, int64(m*1000))
		},
		Read: func(b []byte) (float64, int, error) {
			v, n := cluster.Zigzag(b)
			if n <= 0 {
				return 0, 0, ErrTruncated
			}
			return float64(v) / 1000, n, nil
		},
	}
	c := NewCodecWith(custom)
	batch := []msgstore.Entry[float64]{{Dst: 1, Src: 0, Msg: 2.5}, {Dst: 2, Src: 1, Msg: -0.125}}
	ftype, buf, err := c.EncodePayload(batch, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ftype != cluster.FrameData {
		t.Fatalf("ftype = %#x, want FrameData", ftype)
	}
	got, err := c.DecodePayload(cluster.FrameData, buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, batch) {
		t.Fatalf("got %#v, want %#v", got, batch)
	}
	// The auto float64 codec must NOT parse the custom encoding cleanly
	// into the same batch (different layout).
	if other, err := NewCodec[float64]().DecodePayload(cluster.FrameData, buf); err == nil &&
		reflect.DeepEqual(other, batch) {
		t.Fatal("auto codec decoded custom layout identically; contract not exercised")
	}
}

func TestDecodePayloadRejectsCorruptBatch(t *testing.T) {
	c := NewCodec[float64]()
	good := []msgstore.Entry[float64]{{Dst: 3, Src: 1, Msg: 1}}
	_, buf, err := c.EncodePayload(good, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Truncations at every prefix length error (never panic, never succeed
	// with a wrong batch).
	for i := 0; i < len(buf); i++ {
		if _, err := c.DecodePayload(cluster.FrameData, buf[:i]); err == nil {
			t.Fatalf("truncation to %d bytes decoded cleanly", i)
		}
	}
	// Trailing garbage is rejected.
	if _, err := c.DecodePayload(cluster.FrameData, append(append([]byte{}, buf...), 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
	// Unknown frame type.
	if _, err := c.DecodePayload(0x7f, buf); err == nil {
		t.Fatal("unknown frame type accepted")
	}
	// Bad ctrl kind.
	bad := append([]byte{9}, cluster.AppendZigzag(cluster.AppendZigzag(nil, 0), 1)...)
	if _, err := c.DecodePayload(cluster.FrameCtrl, bad); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("ctrl kind 9: err = %v, want ErrCorrupt", err)
	}
}

// TestDecodeRejectsDstBelowFanOut: a data entry's Dst is a vertex or
// msgstore.FanOut (-1); anything lower is corrupt, whether it comes as the
// first delta or relative to a fan-out entry before it.
func TestDecodeRejectsDstBelowFanOut(t *testing.T) {
	c := NewCodec[float64]()
	for _, batch := range [][]msgstore.Entry[float64]{
		{{Dst: -2, Src: 1, Msg: 1}},
		{{Dst: msgstore.FanOut, Src: 1, Msg: 1}, {Dst: -7, Src: 1, Msg: 1}},
		{{Dst: 5, Src: 1, Msg: 1}, {Dst: math.MinInt32, Src: 1, Msg: 1}},
	} {
		_, buf, err := c.EncodePayload(batch, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.DecodePayload(cluster.FrameData, buf); !errors.Is(err, ErrCorrupt) {
			t.Errorf("Dst %d: err = %v, want ErrCorrupt", batch[len(batch)-1].Dst, err)
		}
	}
	ok := []msgstore.Entry[float64]{{Dst: msgstore.FanOut, Src: 4, Msg: 2}, {Dst: 0, Src: 4, Msg: 3}}
	_, buf, err := c.EncodePayload(ok, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.DecodePayload(cluster.FrameData, buf)
	if err != nil || !reflect.DeepEqual(got, ok) {
		t.Fatalf("fan-out batch decoded to %v, %v; want %v", got, err, ok)
	}
}

// TestDecodeAllocationGuards feeds payloads whose declared element counts
// wildly exceed the payload size: decoders must reject them up front
// instead of allocating count-sized slices.
func TestDecodeAllocationGuards(t *testing.T) {
	hugeCount := func(n uint64) []byte {
		return appendUvarintForTest(nil, n)
	}
	const huge = 1 << 40
	if _, err := NewCodec[float64]().DecodePayload(cluster.FrameData, hugeCount(huge)); err == nil {
		t.Fatal("huge batch count accepted")
	}
	if _, err := DecodeValues(AutoMsgCodec[float64](), hugeCount(huge)); err == nil {
		t.Fatal("huge value count accepted")
	}
	if _, err := DecodeStepStart(append(cluster.AppendZigzag(nil, 1), hugeCount(huge)...)); err == nil {
		t.Fatal("huge aggregate count accepted")
	}
	job := AppendJob(nil, Job{Alg: "sssp"})
	// Clobber the peer count (second-to-last varint: the trailing byte is
	// the message-memory budget) with a huge one.
	if _, err := DecodeJob(append(job[:len(job)-2], hugeCount(huge)...)); err == nil {
		t.Fatal("huge peer count accepted")
	}
}

func appendUvarintForTest(dst []byte, v uint64) []byte {
	for v >= 0x80 {
		dst = append(dst, byte(v)|0x80)
		v >>= 7
	}
	return append(dst, byte(v))
}

func TestProtocolRoundTrips(t *testing.T) {
	hello := Hello{Version: 1, Addr: "127.0.0.1:9"}
	if got, err := DecodeHello(AppendHello(nil, hello)); err != nil || got != hello {
		t.Fatalf("hello: got %#v, err %v", got, err)
	}
	job := Job{Alg: "coloring", GraphPath: "/tmp/g", N: 7, Undirected: true,
		Workers: 3, PartsPerWorker: 1, MaxSupersteps: 10, Seed: math.MaxUint64,
		Source: -1, Eps: 0.5, You: 2, Peers: []string{"a", "", "c"}, Mode: 1, Sync: 3}
	if got, err := DecodeJob(AppendJob(nil, job)); err != nil || !reflect.DeepEqual(got, job) {
		t.Fatalf("job: got %#v, err %v", got, err)
	}
	ss := StepStart{Superstep: 0, Aggs: map[string]float64{}}
	if got, err := DecodeStepStart(AppendStepStart(nil, ss)); err != nil ||
		got.Superstep != 0 || len(got.Aggs) != 0 {
		t.Fatalf("step start: got %#v, err %v", got, err)
	}
	sd := StepDone{Superstep: 5, Unhalted: -0, Pending: 1 << 40, Executions: 3,
		SentBatches: 2, SentBytes: 99, CtrlMessages: 4, WireBytes: 77,
		Aggs: map[string]float64{"x": math.Inf(-1)}}
	if got, err := DecodeStepDone(AppendStepDone(nil, sd)); err != nil || !reflect.DeepEqual(got, sd) {
		t.Fatalf("step done: got %#v, err %v", got, err)
	}
	if got, err := DecodeFinish(AppendFinish(nil, Finish{Converged: false, Supersteps: 201})); err != nil ||
		got.Converged || got.Supersteps != 201 {
		t.Fatalf("finish: got %#v, err %v", got, err)
	}
	vals := []ValueEntry[int32]{{ID: 5, Val: -2}, {ID: 2, Val: 9}} // out-of-order IDs: deltas go negative
	c := AutoMsgCodec[int32]()
	if got, err := DecodeValues(c, AppendValues(nil, c, vals)); err != nil || !reflect.DeepEqual(got, vals) {
		t.Fatalf("values: got %#v, err %v", got, err)
	}
}

func TestProtocolTruncationsError(t *testing.T) {
	c := AutoMsgCodec[float64]()
	full := map[string][]byte{
		"hello":      AppendHello(nil, Hello{Version: 1, Addr: "x:1"}),
		"job":        AppendJob(nil, Job{Alg: "sssp", Peers: []string{"a"}}),
		"step_start": AppendStepStart(nil, StepStart{Superstep: 1, Aggs: map[string]float64{"k": 2}}),
		"step_done":  AppendStepDone(nil, StepDone{Superstep: 1, Aggs: map[string]float64{"k": 2}}),
		"finish":     AppendFinish(nil, Finish{Converged: true, Supersteps: 3}),
		"values":     AppendValues(nil, c, []ValueEntry[float64]{{ID: 1, Val: 2}}),
	}
	decoders := map[string]func([]byte) error{
		"hello":      func(b []byte) error { _, err := DecodeHello(b); return err },
		"job":        func(b []byte) error { _, err := DecodeJob(b); return err },
		"step_start": func(b []byte) error { _, err := DecodeStepStart(b); return err },
		"step_done":  func(b []byte) error { _, err := DecodeStepDone(b); return err },
		"finish":     func(b []byte) error { _, err := DecodeFinish(b); return err },
		"values":     func(b []byte) error { _, err := DecodeValues(c, b); return err },
	}
	for name, buf := range full {
		dec := decoders[name]
		if err := dec(buf); err != nil {
			t.Fatalf("%s: full payload errored: %v", name, err)
		}
		for i := 0; i < len(buf); i++ {
			if err := dec(buf[:i]); err == nil {
				t.Errorf("%s truncated to %d bytes decoded cleanly", name, i)
			}
		}
		if err := dec(append(append([]byte{}, buf...), 0xee)); err == nil ||
			!strings.Contains(err.Error(), "trailing") {
			t.Errorf("%s with trailing byte: err = %v, want trailing-bytes error", name, err)
		}
	}
}

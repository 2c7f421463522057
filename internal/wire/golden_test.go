package wire

// Golden wire-format tests: one hex fixture per frame type under
// testdata/, regenerated with `go test ./internal/wire/ -run Golden
// -update`. A fixture mismatch means the wire format changed — if that
// was intentional, bump cluster.ProtocolVersion and re-record.
//
// Every case also round-trips: the fixture bytes are decoded back
// through DecodeFrame + the payload decoder and compared structurally,
// so the goldens double as decode tests.

import (
	"bytes"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"serialgraph/internal/chandy"
	"serialgraph/internal/cluster"
	"serialgraph/internal/msgstore"
)

var update = flag.Bool("update", false, "rewrite golden wire fixtures")

// exoticMsg exercises the gob fallback codec (a struct message type with
// no fixed fast path, like the k-core algorithm's KCoreMsg).
type exoticMsg struct {
	ID   int32
	Core float64
}

// goldenCase is one recorded frame: the encoded bytes plus a decode
// closure that parses the fixture's payload and compares it to the
// original value.
type goldenCase struct {
	name   string
	frame  []byte
	verify func(t *testing.T, f cluster.Frame)
}

func encodeFrame(t testing.TB, c cluster.PayloadCodec, payload any, f cluster.Frame) []byte {
	t.Helper()
	ftype, body, err := c.EncodePayload(payload, nil)
	if err != nil {
		t.Fatalf("encode %T: %v", payload, err)
	}
	f.Type, f.Payload = ftype, body
	return cluster.AppendFrame(nil, &f)
}

func rawFrame(ftype byte, from, to cluster.WorkerID, payload []byte) []byte {
	return cluster.AppendFrame(nil, &cluster.Frame{
		Type: ftype, From: from, To: to, Payload: payload,
	})
}

func goldenCases(t testing.TB) []goldenCase {
	t.Helper()
	c64 := NewCodec[float64]()
	c32 := NewCodec[int32]()
	cgob := NewCodec[exoticMsg]()

	batch64 := []msgstore.Entry[float64]{
		{Dst: 10, Src: 3, Msg: 1.5, Ver: 2, Slot: 0},
		{Dst: 12, Src: -1, Msg: 0.25, Ver: 2, Slot: 1},
		{Dst: 11, Src: 7, Msg: -3.75, Ver: 3, Slot: 4},
	}
	// Point and fan-out entries in one batch: a fan-out entry's Dst is
	// msgstore.FanOut, which travels as a zigzag delta like any other.
	batchFan := []msgstore.Entry[float64]{
		{Dst: 10, Src: 3, Msg: 1.5, Ver: 2, Slot: 0},
		{Dst: msgstore.FanOut, Src: 3, Msg: 0.5, Ver: 2, Slot: 0},
		{Dst: msgstore.FanOut, Src: 8, Msg: -2, Ver: 1, Slot: 0},
		{Dst: 4, Src: 8, Msg: 0.125, Ver: 1, Slot: 3},
	}
	batch32 := []msgstore.Entry[int32]{
		{Dst: 100, Src: 99, Msg: -7, Ver: 1, Slot: 0},
		{Dst: 101, Src: 98, Msg: 1 << 20, Ver: 1, Slot: 2},
	}
	batchGob := []msgstore.Entry[exoticMsg]{
		{Dst: 5, Src: 4, Msg: exoticMsg{ID: 9, Core: 2.5}, Ver: 1, Slot: 0},
	}
	fork := chandy.Ctrl{Kind: chandy.ForkMsg, From: 42, To: -7}
	token := chandy.Ctrl{Kind: chandy.TokenMsg, From: 0, To: 1}
	ctrlBatch := []chandy.Ctrl{fork, token, {Kind: chandy.ForkMsg, From: 1 << 20, To: 3}}
	flush := cluster.FlushMarker{Seq: 12345}
	ack := cluster.AckMsg{Seq: 12345}
	barrier := cluster.BarrierMarker{Seq: 3}

	hello := Hello{Version: cluster.ProtocolVersion, Addr: "127.0.0.1:40001"}
	job := Job{
		Alg: "sssp", Family: "powerlaw", N: 80, Undirected: false,
		Workers: 2, PartsPerWorker: 2, MaxSupersteps: 200,
		Seed: 1131, Source: 0, Eps: 0.05, You: 1,
		Peers:       []string{"127.0.0.1:40000", "127.0.0.1:40001"},
		Partitioner: "ldg",
		Mode:        1,
		Sync:        3,
	}
	stepStart := StepStart{Superstep: 3, Aggs: map[string]float64{"pr:delta": 0.125, "pr:sum": 1}}
	stepDone := StepDone{
		Superstep: 3, Unhalted: 17, Pending: 4, Executions: 80,
		SentBatches: 6, SentBytes: 512, CtrlMessages: 9, WireBytes: 301,
		Aggs: map[string]float64{"pr:delta": 0.0625},
	}
	values := []ValueEntry[float64]{{ID: 0, Val: 0}, {ID: 1, Val: 2.5}, {ID: 3, Val: 7}}
	finish := Finish{Converged: true, Supersteps: 12}
	vcodec := AutoMsgCodec[float64]()

	verifyPayload := func(c cluster.PayloadCodec, want any) func(*testing.T, cluster.Frame) {
		return func(t *testing.T, f cluster.Frame) {
			got, err := c.DecodePayload(f.Type, f.Payload)
			if err != nil {
				t.Fatalf("decode payload: %v", err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("round trip: got %#v, want %#v", got, want)
			}
		}
	}

	return []goldenCase{
		{
			name: "data_float64",
			frame: encodeFrame(t, c64, batch64,
				cluster.Frame{From: 0, To: 1, Declared: 56}),
			verify: verifyPayload(c64, batch64),
		},
		{
			name: "data_fanout",
			frame: encodeFrame(t, c64, batchFan,
				cluster.Frame{From: 1, To: 0, Declared: 72}),
			verify: verifyPayload(c64, batchFan),
		},
		{
			name: "data_int32",
			frame: encodeFrame(t, c32, batch32,
				cluster.Frame{From: 2, To: 0, Declared: 48}),
			verify: verifyPayload(c32, batch32),
		},
		{
			name: "data_gob",
			frame: encodeFrame(t, cgob, batchGob,
				cluster.Frame{From: 1, To: 2, Declared: 40}),
			verify: verifyPayload(cgob, batchGob),
		},
		{
			name: "data_flags_delay",
			// Wire-lost flag + injected straggler delay exercise the only
			// two envelope fields the other fixtures leave zero.
			frame: func() []byte {
				ftype, body, err := c64.EncodePayload(batch64[:1], nil)
				if err != nil {
					t.Fatal(err)
				}
				return cluster.AppendFrame(nil, &cluster.Frame{
					Type: ftype, Flags: cluster.FlagWireLost, From: 0, To: 1,
					Declared: 40, Delay: 50 * time.Millisecond, Payload: body,
				})
			}(),
			verify: func(t *testing.T, f cluster.Frame) {
				if f.Flags != cluster.FlagWireLost {
					t.Fatalf("flags = %#x, want FlagWireLost", f.Flags)
				}
				if f.Delay != 50*time.Millisecond {
					t.Fatalf("delay = %v, want 50ms", f.Delay)
				}
				verifyPayload(c64, batch64[:1])(t, f)
			},
		},
		{
			name:   "ctrl_fork",
			frame:  encodeFrame(t, c64, fork, cluster.Frame{From: 1, To: 0, Declared: 64}),
			verify: verifyPayload(c64, fork),
		},
		{
			name:   "ctrl_token",
			frame:  encodeFrame(t, c64, token, cluster.Frame{From: 0, To: 1, Declared: 64}),
			verify: verifyPayload(c64, token),
		},
		{
			// One manager operation's forks and tokens for one worker:
			// declared 64 B for the message + 16 B per further entry.
			name:   "ctrl_batch",
			frame:  encodeFrame(t, c64, ctrlBatch, cluster.Frame{From: 1, To: 0, Declared: 96}),
			verify: verifyPayload(c64, ctrlBatch),
		},
		{
			name:   "flush",
			frame:  encodeFrame(t, c64, flush, cluster.Frame{From: 0, To: 2, Declared: 16}),
			verify: verifyPayload(c64, flush),
		},
		{
			name:   "ack",
			frame:  encodeFrame(t, c64, ack, cluster.Frame{From: 2, To: 0, Declared: 16}),
			verify: verifyPayload(c64, ack),
		},
		{
			name:  "hello",
			frame: rawFrame(cluster.FrameHello, 1, -1, AppendHello(nil, hello)),
			verify: func(t *testing.T, f cluster.Frame) {
				got, err := DecodeHello(f.Payload)
				if err != nil {
					t.Fatal(err)
				}
				if got != hello {
					t.Fatalf("got %#v, want %#v", got, hello)
				}
			},
		},
		{
			name:  "job",
			frame: rawFrame(cluster.FrameJob, -1, 1, AppendJob(nil, job)),
			verify: func(t *testing.T, f cluster.Frame) {
				got, err := DecodeJob(f.Payload)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, job) {
					t.Fatalf("got %#v, want %#v", got, job)
				}
			},
		},
		{
			name:  "step_start",
			frame: rawFrame(cluster.FrameStepStart, -1, 0, AppendStepStart(nil, stepStart)),
			verify: func(t *testing.T, f cluster.Frame) {
				got, err := DecodeStepStart(f.Payload)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, stepStart) {
					t.Fatalf("got %#v, want %#v", got, stepStart)
				}
			},
		},
		{
			name:  "step_done",
			frame: rawFrame(cluster.FrameStepDone, 0, -1, AppendStepDone(nil, stepDone)),
			verify: func(t *testing.T, f cluster.Frame) {
				got, err := DecodeStepDone(f.Payload)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, stepDone) {
					t.Fatalf("got %#v, want %#v", got, stepDone)
				}
			},
		},
		{
			// A peer lane's end-of-superstep marker, consumed by the pump.
			name:   "barrier",
			frame:  encodeFrame(t, c64, barrier, cluster.Frame{From: 0, To: 1}),
			verify: verifyPayload(c64, barrier),
		},
		{
			name:  "values",
			frame: rawFrame(cluster.FrameValues, 1, -1, AppendValues(nil, vcodec, values)),
			verify: func(t *testing.T, f cluster.Frame) {
				got, err := DecodeValues(vcodec, f.Payload)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, values) {
					t.Fatalf("got %#v, want %#v", got, values)
				}
			},
		},
		{
			name:  "finish",
			frame: rawFrame(cluster.FrameFinish, -1, 0, AppendFinish(nil, finish)),
			verify: func(t *testing.T, f cluster.Frame) {
				got, err := DecodeFinish(f.Payload)
				if err != nil {
					t.Fatal(err)
				}
				if got != finish {
					t.Fatalf("got %#v, want %#v", got, finish)
				}
			},
		},
	}
}

// hexDump formats frame bytes as wrapped lowercase hex, one 32-byte row
// per line, so fixture diffs stay readable.
func hexDump(b []byte) string {
	var buf bytes.Buffer
	for len(b) > 0 {
		row := b
		if len(row) > 32 {
			row = row[:32]
		}
		fmt.Fprintln(&buf, hex.EncodeToString(row))
		b = b[len(row):]
	}
	return buf.String()
}

func parseHexDump(t *testing.T, s []byte) []byte {
	t.Helper()
	out := make([]byte, 0, len(s)/2)
	for _, line := range bytes.Fields(s) {
		row, err := hex.DecodeString(string(line))
		if err != nil {
			t.Fatalf("bad fixture hex: %v", err)
		}
		out = append(out, row...)
	}
	return out
}

func TestGoldenFrames(t *testing.T) {
	// Covered types: the test fails if a frame type constant exists with
	// no fixture, so adding a frame type forces recording its layout.
	covered := map[byte]bool{}
	for _, tc := range goldenCases(t) {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join("testdata", tc.name+".hex")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(hexDump(tc.frame)), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to record)", err)
			}
			want := parseHexDump(t, raw)
			if !bytes.Equal(tc.frame, want) {
				t.Fatalf("encoding changed vs %s:\ngot:\n%swant:\n%s\n"+
					"(intentional change? bump cluster.ProtocolVersion and re-run with -update)",
					path, hexDump(tc.frame), hexDump(want))
			}
			f, n, err := cluster.DecodeFrame(want)
			if err != nil {
				t.Fatalf("DecodeFrame: %v", err)
			}
			if n != len(want) {
				t.Fatalf("DecodeFrame consumed %d of %d bytes", n, len(want))
			}
			tc.verify(t, f)
		})
		f, _, err := cluster.DecodeFrame(tc.frame)
		if err == nil {
			covered[f.Type] = true
		}
	}
	for _, ft := range []byte{
		cluster.FrameData, cluster.FrameCtrl, cluster.FrameFlush, cluster.FrameAck,
		cluster.FrameCtrlBatch, cluster.FrameHello, cluster.FrameJob, cluster.FrameStepStart,
		cluster.FrameStepDone, cluster.FrameBarrier, cluster.FrameValues,
		cluster.FrameFinish,
	} {
		if !covered[ft] {
			t.Errorf("frame type 0x%02x has no golden fixture", ft)
		}
	}
}

// TestCtrlBatchPointerFrame: a lock manager hands its batch to the
// transport as a *[]chandy.Ctrl, and the frame it becomes is the
// ctrl_batch fixture, byte for byte.
func TestCtrlBatchPointerFrame(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "ctrl_batch.hex"))
	if err != nil {
		t.Fatal(err)
	}
	batch := []chandy.Ctrl{
		{Kind: chandy.ForkMsg, From: 42, To: -7}, {Kind: chandy.TokenMsg, From: 0, To: 1},
		{Kind: chandy.ForkMsg, From: 1 << 20, To: 3},
	}
	got := encodeFrame(t, NewCodec[float64](), &batch, cluster.Frame{From: 1, To: 0, Declared: 96})
	if want := parseHexDump(t, raw); !bytes.Equal(got, want) {
		t.Fatalf("pointer batch encodes as:\n%swant:\n%s", hexDump(got), hexDump(want))
	}
}

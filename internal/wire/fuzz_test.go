package wire

// FuzzFrameDecode drives arbitrary bytes through the full untrusted-input
// surface: the frame envelope decoder, every payload decoder, and both
// streaming and slice entry points. The invariants:
//
//   - truncated, corrupt, or oversized input returns an error — never a
//     panic and never a runaway allocation (counts are validated against
//     the payload size before any slice is sized);
//   - DecodeFrame and FrameReader agree on whether a byte string is a frame;
//   - anything that decodes cleanly re-encodes and decodes to the same
//     value (no silent acceptance of half-parsed frames).
//
// Run long with `make fuzz-wire` (30s smoke in CI) or
// `go test ./internal/wire/ -fuzz FuzzFrameDecode`.

import (
	"bytes"
	"testing"

	"serialgraph/internal/chandy"
	"serialgraph/internal/cluster"
)

func FuzzFrameDecode(f *testing.F) {
	// Seed with every golden frame (each frame type, both codecs, the
	// flag/delay envelope variant) plus targeted malformations.
	for _, tc := range goldenCases(f) {
		f.Add(tc.frame)
		if len(tc.frame) > 5 {
			f.Add(tc.frame[:len(tc.frame)/2]) // truncated
			mut := append([]byte{}, tc.frame...)
			mut[5] ^= 0xff // corrupt early body byte
			f.Add(mut)
		}
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff}) // length prefix > MaxFrameBytes
	f.Add([]byte{0, 0, 0, 7, cluster.FrameData, 0, 0, 0, 0, 0, 0xff})
	// A control batch whose count outruns its payload, and one whose second
	// entry has a bad kind byte.
	f.Add(rawFrame(cluster.FrameCtrlBatch, 0, 1, []byte{0x7f, 1, 2, 4}))
	f.Add(rawFrame(cluster.FrameCtrlBatch, 0, 1, []byte{2, 1, 2, 4, 9, 2, 4}))

	c64 := NewCodec[float64]()
	c32 := NewCodec[int32]()
	cgob := NewCodec[exoticMsg]()
	vcodec := AutoMsgCodec[float64]()

	f.Fuzz(func(t *testing.T, b []byte) {
		fr, n, err := cluster.DecodeFrame(b)

		// The streaming reader must agree with DecodeFrame on the same bytes.
		sf, sn, serr := cluster.NewFrameReader(bytes.NewReader(b)).Read()
		if (err == nil) != (serr == nil) {
			t.Fatalf("DecodeFrame err %v but FrameReader err %v", err, serr)
		}
		if err != nil {
			return
		}
		if n != sn || sf.Type != fr.Type || sf.From != fr.From || sf.To != fr.To ||
			sf.Flags != fr.Flags || sf.Declared != fr.Declared || sf.Delay != fr.Delay ||
			!bytes.Equal(sf.Payload, fr.Payload) {
			t.Fatalf("DecodeFrame and FrameReader disagree: %+v vs %+v", fr, sf)
		}
		if n < 4 || n > len(b) {
			t.Fatalf("DecodeFrame consumed %d of %d bytes", n, len(b))
		}

		// Payload decoders must never panic, whatever the frame type byte
		// says. A clean decode must survive a re-encode round trip.
		for _, c := range []cluster.PayloadCodec{c64, c32, cgob} {
			payload, err := c.DecodePayload(fr.Type, fr.Payload)
			if err != nil {
				continue
			}
			checkReencode(t, c, fr.Type, payload)
		}
		// The dist protocol decoders take the same untrusted bytes.
		if h, err := DecodeHello(fr.Payload); err == nil {
			reencode(t, "hello", fr.Payload, AppendHello(nil, h))
		}
		if j, err := DecodeJob(fr.Payload); err == nil {
			reencode(t, "job", fr.Payload, AppendJob(nil, j))
		}
		if s, err := DecodeStepStart(fr.Payload); err == nil {
			reencode(t, "step_start", fr.Payload, AppendStepStart(nil, s))
		}
		if s, err := DecodeStepDone(fr.Payload); err == nil {
			reencode(t, "step_done", fr.Payload, AppendStepDone(nil, s))
		}
		if fin, err := DecodeFinish(fr.Payload); err == nil {
			reencode(t, "finish", fr.Payload, AppendFinish(nil, fin))
		}
		if vals, err := DecodeValues(vcodec, fr.Payload); err == nil {
			reencode(t, "values", fr.Payload, AppendValues(nil, vcodec, vals))
		}
	})
}

// FuzzCtrlBatchFrame focuses the fuzzer on the batched fork/token frame:
// every truncation and byte flip of the golden batch, an absurd count, and
// trailing bytes. A clean decode is a []chandy.Ctrl of valid kinds that
// re-encodes to a byte-level fixed point. Run long with `make fuzz-wire`.
func FuzzCtrlBatchFrame(f *testing.F) {
	c64 := NewCodec[float64]()
	batch := []chandy.Ctrl{{Kind: chandy.ForkMsg, From: 42, To: -7}, {Kind: chandy.TokenMsg, From: 1 << 20, To: 3}}
	seed := encodeFrame(f, c64, batch, cluster.Frame{From: 1, To: 0, Declared: 80})
	f.Add(seed)
	for i := 1; i < len(seed); i++ {
		f.Add(seed[:i])
	}
	for i := 4; i < len(seed); i++ {
		mut := append([]byte{}, seed...)
		mut[i] ^= 0xff
		f.Add(mut)
	}
	f.Add(rawFrame(cluster.FrameCtrlBatch, 1, 0, []byte{0xff, 0xff, 0xff, 0xff, 0x0f, 1, 2, 4}))
	f.Add(rawFrame(cluster.FrameCtrlBatch, 1, 0, []byte{1, 0, 2, 4, 0}))

	f.Fuzz(func(t *testing.T, b []byte) {
		fr, _, err := cluster.DecodeFrame(b)
		if err != nil {
			return
		}
		payload, err := c64.DecodePayload(cluster.FrameCtrlBatch, fr.Payload)
		if err != nil {
			return
		}
		for _, c := range payload.([]chandy.Ctrl) {
			if c.Kind != chandy.TokenMsg && c.Kind != chandy.ForkMsg {
				t.Fatalf("ctrl batch decode produced kind %d", c.Kind)
			}
		}
		checkReencode(t, c64, cluster.FrameCtrlBatch, payload)
	})
}

// reencode checks a decoded-then-reencoded payload is at most as long as
// the input it came from (the encoders emit minimal varints, so a decode
// that "accepted" absurd input would show up as growth) and decodes to
// the same bytes' semantics when parsed again.
func reencode(t *testing.T, what string, in, out []byte) {
	t.Helper()
	if len(out) > len(in) {
		t.Fatalf("%s: re-encode grew %d -> %d bytes", what, len(in), len(out))
	}
}

// checkReencode round-trips an engine payload through its codec. The
// fixed point is checked at the byte level (decode → encode → decode →
// encode must produce identical bytes) rather than by value equality,
// which would spuriously reject NaN message payloads (NaN != NaN).
func checkReencode(t *testing.T, c cluster.PayloadCodec, ftype byte, payload any) {
	t.Helper()
	gotType, buf, err := c.EncodePayload(payload, nil)
	if err != nil {
		t.Fatalf("re-encode %T: %v", payload, err)
	}
	if gotType != ftype {
		t.Fatalf("re-encode type %#x, decoded from %#x", gotType, ftype)
	}
	again, err := c.DecodePayload(gotType, buf)
	if err != nil {
		t.Fatalf("re-decode %T: %v", payload, err)
	}
	_, buf2, err := c.EncodePayload(again, nil)
	if err != nil {
		t.Fatalf("re-re-encode %T: %v", again, err)
	}
	if !bytes.Equal(buf, buf2) {
		t.Fatalf("re-encode is not a fixed point:\n %x\n %x", buf, buf2)
	}
}

// TestFuzzSeedsHealthy keeps the fuzz function honest under plain `go
// test`: every seed must run through the fuzz body without failing, so
// CI exercises the invariants even without -fuzz.
func TestFuzzSeedsHealthy(t *testing.T) {
	for _, tc := range goldenCases(t) {
		fr, _, err := cluster.DecodeFrame(tc.frame)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		c64 := NewCodec[float64]()
		if fr.Type == cluster.FrameData || fr.Type == cluster.FrameCtrl ||
			fr.Type == cluster.FrameFlush || fr.Type == cluster.FrameAck ||
			fr.Type == cluster.FrameCtrlBatch ||
			fr.Type == cluster.FrameBarrier {
			// Wrong-codec decodes may error but must not panic.
			_, _ = NewCodec[int32]().DecodePayload(fr.Type, fr.Payload)
			_, _ = c64.DecodePayload(fr.Type, fr.Payload)
		}
	}
	// A ctrl frame decoded by any codec yields the identical chandy.Ctrl
	// (the payload has no message values).
	fork := chandy.Ctrl{Kind: chandy.ForkMsg, From: 3, To: -1}
	_, buf, err := NewCodec[float64]().EncodePayload(fork, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := NewCodec[exoticMsg]().DecodePayload(cluster.FrameCtrl, buf)
	if err != nil || got.(chandy.Ctrl) != fork {
		t.Fatalf("cross-codec ctrl decode: %#v, %v", got, err)
	}
}

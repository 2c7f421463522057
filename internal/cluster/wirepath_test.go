package cluster_test

// Buffer-ownership tests of the TCP data path (DESIGN.md §11): the lane
// writer's frame buffer, the read pump's body buffer and the pooled batch
// slices are all reused, so each test checks that something handed on
// stays intact while the buffers behind it are recycled.

import (
	"bytes"
	"net"
	"reflect"
	"sync"
	"testing"

	"serialgraph/internal/cluster"
	"serialgraph/internal/graph"
	"serialgraph/internal/model"
	"serialgraph/internal/msgstore"
	"serialgraph/internal/wire"
)

// numberedBatch is batch k of a test stream: its length varies with k, so
// successive frames both fit in and outgrow the read buffer, and every
// field is a function of (k, i).
func numberedBatch(k int) []msgstore.Entry[float64] {
	b := make([]msgstore.Entry[float64], 1+(k*37)%200)
	for i := range b {
		b[i] = msgstore.Entry[float64]{
			Dst: graph.VertexID(k*1000 + i), Src: graph.VertexID(k),
			Msg: float64(k) + float64(i)/1024, Ver: uint32(i),
		}
	}
	return b
}

// fateOfSend duplicates every third send and loses every fifth on the wire
// (a lost frame still crosses the socket and is read into the buffer).
func fateOfSend(k int) cluster.Fate {
	f := cluster.Fate{DropDelivery: k%5 == 4}
	if k%3 == 2 {
		f.Duplicates = 1
	}
	return f
}

// countingHook applies fateOfSend to the sends of one goroutine.
type countingHook struct{ sends int }

func (h *countingHook) OnSend(cluster.Message) cluster.Fate {
	h.sends++
	return fateOfSend(h.sends - 1)
}
func (h *countingHook) OnDeliver(cluster.Message) {}

// TestTCPDecodedBatchesSurviveBufferReuse retains every delivered batch
// without copying it and checks them all once the lane has carried every
// frame: a batch decoded from frame k must not change while frames k+1…n —
// duplicates and wire-lost ones included — reuse the pump's read buffer,
// nor, with a pool attached, while the codec recycles the senders' slices.
func TestTCPDecodedBatchesSurviveBufferReuse(t *testing.T) {
	for _, pooled := range []bool{false, true} {
		t.Run(map[bool]string{false: "unpooled", true: "pooled"}[pooled], func(t *testing.T) {
			requireLoopback(t)
			codec := wire.NewCodec[float64]()
			var pool sync.Pool
			if pooled {
				codec.SetPool(&pool)
			}
			tr, err := cluster.NewTCPLoopback(2, cluster.LatencyModel{}, codec)
			if err != nil {
				t.Fatal(err)
			}
			defer tr.Close()
			if !pooled { // a recycling codec may encode a payload only once
				tr.SetFaultHook(&countingHook{})
			}
			var got [][]msgstore.Entry[float64] // lane 0->1 delivers on one goroutine
			tr.RegisterHandler(0, func(cluster.Message) {})
			tr.RegisterHandler(1, func(m cluster.Message) { got = append(got, m.Payload.([]msgstore.Entry[float64])) })

			const frames = 120
			var want [][]msgstore.Entry[float64]
			for k := 0; k < frames; k++ {
				b := numberedBatch(k)
				fate := cluster.Fate{}
				if !pooled {
					fate = fateOfSend(k)
				}
				for c := 0; c <= fate.Duplicates && !fate.DropDelivery; c++ {
					want = append(want, numberedBatch(k))
				}
				tr.Send(cluster.Message{From: 0, To: 1, Kind: cluster.Data, Bytes: 8 * len(b), Payload: b})
			}
			tr.WaitIdle()
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("delivered batches differ from the batches sent (%d delivered, %d expected)", len(got), len(want))
			}
		})
	}
}

// TestFrameReaderReusesBuffer pins the reader's documented contract: a
// payload is valid until the next Read, which reuses its memory.
func TestFrameReaderReusesBuffer(t *testing.T) {
	var stream []byte
	for _, p := range []string{"first payload", "second"} {
		stream = cluster.AppendFrame(stream, &cluster.Frame{Type: cluster.FrameBarrier, Payload: []byte(p)})
	}
	fr := cluster.NewFrameReader(bytes.NewReader(stream))
	first, _, err := fr.Read()
	if err != nil || string(first.Payload) != "first payload" {
		t.Fatalf("first frame: %q, %v", first.Payload, err)
	}
	second, _, err := fr.Read()
	if err != nil || string(second.Payload) != "second" {
		t.Fatalf("second frame: %q, %v", second.Payload, err)
	}
	if &first.Payload[0] != &second.Payload[0] {
		t.Error("the second frame's body was read into a new buffer")
	}
}

// dataPath is a two-worker TCP transport whose worker 1 applies arriving
// batches to an Overwrite store and recycles them, as an engine run does.
type dataPath struct {
	tr       *cluster.TCP
	pool     sync.Pool
	template []msgstore.Entry[float64]
}

func newDataPath(tb testing.TB, entries int) *dataPath {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Skipf("loopback TCP unavailable: %v", err)
	}
	ln.Close()
	const n = 2048 // a star: every vertex's one in-edge comes from vertex 0
	b := graph.NewBuilder(n)
	owned := make([]graph.VertexID, n)
	for v := 1; v < n; v++ {
		b.AddEdge(0, graph.VertexID(v))
		owned[v] = graph.VertexID(v)
	}
	store := msgstore.New[float64](b.Build(), owned, model.Overwrite, nil)
	p := &dataPath{template: make([]msgstore.Entry[float64], entries)}
	for i := range p.template {
		p.template[i] = msgstore.Entry[float64]{Dst: graph.VertexID(1 + (i*7)%(n-1)), Msg: float64(i)}
	}
	codec := wire.NewCodec[float64]()
	codec.SetPool(&p.pool)
	if p.tr, err = cluster.NewTCPLoopback(2, cluster.LatencyModel{}, codec); err != nil {
		tb.Fatal(err)
	}
	p.tr.RegisterHandler(0, func(cluster.Message) {})
	p.tr.RegisterHandler(1, func(m cluster.Message) {
		store.PutBatch(m.Payload.([]msgstore.Entry[float64]))
		p.pool.Put(m.Payload)
	})
	return p
}

// send emits one batch the way the buffer cache does: restarted in a
// recycled slice when the pool has one.
func (p *dataPath) send() {
	batch, _ := p.pool.Get().([]msgstore.Entry[float64])
	if cap(batch) < len(p.template) {
		batch = make([]msgstore.Entry[float64], len(p.template))
	}
	batch = batch[:len(p.template)]
	copy(batch, p.template)
	p.tr.Send(cluster.Message{From: 0, To: 1, Kind: cluster.Data, Bytes: 16 * len(batch), Payload: batch})
}

// TestTCPDataPathAllocations guards the steady state of a 512-entry batch
// from Send to the replica table — encode, frame, socket, read, decode,
// PutBatch, recycle: two objects, the interface boxes the slice travels in
// on either side of the wire. No encode buffer, frame body or batch.
func TestTCPDataPathAllocations(t *testing.T) {
	if cluster.RaceEnabled {
		t.Skip("sync.Pool drops a quarter of its Puts under the race detector")
	}
	p := newDataPath(t, 512)
	defer p.tr.Close()
	trip := func() { p.send(); p.tr.WaitIdle() }
	for i := 0; i < 16; i++ {
		trip() // grow the writer's and the pump's buffers, fill the pool
	}
	if allocs := testing.AllocsPerRun(200, trip); allocs > 2 {
		t.Errorf("a steady-state batch allocates %.0f objects from Send to PutBatch, want <= 2", allocs)
	}
}

// BenchmarkTCPDataRoundTrip times the same path under load: one op is one
// 512-entry float64 batch sent, delivered and applied, in bursts of 64.
func BenchmarkTCPDataRoundTrip(b *testing.B) {
	p := newDataPath(b, 512)
	defer p.tr.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.send()
		if i%64 == 63 {
			p.tr.WaitIdle()
		}
	}
	p.tr.WaitIdle()
}

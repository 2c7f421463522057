package main

import (
	"serialgraph/internal/chandy"
	"serialgraph/internal/cluster"
	"serialgraph/internal/graph"
	"serialgraph/internal/model"
	"serialgraph/internal/msgstore"
	"serialgraph/internal/partition"
	"serialgraph/internal/wire"
)

// microRounds is how many spans each microbenchmark records; the metric is
// the median over them. The smoke test records one.
const microRounds = 5

const batchSize = 512 // the engine's default remote batch, in entries

// sink keeps results alive so the compiler cannot drop the measured calls.
var sink int

// microbench times each layer's public functions from outside, on inputs
// shaped like the workload: its graph, its partition count, its message
// store mode. Every timed loop is one span carrying its operation count;
// perLayer turns the spans into metrics.
func microbench(inst *instance, tr *tracer, rounds int) {
	sp := tr.begin("microbench")
	defer tr.end(sp)
	g := inst.g
	workers := inst.opt.Workers
	parts := workers * max(inst.opt.PartitionsPerWorker, 1)

	var pm *partition.Map
	for i := 0; i < rounds; i++ {
		tr.timed("partition.New", 1, func() {
			var err error
			if pm, err = partition.New("hash", g, parts, workers, inst.opt.Seed); err != nil {
				panic(err) // "hash" is a registered kind
			}
		})
		tr.timed("partition.Report", 1, func() { sink += partition.Report(g, pm).CutEdges })
	}

	// Worker 0's vertices in the engine's order (partition by partition),
	// and the messages the other vertices send them, in sender order with
	// the in-slot hint the engine's senders attach.
	var owned []graph.VertexID
	for _, p := range pm.PartitionsOfWorker(0) {
		owned = append(owned, pm.Vertices(p)...)
	}
	const maxEntries = 1 << 17
	var entries []msgstore.Entry[float64]
	var hits [][2]graph.VertexID
	for v := 0; v < g.NumVertices() && len(entries) < maxEntries; v++ {
		src := graph.VertexID(v)
		for _, dst := range g.OutNeighbors(src) {
			if pm.WorkerOf(dst) != 0 {
				continue
			}
			slot, _ := g.InSlot(dst, src)
			entries = append(entries, msgstore.Entry[float64]{Dst: dst, Src: src, Msg: float64(v), Slot: uint32(slot) + 1})
			hits = append(hits, [2]graph.VertexID{dst, src})
		}
	}
	for len(entries) < batchSize { // smoke-test sizes fall short of one batch: repeat the edges
		entries = append(entries, entries...)
	}
	entries = entries[:len(entries)/batchSize*batchSize]

	for i := 0; i < rounds; i++ {
		const passes = 8
		tr.timed("graph.InSlot", passes*len(hits), func() {
			for p := 0; p < passes; p++ {
				for _, h := range hits {
					slot, _ := g.InSlot(h[0], h[1])
					sink += slot
				}
			}
		})
	}

	add := func(a, b float64) float64 { return a + b }
	scratch := make([]msgstore.Entry[float64], batchSize)
	putBatches := func(name string, s *msgstore.Store[float64]) {
		for i := 0; i < rounds; i++ {
			tr.timed(name, len(entries), func() {
				for off := 0; off < len(entries); off += batchSize {
					copy(scratch, entries[off:off+batchSize]) // PutBatch reorders its argument
					s.PutBatch(scratch)
				}
			})
		}
	}
	combine := msgstore.New(g, owned, model.Combine, add)
	putBatches("msgstore.PutBatch/combine", combine)
	overwrite := msgstore.New[float64](g, owned, model.Overwrite, nil)
	putBatches("msgstore.PutBatch/overwrite", overwrite)

	// Read and Clear on a store of the workload's own mode. Reading
	// consumes in Combine mode, so each round refills outside its span.
	store := overwrite
	if inst.semantics == model.Combine {
		store = combine
	}
	var reader msgstore.Reader[float64]
	for i := 0; i < rounds; i++ {
		for off := 0; off < len(entries); off += batchSize {
			copy(scratch, entries[off:off+batchSize])
			store.PutBatch(scratch)
		}
		tr.timed("msgstore.Read", len(owned), func() {
			for _, v := range owned {
				if store.Read(v, &reader) {
					sink += len(reader.Msgs)
				}
			}
		})
		const clears = 16
		tr.timed("msgstore.Clear", clears*len(owned), func() {
			for c := 0; c < clears; c++ {
				store.Clear()
			}
		})
	}

	buf := msgstore.NewBuffer(workers, batchSize, 8, cluster.BatchHeaderBytes, cluster.EntryHeaderBytes,
		func(_ int, batch []msgstore.Entry[float64], _ int) { sink += len(batch) })
	buf.SetCombiner(add)
	for i := 0; i < rounds; i++ {
		tr.timed("msgstore.Buffer.AddBatch", len(entries), func() {
			for off := 0; off < len(entries); off += batchSize {
				buf.AddBatch((off/batchSize)%workers, entries[off:off+batchSize])
			}
			buf.FlushAll()
		})
	}

	batch := entries[:batchSize]
	codec := wire.NewCodec[float64]()
	var encoded []byte
	var ftype byte
	for i := 0; i < rounds; i++ {
		const passes = 64
		id := tr.begin("wire.EncodePayload")
		for p := 0; p < passes; p++ {
			var err error
			if ftype, encoded, err = codec.EncodePayload(batch, encoded[:0]); err != nil {
				panic(err) // a float64 batch always encodes
			}
		}
		tr.end(id)
		tr.setArg(id, "ops", passes*batchSize)
		tr.setArg(id, "bytes", float64(passes*len(encoded)))
		tr.timed("wire.DecodePayload", passes*batchSize, func() {
			for p := 0; p < passes; p++ {
				if _, err := codec.DecodePayload(ftype, encoded); err != nil {
					panic(err) // the codec's own output always decodes
				}
			}
		})
	}

	lat := cluster.LatencyModel{Propagation: latency}
	mem := cluster.New(2, lat)
	transportMicro(tr, "cluster.Mem", mem, batch, rounds, true)
	mem.Close()
	if tcp, err := cluster.NewTCPLoopback(2, lat, codec); err == nil {
		transportMicro(tr, "cluster.TCP", tcp, batch, rounds, false)
		tcp.Close()
	} else {
		panic(err) // the TCP workload needs loopback sockets anyway
	}

	chandyMicro(tr, rounds)
}

// transportMicro times a two-worker transport: a burst of data batches
// until all are delivered, control-message round trips, and flush-with-ack
// waits. With the 50us simulated latency a round trip cannot take less than
// 100us, so what it takes beyond that is timer overshoot.
func transportMicro(tr *tracer, name string, t cluster.Transport, batch []msgstore.Entry[float64], rounds int, flushWait bool) {
	pong := make(chan struct{}, 1) // one ping in flight at a time
	var eps [2]*cluster.Endpoint
	eps[0] = cluster.NewEndpoint(t, 0, nil, func(cluster.WorkerID, any) { pong <- struct{}{} })
	eps[1] = cluster.NewEndpoint(t, 1, func(cluster.WorkerID, any) {}, func(from cluster.WorkerID, p any) { eps[1].SendCtrl(from, p) })
	bytes := cluster.BatchHeaderBytes + len(batch)*(cluster.EntryHeaderBytes+8)
	ping := chandy.Ctrl{Kind: chandy.TokenMsg, From: 0, To: 1}
	for i := 0; i < rounds; i++ {
		const sends = 256
		tr.timed(name+".SendData", sends, func() {
			for s := 0; s < sends; s++ {
				// The TCP backend hands the slice to a writer goroutine,
				// the in-process one to the receiver: neither changes it.
				eps[0].SendData(1, batch, bytes)
			}
			t.WaitIdle()
		})
		const trips = 64
		tr.timed(name+".SendCtrl/roundtrip", trips, func() {
			for s := 0; s < trips; s++ {
				eps[0].SendCtrl(1, ping)
				<-pong
			}
		})
		if flushWait {
			tr.timed("cluster.Endpoint.FlushWait", trips, func() {
				for s := 0; s < trips; s++ {
					eps[0].FlushWait([]cluster.WorkerID{1})
				}
			})
		}
	}
	t.WaitIdle()
}

// chandyMicro times the lock manager alone: a philosopher with 15 local
// neighbours that nobody competes with, two philosophers on two managers
// that eat in turn (every meal moves the fork and its request token across
// a zero-latency transport), and registration.
func chandyMicro(tr *tracer, rounds int) {
	const neighbours = 15
	local := func(chandy.PhilID) int { return 0 }
	noRemote := func(int, chandy.Ctrl) { panic("chandy micro: single manager sent a remote message") }
	ring := make([]chandy.PhilID, neighbours)
	for i := range ring {
		ring[i] = chandy.PhilID(i + 1)
	}
	const phils = 2000
	table := make([][]chandy.PhilID, phils)
	for p := range table {
		table[p] = make([]chandy.PhilID, neighbours)
		for k := range table[p] {
			table[p][k] = chandy.PhilID((p + k + 1) % phils)
		}
	}
	for i := 0; i < rounds; i++ {
		m := chandy.NewManager(0, local, noRemote, nil)
		m.AddPhil(0, ring)
		for _, q := range ring {
			m.AddPhil(q, []chandy.PhilID{0})
		}
		const meals = 20000
		tr.timed("chandy.Acquire/uncontended", meals, func() {
			for k := 0; k < meals; k++ {
				m.Acquire(0)
				m.Release(0)
			}
		})

		fresh := chandy.NewManager(0, local, noRemote, nil)
		tr.timed("chandy.AddPhil", phils, func() {
			for p, nbs := range table {
				fresh.AddPhil(chandy.PhilID(p), nbs)
			}
		})
	}

	t := cluster.New(2, cluster.LatencyModel{})
	defer t.Close()
	var mgrs [2]*chandy.Manager
	var eps [2]*cluster.Endpoint
	for w := range mgrs {
		mgrs[w] = chandy.NewManager(w, func(p chandy.PhilID) int { return int(p) },
			func(to int, c chandy.Ctrl) { eps[w].SendCtrl(cluster.WorkerID(to), c) }, nil)
		eps[w] = cluster.NewEndpoint(t, cluster.WorkerID(w), nil,
			func(_ cluster.WorkerID, p any) { mgrs[w].HandleCtrl(p.(chandy.Ctrl)) })
	}
	mgrs[0].AddPhil(0, []chandy.PhilID{1})
	mgrs[1].AddPhil(1, []chandy.PhilID{0})
	for i := 0; i < rounds; i++ {
		const meals = 2000
		tr.timed("chandy.Acquire/contended", meals, func() {
			for k := 0; k < meals; k++ {
				w := k % 2
				mgrs[w].Acquire(chandy.PhilID(w))
				mgrs[w].Release(chandy.PhilID(w))
			}
		})
	}
	t.WaitIdle()
}

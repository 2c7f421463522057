package wire

import (
	"math/rand"
	"sync"
	"testing"

	"serialgraph/internal/graph"
	"serialgraph/internal/msgstore"
)

// benchBatch is a 512-entry float64 batch shaped like a PageRank sender's:
// runs of one source fanning out to scattered destinations, small in-slot
// hints, no versions.
func benchBatch() []msgstore.Entry[float64] {
	rng := rand.New(rand.NewSource(1))
	batch := make([]msgstore.Entry[float64], 512)
	src := graph.VertexID(0)
	for i := range batch {
		if i%16 == 0 {
			src = graph.VertexID(rng.Intn(40000))
		}
		batch[i] = msgstore.Entry[float64]{
			Dst: graph.VertexID(rng.Intn(40000)), Src: src,
			Msg: rng.Float64(),
		}
	}
	return batch
}

// BenchmarkBatchCodec measures the data-batch codec alone, one op per
// entry: encoding into a reused buffer, and decoding.
func BenchmarkBatchCodec(b *testing.B) {
	batch := benchBatch()
	c := NewCodec[float64]()
	ftype, enc, err := c.EncodePayload(batch, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		var payload any = batch
		for done := 0; done < b.N; done += len(batch) {
			if _, enc, err = c.EncodePayload(payload, enc[:0]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		var pool sync.Pool // the receiver's recycling, as in an engine run
		d := NewCodec[float64]()
		d.SetPool(&pool)
		for done := 0; done < b.N; done += len(batch) {
			p, err := d.DecodePayload(ftype, enc)
			if err != nil {
				b.Fatal(err)
			}
			pool.Put(p.([]msgstore.Entry[float64])[:0])
		}
	})
}

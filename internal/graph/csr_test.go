package graph

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// csrHash is FNV-64a over every array a Graph holds, in csrArrays order.
func csrHash(g *Graph) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(b[:], x)
		h.Write(b[:])
	}
	put(uint64(g.n))
	for _, a := range [][]int32{g.outOff, g.inOff} {
		put(uint64(len(a)))
		for _, x := range a {
			put(uint64(uint32(x)))
		}
	}
	for _, a := range [][]VertexID{g.outDst, g.inSrc} {
		put(uint64(len(a)))
		for _, x := range a {
			put(uint64(uint32(x)))
		}
	}
	put(uint64(len(g.outW)))
	for _, w := range g.outW {
		put(math.Float64bits(w))
	}
	if g.undirected {
		put(1)
	}
	return h.Sum64()
}

// pinEdges is a reproducible weighted multigraph edge list with
// self-loops, parallel edges with distinct weights, and mutual pairs.
func pinEdges(seed int64, n, m int) []Edge {
	r := rand.New(rand.NewSource(seed))
	edges := make([]Edge, m)
	for i := range edges {
		edges[i] = Edge{VertexID(r.Intn(n)), VertexID(r.Intn(n)), float64(i%7) + 0.5}
	}
	return edges
}

// TestConstructorPins holds every constructor to the arrays it built
// before all of them went through one radix-sorted key path: directed,
// undirected and relabeled builds, weighted and not, from the Builder,
// NewFromEdges, ReadEdgeList and Symmetrize.
func TestConstructorPins(t *testing.T) {
	pins := map[string]uint64{
		"Build seed 1 n 1":                      0x43348a793aebb804,
		"Build seed 1 n 300":                    0x4274925dd7e62ef0,
		"Build seed 1 n 9":                      0x9704f1bd1a90c78a,
		"Build seed 2 n 1":                      0x43348a793aebb804,
		"Build seed 2 n 300":                    0xaae59d226f74fa75,
		"Build seed 2 n 9":                      0xbc89324e08628218,
		"BuildUndirected seed 1 n 1":            0x56ceb147095ea385,
		"BuildUndirected seed 1 n 300":          0x50d86eff68553b9b,
		"BuildUndirected seed 1 n 9":            0x895a71cfd4c8254d,
		"BuildUndirected seed 2 n 1":            0x56ceb147095ea385,
		"BuildUndirected seed 2 n 300":          0x8e7bb23a3aaf5e17,
		"BuildUndirected seed 2 n 9":            0xa57451df1b3c6fcd,
		"NewFromEdges seed 1 n 1":               0x27d82edd2d65079d,
		"NewFromEdges seed 1 n 300":             0x76e308c9b2244805,
		"NewFromEdges seed 1 n 9":               0x7d7552d61525cdef,
		"NewFromEdges seed 2 n 1":               0x27d82edd2d65079d,
		"NewFromEdges seed 2 n 300":             0x913719f9e7a65b3c,
		"NewFromEdges seed 2 n 9":               0x81209bc37b29ca01,
		"ReadEdgeList seed 1 n 1":               0x27d82edd2d65079d,
		"ReadEdgeList seed 1 n 300":             0x279f8277a3057aa1,
		"ReadEdgeList seed 1 n 9":               0x550fe082d0558e8f,
		"ReadEdgeList seed 2 n 1":               0x27d82edd2d65079d,
		"ReadEdgeList seed 2 n 300":             0x58c3b90aa4dcb488,
		"ReadEdgeList seed 2 n 9":               0x270e677e6a0d4d85,
		"Symmetrize read seed 1 n 1":            0x56ceb147095ea385,
		"Symmetrize read seed 1 n 300":          0x980279a3b5a4035f,
		"Symmetrize read seed 1 n 9":            0x6f4bbc5612e5e38d,
		"Symmetrize read seed 2 n 1":            0x56ceb147095ea385,
		"Symmetrize read seed 2 n 300":          0xf2c39b8042b6e877,
		"Symmetrize read seed 2 n 9":            0x7993188b578f0d8d,
		"Symmetrize seed 1 n 1":                 0x56ceb147095ea385,
		"Symmetrize seed 1 n 300":               0x50d86eff68553b9b,
		"Symmetrize seed 1 n 9":                 0x895a71cfd4c8254d,
		"Symmetrize seed 2 n 1":                 0x56ceb147095ea385,
		"Symmetrize seed 2 n 300":               0x8e7bb23a3aaf5e17,
		"Symmetrize seed 2 n 9":                 0xa57451df1b3c6fcd,
		"relabeled seed 1 n 1":                  0x43348a793aebb804,
		"relabeled seed 1 n 300":                0x1fe392692e511d1e,
		"relabeled seed 1 n 9":                  0xa4ffe002f89111f4,
		"relabeled seed 2 n 1":                  0x43348a793aebb804,
		"relabeled seed 2 n 300":                0xa5876035141fbe73,
		"relabeled seed 2 n 9":                  0x147a3c7f5581ac6a,
		"relabeled undirected seed 1 n 1":       0x56ceb147095ea385,
		"relabeled undirected seed 1 n 300":     0xdf47ad9b5f75abb6,
		"relabeled undirected seed 1 n 9":       0xa6c014e3c105611b,
		"relabeled undirected seed 2 n 1":       0x56ceb147095ea385,
		"relabeled undirected seed 2 n 300":     0x4ccc8a797f4e3346,
		"relabeled undirected seed 2 n 9":       0x7c26c9ae4bc4e167,
		"weighted Build seed 1 n 1":             0x27d82edd2d65079d,
		"weighted Build seed 1 n 300":           0x76e308c9b2244805,
		"weighted Build seed 1 n 9":             0x7d7552d61525cdef,
		"weighted Build seed 2 n 1":             0x27d82edd2d65079d,
		"weighted Build seed 2 n 300":           0x913719f9e7a65b3c,
		"weighted Build seed 2 n 9":             0x81209bc37b29ca01,
		"weighted BuildUndirected seed 1 n 1":   0x56ceb147095ea385,
		"weighted BuildUndirected seed 1 n 300": 0x145bdf52f476533a,
		"weighted BuildUndirected seed 1 n 9":   0xb347a23bf4b43f3f,
		"weighted BuildUndirected seed 2 n 1":   0x56ceb147095ea385,
		"weighted BuildUndirected seed 2 n 300": 0xff5f1cd4330ffd62,
		"weighted BuildUndirected seed 2 n 9":   0x9707de59c79e369b,
	}
	for _, seed := range []int64{1, 2} {
		for _, n := range []int{1, 9, 300} {
			edges := pinEdges(seed, n, 4*n+3)
			plain, weighted := NewBuilder(n), NewBuilder(n)
			var text strings.Builder
			for _, e := range edges {
				plain.AddEdge(e.Src, e.Dst)
				weighted.AddWeightedEdge(e.Src, e.Dst, e.Weight)
				fmt.Fprintf(&text, "%d %d %g\n", e.Src+7, e.Dst+7, e.Weight)
			}
			read, _, err := ReadEdgeList(strings.NewReader(text.String()))
			if err != nil {
				t.Fatal(err)
			}
			g := plain.Build()
			uw := weighted.BuildUndirected()
			built := map[string]*Graph{
				"Build":                    g,
				"weighted Build":           weighted.Build(),
				"BuildUndirected":          plain.BuildUndirected(),
				"weighted BuildUndirected": uw,
				"NewFromEdges":             NewFromEdges(n, edges, true),
				"ReadEdgeList":             read,
				"Symmetrize":               Symmetrize(g),
				"Symmetrize read":          Symmetrize(read),
				"relabeled":                DegreeOrder(g).Apply(g),
				"relabeled undirected":     DegreeOrder(uw).Apply(uw),
			}
			for name, g := range built {
				key := fmt.Sprintf("%s seed %d n %d", name, seed, n)
				if want, ok := pins[key]; !ok || csrHash(g) != want {
					t.Errorf("%s: arrays hash %#016x, want %#016x", key, csrHash(g), want)
				}
			}
		}
	}
}

// TestFromKeysMatchesStableSort checks the constructor's out-CSR against
// a stable comparison sort of its keys, with and without weights and
// deduplication, on vertex counts around each radix digit width and with
// lists short enough for insertion and long enough for the radix passes.
func TestFromKeysMatchesStableSort(t *testing.T) {
	r := rand.New(rand.NewSource(36))
	type kw struct {
		k uint64
		w float64
	}
	for _, n := range []int{1, 2, 3, 100, 2047, 2049, 1<<17 + 5} {
		for _, m := range []int{0, 1, 5, insertionMax, insertionMax + 1, 3000} {
			// Few sources, so some lists are long; few destinations on
			// small graphs, so keys repeat.
			srcs := 1 + r.Intn(min(n, 1+m/(insertionMax+1)+3))
			keys := make([]uint64, m)
			w := make([]float64, m)
			ref := make([]kw, m)
			for i := range keys {
				keys[i] = edgeKey(VertexID(r.Intn(srcs)*(n/srcs)), VertexID(r.Intn(n)))
				w[i] = float64(i)
				ref[i] = kw{keys[i], w[i]}
			}
			slices.SortStableFunc(ref, func(a, b kw) int { return cmp.Compare(a.k, b.k) })
			unique := slices.CompactFunc(slices.Clone(ref), func(a, b kw) bool { return a.k == b.k })
			for _, c := range []struct {
				name     string
				w        []float64
				dedup    bool
				keyOrder []kw
			}{
				{"plain", nil, false, ref},
				{"weighted", w, false, ref},
				{"dedup", nil, true, unique},
				{"weighted dedup", w, true, unique},
			} {
				g := fromKeys(int32(n), keys, c.w, c.dedup, false)
				if len(g.outDst) != len(c.keyOrder) || cap(g.outDst) != len(c.keyOrder) {
					t.Fatalf("n %d m %d %s: %d edges in an array of %d, want %d", n, m, c.name, len(g.outDst), cap(g.outDst), len(c.keyOrder))
				}
				i := 0
				for u := VertexID(0); int(u) < n; u++ {
					for j, v := range g.OutNeighbors(u) {
						want := c.keyOrder[i]
						if edgeKey(u, v) != want.k || c.w != nil && g.OutWeights(u)[j] != want.w {
							t.Fatalf("n %d m %d %s: edge %d is %d->%d weight %v, want key %#x weight %v",
								n, m, c.name, i, u, v, g.OutWeights(u), want.k, want.w)
						}
						i++
					}
				}
			}
		}
	}
}

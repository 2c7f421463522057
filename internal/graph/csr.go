package graph

import "math/bits"

// Every constructor packs each edge as the key src<<32|dst, with its
// weight (when there are weights) in a parallel slice, and builds through
// fromKeys, so every graph, whichever tool builds it, gets the same
// arrays from the same edges.

// edgeKey packs the edge src->dst into the key CSR lists are sorted by.
func edgeKey(src, dst VertexID) uint64 { return uint64(uint32(src))<<32 | uint64(uint32(dst)) }

// radixBits caps one radix pass's digit: 2^11 counters stay in L1, and
// the scatter writes at most that many streams at once.
const radixBits = 11

// insertionMax is the longest list fromKeys sorts by insertion.
const insertionMax = 64

// fromKeys is the one CSR constructor: it builds the graph on n vertices
// whose edges are keys, in any order, with weights w parallel to them
// when non-nil; it leaves both slices as they are. A stable counting
// pass on the source half lays the destinations out as the out-lists, in
// key order. That pass is cheap because generators and edge lists mostly
// emit a source's edges together. Each list is then sorted, stably, by
// insertion when it is short and by LSD radix passes over the
// destination bits when it is long, so every list is ascending and
// parallel edges keep the order they were added in, weights alongside.
// With dedup, repeats within a list are dropped, the first copy kept. The
// in-CSR is one transpose of the out-CSR, except that an undirected
// graph's keys hold every edge in both directions, so its in-CSR is its
// out-CSR. Every array is exactly as long as its contents.
func fromKeys(n int32, keys []uint64, w []float64, dedup, undirected bool) *Graph {
	m := len(keys)
	g := &Graph{n: n, outOff: make([]int32, n+1), outDst: make([]VertexID, m), undirected: undirected}
	for _, k := range keys {
		g.outOff[k>>32+1]++
	}
	for u := int32(0); u < n; u++ {
		g.outOff[u+1] += g.outOff[u]
	}
	if w != nil {
		g.outW = make([]float64, m)
	}
	pos := make([]int32, n)
	copy(pos, g.outOff)
	for i, k := range keys {
		p := pos[k>>32]
		pos[k>>32]++
		g.outDst[p] = VertexID(uint32(k))
		if w != nil {
			g.outW[p] = w[i]
		}
	}
	g.sortLists()
	if dedup {
		g.compactLists()
	}
	if undirected {
		g.inOff, g.inSrc = g.outOff, g.outDst
		return g
	}
	g.inOff, g.inSrc = make([]int32, n+1), make([]VertexID, len(g.outDst))
	for _, v := range g.outDst {
		g.inOff[v+1]++
	}
	for u := int32(0); u < n; u++ {
		g.inOff[u+1] += g.inOff[u]
	}
	copy(pos, g.inOff)
	for u := int32(0); u < n; u++ {
		for _, v := range g.outDst[g.outOff[u]:g.outOff[u+1]] {
			g.inSrc[pos[v]] = VertexID(u)
			pos[v]++
		}
	}
	return g
}

// sortLists sorts every out-list ascending, stably, weights alongside.
func (g *Graph) sortLists() {
	b := bits.Len32(uint32(max(g.n-1, 0)))
	var r radixScratch
	for u := int32(0); u < g.n; u++ {
		lo, hi := g.outOff[u], g.outOff[u+1]
		var w []float64
		if g.outW != nil {
			w = g.outW[lo:hi]
		}
		if hi-lo <= insertionMax {
			insertionSort(g.outDst[lo:hi], w)
		} else {
			r.sort(g.outDst[lo:hi], w, b)
		}
	}
}

// insertionSort sorts vs ascending, stably, moving w (when non-nil)
// alongside.
func insertionSort(vs []VertexID, w []float64) {
	for i := 1; i < len(vs); i++ {
		v, j := vs[i], i
		if w == nil {
			for ; j > 0 && vs[j-1] > v; j-- {
				vs[j] = vs[j-1]
			}
			vs[j] = v
			continue
		}
		x := w[i]
		for ; j > 0 && vs[j-1] > v; j-- {
			vs[j], w[j] = vs[j-1], w[j-1]
		}
		vs[j], w[j] = v, x
	}
}

// radixScratch is the buffers radixScratch.sort reuses from call to call.
type radixScratch struct {
	count []int
	vs    []VertexID
	w     []float64
}

// sort sorts vs, which are below 2^b, ascending with a stable LSD radix
// sort, moving w (when non-nil) alongside. A pass whose digit is the same
// for every value moves nothing and is skipped.
func (r *radixScratch) sort(vs []VertexID, w []float64, b int) {
	passes := max((b+radixBits-1)/radixBits, 1)
	width := uint((b + passes - 1) / passes)
	mask := VertexID(1)<<width - 1
	if len(r.count) != int(mask+1) {
		r.count = make([]int, mask+1)
	}
	if len(r.vs) < len(vs) {
		r.vs = make([]VertexID, len(vs))
	}
	if w != nil && len(r.w) < len(w) {
		r.w = make([]float64, len(w))
	}
	src, dst, srcW, dstW := vs, r.vs[:len(vs)], w, r.w
	count := r.count
	for p := range passes {
		s := uint(p) * width
		clear(count)
		for _, v := range src {
			count[v>>s&mask]++
		}
		if count[src[0]>>s&mask] == len(src) {
			continue
		}
		sum := 0
		for d, x := range count {
			count[d], sum = sum, sum+x
		}
		for i, v := range src {
			d := v >> s & mask
			dst[count[d]] = v
			if w != nil {
				dstW[count[d]] = srcW[i]
			}
			count[d]++
		}
		src, dst, srcW, dstW = dst, src, dstW, srcW
	}
	if &src[0] != &vs[0] {
		copy(vs, src)
		copy(w, srcW)
	}
}

// compactLists drops every value equal to the one before it in its
// out-list, keeping the first copy and its weight, and moves what is left
// into arrays of exactly its length.
func (g *Graph) compactLists() {
	k := int32(0)
	for u := int32(0); u < g.n; u++ {
		lo, hi := g.outOff[u], g.outOff[u+1]
		g.outOff[u] = k
		for i := lo; i < hi; i++ {
			if i > lo && g.outDst[i] == g.outDst[k-1] {
				continue
			}
			g.outDst[k] = g.outDst[i]
			if g.outW != nil {
				g.outW[k] = g.outW[i]
			}
			k++
		}
	}
	g.outOff[g.n] = k
	if int(k) == len(g.outDst) {
		return
	}
	dst := make([]VertexID, k)
	copy(dst, g.outDst)
	g.outDst = dst
	if g.outW != nil {
		w := make([]float64, k)
		copy(w, g.outW)
		g.outW = w
	}
}

// FromKeySet builds the directed graph on n vertices whose edges are the
// distinct keys src<<32|dst in keys: copies of a key make one edge. It is
// how the generators, which collect edges as keys and want simple graphs,
// build.
func FromKeySet(n int, keys []uint64) *Graph {
	return fromKeys(int32(n), keys, nil, true, false)
}

package graph

import (
	"bytes"
	"encoding/gob"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func buildTriangle(t *testing.T) *Graph {
	t.Helper()
	b := NewBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 0)
	return b.Build()
}

func TestBuilderBasic(t *testing.T) {
	g := buildTriangle(t)
	if g.NumVertices() != 3 || g.NumEdges() != 3 {
		t.Fatalf("got %d vertices %d edges, want 3/3", g.NumVertices(), g.NumEdges())
	}
	if got := g.OutNeighbors(0); !reflect.DeepEqual(got, []VertexID{1}) {
		t.Errorf("OutNeighbors(0) = %v, want [1]", got)
	}
	if got := g.InNeighbors(0); !reflect.DeepEqual(got, []VertexID{2}) {
		t.Errorf("InNeighbors(0) = %v, want [2]", got)
	}
	if g.OutDegree(1) != 1 || g.InDegree(1) != 1 {
		t.Errorf("degrees of 1 = %d/%d, want 1/1", g.OutDegree(1), g.InDegree(1))
	}
	if g.Undirected() {
		t.Error("directed graph reported undirected")
	}
}

func TestInSlot(t *testing.T) {
	b := NewBuilder(5)
	b.AddEdge(3, 0)
	b.AddEdge(1, 0)
	b.AddEdge(4, 0)
	g := b.Build()
	in := g.InNeighbors(0)
	if !sort.SliceIsSorted(in, func(i, j int) bool { return in[i] < in[j] }) {
		t.Fatalf("in-neighbors not sorted: %v", in)
	}
	for want, src := range in {
		got, ok := g.InSlot(0, src)
		if !ok || got != want {
			t.Errorf("InSlot(0,%d) = %d,%v; want %d,true", src, got, ok, want)
		}
	}
	if _, ok := g.InSlot(0, 2); ok {
		t.Error("InSlot found nonexistent edge 2->0")
	}
	if !g.HasEdge(3, 0) || g.HasEdge(0, 3) {
		t.Error("HasEdge direction wrong")
	}
}

func TestBuildUndirected(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 0) // duplicate pair, must collapse
	b.AddEdge(1, 2)
	b.AddEdge(2, 2) // self-loop, dropped
	g := b.BuildUndirected()
	if !g.Undirected() {
		t.Fatal("not marked undirected")
	}
	if g.NumEdges() != 4 { // {0,1} and {1,2}, both directions
		t.Fatalf("NumEdges = %d, want 4", g.NumEdges())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) || !g.HasEdge(2, 1) {
		t.Error("symmetrization missing edges")
	}
	if g.HasEdge(2, 2) {
		t.Error("self-loop survived symmetrization")
	}
}

func TestNeighborsDedup(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(1, 0) // 1 is both in- and out-neighbor of 0
	b.AddEdge(2, 0)
	g := b.Build()
	var got []VertexID
	g.Neighbors(0, func(v VertexID) { got = append(got, v) })
	if !reflect.DeepEqual(got, []VertexID{1, 2}) {
		t.Errorf("Neighbors(0) = %v, want [1 2]", got)
	}
}

func TestWeights(t *testing.T) {
	b := NewBuilder(2)
	b.AddWeightedEdge(0, 1, 2.5)
	g := b.Build()
	w := g.OutWeights(0)
	if len(w) != 1 || w[0] != 2.5 {
		t.Fatalf("OutWeights(0) = %v, want [2.5]", w)
	}
	b2 := NewBuilder(2)
	b2.AddEdge(0, 1)
	if got := b2.Build().OutWeights(0); got != nil {
		t.Errorf("unweighted graph has weights %v", got)
	}
}

func TestMaxDegreeAndStats(t *testing.T) {
	// Star: center 0 with 4 out-edges plus 1 in-edge.
	b := NewBuilder(6)
	for i := VertexID(1); i <= 4; i++ {
		b.AddEdge(0, i)
	}
	b.AddEdge(5, 0)
	g := b.Build()
	if got := g.MaxDegree(); got != 5 {
		t.Errorf("MaxDegree = %d, want 5", got)
	}
	s := Summarize(g)
	if s.Vertices != 6 || s.Edges != 5 || s.MaxDegree != 5 {
		t.Errorf("Summarize = %+v", s)
	}
	if s.AvgDegree != 5.0/6.0 {
		t.Errorf("AvgDegree = %v", s.AvgDegree)
	}
}

func TestBuilderPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("out-of-range edge did not panic")
		}
	}()
	b := NewBuilder(2)
	b.AddEdge(0, 5)
}

func TestEdgeListRoundTrip(t *testing.T) {
	in := `# comment
0 1
1 2 3.5

2 0
`
	g, ext, err := ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 3 || g.NumEdges() != 3 {
		t.Fatalf("parsed %d/%d, want 3/3", g.NumVertices(), g.NumEdges())
	}
	if !reflect.DeepEqual(ext, []int64{0, 1, 2}) {
		t.Errorf("ext ids = %v", ext)
	}
	if w := g.OutWeights(1); len(w) != 1 || w[0] != 3.5 {
		t.Errorf("weight lost: %v", w)
	}

	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, _, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !graphsEqual(g, g2) {
		t.Error("edge list round trip changed the graph")
	}
}

func TestEdgeListRemapsSparseIDs(t *testing.T) {
	g, ext, err := ReadEdgeList(strings.NewReader("100 900\n900 42\n"))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 3 {
		t.Fatalf("NumVertices = %d, want 3", g.NumVertices())
	}
	if !reflect.DeepEqual(ext, []int64{100, 900, 42}) {
		t.Errorf("ext = %v", ext)
	}
}

func TestEdgeListErrors(t *testing.T) {
	for _, bad := range []string{"1\n", "a b\n", "1 b\n", "1 2 x\n"} {
		if _, _, err := ReadEdgeList(strings.NewReader(bad)); err == nil {
			t.Errorf("input %q: want error", bad)
		}
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	g := randomGraph(rand.New(rand.NewSource(7)), 50, 300)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !graphsEqual(g, g2) {
		t.Error("binary round trip changed the graph")
	}
}

func TestSaveLoadFile(t *testing.T) {
	// The text loader remaps IDs by first appearance, so use a chain graph
	// whose edge-list order makes that remapping the identity.
	b := NewBuilder(20)
	for i := VertexID(0); i < 19; i++ {
		b.AddEdge(i, i+1)
	}
	g := b.Build()
	for _, name := range []string{"g.txt", "g.bin"} {
		path := t.TempDir() + "/" + name
		if err := SaveFile(path, g); err != nil {
			t.Fatalf("%s: save: %v", name, err)
		}
		g2, err := LoadFile(path)
		if err != nil {
			t.Fatalf("%s: load: %v", name, err)
		}
		if !graphsEqual(g, g2) {
			t.Errorf("%s: round trip changed the graph", name)
		}
	}
}

// TestReadBinaryRejectsUnsortedLists checks that a binary graph must have
// ascending lists: Neighbors, Symmetrize and InSlot all rely on them.
func TestReadBinaryRejectsUnsortedLists(t *testing.T) {
	for _, outDst := range [][]VertexID{{1, 2}, {2, 1}} {
		var buf bytes.Buffer
		gg := gobGraph{N: 3, OutOff: []int32{0, 2, 2, 2}, OutDst: outDst, InOff: []int32{0, 0, 1, 2}, InSrc: []VertexID{0, 0}}
		if err := gob.NewEncoder(&buf).Encode(gg); err != nil {
			t.Fatal(err)
		}
		_, err := ReadBinary(&buf)
		if sorted := outDst[0] < outDst[1]; sorted != (err == nil) {
			t.Errorf("out-list %v: ReadBinary error %v", outDst, err)
		}
	}
}

// TestReadBinaryRejectsContradictoryCSR checks that a binary graph's
// in-CSR must be the transpose of its out-CSR, and an undirected graph's
// in-CSR its out-CSR: HasEdge and InSlot read the in-lists, so a file
// whose in-lists disagree with its out-lists would load a graph in which
// HasEdge(u, v) is false for an out-edge u->v.
func TestReadBinaryRejectsContradictoryCSR(t *testing.T) {
	for _, c := range []struct {
		name string
		gg   gobGraph
		ok   bool
	}{
		{"consistent", gobGraph{N: 2, OutOff: []int32{0, 1, 1}, OutDst: []VertexID{1}, InOff: []int32{0, 0, 1}, InSrc: []VertexID{0}}, true},
		{"empty in-lists", gobGraph{N: 2, OutOff: []int32{0, 1, 1}, OutDst: []VertexID{1}, InOff: []int32{0, 0, 0}}, false},
		{"in-edge on the wrong vertex", gobGraph{N: 2, OutOff: []int32{0, 1, 1}, OutDst: []VertexID{1}, InOff: []int32{0, 1, 1}, InSrc: []VertexID{1}}, false},
		{"in-edge from the wrong source", gobGraph{N: 2, OutOff: []int32{0, 1, 1}, OutDst: []VertexID{1}, InOff: []int32{0, 0, 1}, InSrc: []VertexID{1}}, false},
		{"undirected", gobGraph{N: 2, OutOff: []int32{0, 1, 2}, OutDst: []VertexID{1, 0}, InOff: []int32{0, 1, 2}, InSrc: []VertexID{1, 0}, Undirected: true}, true},
		{"undirected but asymmetric", gobGraph{N: 2, OutOff: []int32{0, 1, 1}, OutDst: []VertexID{1}, InOff: []int32{0, 1, 1}, InSrc: []VertexID{1}, Undirected: true}, false},
		{"undirected with in-CSR not the out-CSR", gobGraph{N: 2, OutOff: []int32{0, 1, 1}, OutDst: []VertexID{1}, InOff: []int32{0, 0, 1}, InSrc: []VertexID{0}, Undirected: true}, false},
	} {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(c.gg); err != nil {
			t.Fatal(err)
		}
		g, err := ReadBinary(&buf)
		if (err == nil) != c.ok {
			t.Errorf("%s: ReadBinary error %v", c.name, err)
			continue
		}
		if err != nil {
			continue
		}
		if !g.HasEdge(0, 1) {
			t.Errorf("%s: loaded without its edge 0->1", c.name)
		}
		if g.Undirected() && (&g.inOff[0] != &g.outOff[0] || &g.inSrc[0] != &g.outDst[0]) {
			t.Errorf("%s: undirected graph loaded with a copy of its CSR", c.name)
		}
	}
}

// randomGraph builds a random unweighted directed graph for tests.
func randomGraph(r *rand.Rand, n, m int) *Graph {
	b := NewBuilder(n)
	for i := 0; i < m; i++ {
		b.AddEdge(VertexID(r.Intn(n)), VertexID(r.Intn(n)))
	}
	return b.Build()
}

func graphsEqual(a, b *Graph) bool {
	if a.NumVertices() != b.NumVertices() || a.NumEdges() != b.NumEdges() {
		return false
	}
	for u := VertexID(0); int(u) < a.NumVertices(); u++ {
		ao, bo := append([]VertexID{}, a.OutNeighbors(u)...), append([]VertexID{}, b.OutNeighbors(u)...)
		sort.Slice(ao, func(i, j int) bool { return ao[i] < ao[j] })
		sort.Slice(bo, func(i, j int) bool { return bo[i] < bo[j] })
		if !reflect.DeepEqual(ao, bo) {
			return false
		}
	}
	return true
}

// Property: for every edge u->v in a random graph, v lists u as in-neighbor
// at the slot InSlot reports, and degree sums match edge count.
func TestCSRConsistencyProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(60)
		g := randomGraph(r, n, r.Intn(4*n))
		totalOut, totalIn := 0, 0
		for u := VertexID(0); int(u) < n; u++ {
			totalOut += g.OutDegree(u)
			totalIn += g.InDegree(u)
			for _, v := range g.OutNeighbors(u) {
				slot, ok := g.InSlot(v, u)
				if !ok {
					return false
				}
				if g.InNeighbors(v)[slot] != u {
					return false
				}
			}
		}
		return totalOut == g.NumEdges() && totalIn == g.NumEdges()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: BuildUndirected is symmetric and loop-free.
func TestUndirectedSymmetryProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(40)
		b := NewBuilder(n)
		for i := 0; i < r.Intn(5*n); i++ {
			b.AddEdge(VertexID(r.Intn(n)), VertexID(r.Intn(n)))
		}
		g := b.BuildUndirected()
		for u := VertexID(0); int(u) < n; u++ {
			for _, v := range g.OutNeighbors(u) {
				if v == u || !g.HasEdge(v, u) {
					return false
				}
			}
		}
		return g.NumEdges()%2 == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// csrArrays is every array a Graph holds, for exact comparisons.
func csrArrays(g *Graph) []any {
	return []any{g.n, g.outOff, g.outDst, g.outW, g.inOff, g.inSrc, g.undirected}
}

// TestBuildCanonical checks that the CSR depends on the edge set only, not
// on the order edges were added in: every list ascending, parallel edges
// in insertion order with their weights, an undirected pair with the
// weight it was first added with, and Symmetrize agreeing with
// BuildUndirected.
func TestBuildCanonical(t *testing.T) {
	r := rand.New(rand.NewSource(26))
	for trial := 0; trial < 40; trial++ {
		n := 2 + r.Intn(30)
		// A simple directed edge set with distinct weights, plus self-loops.
		var base []Edge
		seen := map[[2]VertexID]bool{}
		for i := 0; i < r.Intn(4*n); i++ {
			u, v := VertexID(r.Intn(n)), VertexID(r.Intn(n))
			if !seen[[2]VertexID{u, v}] {
				seen[[2]VertexID{u, v}] = true
				base = append(base, Edge{u, v, float64(len(base) + 2)})
			}
		}
		var want [4][]any // directed and undirected, unweighted and weighted
		for shuffle := 0; shuffle < 4; shuffle++ {
			edges := slices.Clone(base)
			r.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
			plain, weighted := NewBuilder(n), NewBuilder(n)
			for _, e := range edges {
				plain.AddEdge(e.Src, e.Dst)
				weighted.AddWeightedEdge(e.Src, e.Dst, e.Weight)
			}
			// Undirected: the first occurrence of each pair in this order
			// carries the pair's weight, later ones (either direction) a decoy.
			uplain, uweighted := NewBuilder(n), NewBuilder(n)
			first := map[[2]VertexID]bool{}
			for _, e := range append(edges, edges...) {
				pair := [2]VertexID{min(e.Src, e.Dst), max(e.Src, e.Dst)}
				w := -1.0
				if !first[pair] {
					first[pair], w = true, float64(pair[0]*100+pair[1])
				}
				uplain.AddEdge(e.Dst, e.Src)
				uweighted.AddWeightedEdge(e.Dst, e.Src, w)
			}
			got := [4][]any{csrArrays(plain.Build()), csrArrays(weighted.Build()),
				csrArrays(uplain.BuildUndirected()), csrArrays(uweighted.BuildUndirected())}
			if shuffle == 0 {
				want = got
				ug := uweighted.BuildUndirected()
				for u := VertexID(0); int(u) < n; u++ {
					for i, v := range ug.OutNeighbors(u) {
						if w := ug.OutWeights(u)[i]; w != float64(min(u, v)*100+max(u, v)) {
							t.Fatalf("trial %d: undirected %d-%d has weight %v, not the first added", trial, u, v, w)
						}
					}
				}
				g := weighted.Build()
				for u := VertexID(0); int(u) < n; u++ {
					if !slices.IsSorted(g.OutNeighbors(u)) || !slices.IsSorted(g.InNeighbors(u)) {
						t.Fatalf("trial %d: lists of %d not ascending: out %v in %v", trial, u, g.OutNeighbors(u), g.InNeighbors(u))
					}
				}
				if sym := csrArrays(Symmetrize(g)); !reflect.DeepEqual(sym, want[2]) {
					t.Fatalf("trial %d: Symmetrize differs from BuildUndirected:\n%v\n%v", trial, sym, want[2])
				}
				continue
			}
			for k := range got {
				if !reflect.DeepEqual(got[k], want[k]) {
					t.Fatalf("trial %d shuffle %d build %d: arrays depend on insertion order:\n%v\n%v", trial, shuffle, k, got[k], want[k])
				}
			}
		}
	}

	// Parallel edges keep the order, and so the weights, they were added in.
	b := NewBuilder(3)
	b.AddWeightedEdge(0, 2, 5)
	b.AddWeightedEdge(0, 1, 7)
	b.AddWeightedEdge(0, 2, 3)
	b.AddWeightedEdge(2, 0, 1)
	g := b.Build()
	if got := g.OutNeighbors(0); !reflect.DeepEqual(got, []VertexID{1, 2, 2}) {
		t.Errorf("OutNeighbors(0) = %v, want [1 2 2]", got)
	}
	if got := g.OutWeights(0); !reflect.DeepEqual(got, []float64{7, 5, 3}) {
		t.Errorf("OutWeights(0) = %v, want [7 5 3]", got)
	}
}

// TestUndirectedSharesCSR checks that every undirected graph stores one
// CSR that serves as both out- and in-adjacency, in arrays with no spare
// capacity.
func TestUndirectedSharesCSR(t *testing.T) {
	g := randomGraph(rand.New(rand.NewSource(3)), 40, 200)
	ub, wb := NewBuilder(40), NewBuilder(40)
	for _, e := range g.Edges() {
		ub.AddEdge(e.Src, e.Dst)
		wb.AddWeightedEdge(e.Src, e.Dst, 2)
	}
	for name, u := range map[string]*Graph{
		"Symmetrize":               Symmetrize(g),
		"BuildUndirected":          ub.BuildUndirected(),
		"weighted BuildUndirected": wb.BuildUndirected(),
		"relabeled":                DegreeOrder(Symmetrize(g)).Apply(Symmetrize(g)),
	} {
		if !u.Undirected() || u.NumEdges() == 0 {
			t.Fatalf("%s: undirected=%v with %d edges", name, u.Undirected(), u.NumEdges())
		}
		if &u.inOff[0] != &u.outOff[0] || &u.inSrc[0] != &u.outDst[0] {
			t.Errorf("%s: in-CSR is a copy, not the out-CSR", name)
		}
		if cap(u.outDst) != len(u.outDst) || cap(u.outW) != len(u.outW) {
			t.Errorf("%s: %d edges held in arrays of %d and %d", name, len(u.outDst), cap(u.outDst), cap(u.outW))
		}
		for v := VertexID(0); int(v) < u.NumVertices(); v++ {
			if !slices.IsSorted(u.OutNeighbors(v)) {
				t.Errorf("%s: out-list of %d not ascending: %v", name, v, u.OutNeighbors(v))
			}
		}
	}
	if g.Undirected() || &g.inSrc[0] == &g.outDst[0] {
		t.Error("directed graph shares its CSR")
	}
}

// Property: Neighbors visits exactly the distinct in- and out-neighbors,
// ascending, matching a map-based reference on directed graphs with
// multi-edges and self-loops and on their undirected versions.
func TestNeighborsProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(40)
		g := randomGraph(r, n, r.Intn(5*n))
		for _, h := range []*Graph{g, Symmetrize(g)} {
			for u := VertexID(0); int(u) < n; u++ {
				ref := map[VertexID]bool{}
				for _, v := range h.OutNeighbors(u) {
					ref[v] = true
				}
				for _, v := range h.InNeighbors(u) {
					ref[v] = true
				}
				var want []VertexID
				for v := range ref {
					want = append(want, v)
				}
				slices.Sort(want)
				var got []VertexID
				h.Neighbors(u, func(v VertexID) { got = append(got, v) })
				if !slices.Equal(got, want) {
					t.Logf("seed %d vertex %d: Neighbors %v, reference %v", seed, u, got, want)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

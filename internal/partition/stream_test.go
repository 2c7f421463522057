package partition

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"serialgraph/internal/graph"
)

// star builds a star: vertex 0 connected to every other vertex, both
// directions. The adversarial case for capacity bounds — every vertex
// wants to sit next to the hub.
func star(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 1; i < n; i++ {
		b.AddEdge(0, graph.VertexID(i))
		b.AddEdge(graph.VertexID(i), 0)
	}
	return b.Build()
}

// community builds c cliques of size k joined in a ring by single edges.
func community(c, k int) *graph.Graph {
	b := graph.NewBuilder(c * k)
	for ci := 0; ci < c; ci++ {
		base := ci * k
		for i := 0; i < k; i++ {
			for j := i + 1; j < k; j++ {
				b.AddEdge(graph.VertexID(base+i), graph.VertexID(base+j))
				b.AddEdge(graph.VertexID(base+j), graph.VertexID(base+i))
			}
		}
		b.AddEdge(graph.VertexID(base), graph.VertexID(((ci+1)%c)*k))
	}
	return b.Build()
}

func sameAssignment(a, b *Map, n int) bool {
	for v := 0; v < n; v++ {
		if a.PartitionOf(graph.VertexID(v)) != b.PartitionOf(graph.VertexID(v)) {
			return false
		}
	}
	return true
}

// TestStreamBalanceBound checks the hard guarantee on adversarial and
// random graphs: no partition exceeds ceil((1+eps)*n/p) under either
// streaming partitioner, refinement included.
func TestStreamBalanceBound(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"star":      star(500),
		"ring":      ring(1000),
		"community": community(10, 40),
	}
	r := rand.New(rand.NewSource(99))
	b := graph.NewBuilder(300)
	for i := 0; i < 1500; i++ {
		b.AddEdge(graph.VertexID(r.Intn(300)), graph.VertexID(r.Intn(300)))
	}
	graphs["random"] = b.Build()

	for name, g := range graphs {
		n := g.NumVertices()
		for _, p := range []int{1, 2, 7, 16} {
			for _, o := range []StreamOptions{
				{},
				{Seed: 3, RefinePasses: 2},
				{Seed: 5, Epsilon: 0.02},
			} {
				bound := o.Capacity(n, p)
				for kind, m := range map[string]*Map{
					"ldg":    NewLDGOpts(g, p, 1, o),
					"fennel": NewFennelOpts(g, p, 1, o),
				} {
					s := Report(g, m)
					if s.MaxLoad > bound {
						t.Errorf("%s/%s p=%d opts=%+v: MaxLoad %d > bound %d",
							name, kind, p, o, s.MaxLoad, bound)
					}
					total := 0
					for q := 0; q < p; q++ {
						total += len(m.Vertices(ID(q)))
					}
					if total != n {
						t.Errorf("%s/%s p=%d: lost vertices (%d of %d)", name, kind, p, total, n)
					}
				}
			}
		}
	}
}

// TestStreamSeedDeterminism: a fixed seed fully determines the
// placement; distinct seeds are allowed (and on a tie-heavy star,
// expected) to differ.
func TestStreamSeedDeterminism(t *testing.T) {
	g := star(400)
	n := g.NumVertices()
	for kind, mk := range map[string]func(seed uint64) *Map{
		"ldg":    func(s uint64) *Map { return NewLDGOpts(g, 8, 2, StreamOptions{Seed: s, RefinePasses: 1}) },
		"fennel": func(s uint64) *Map { return NewFennel(g, 8, 2, s) },
	} {
		if !sameAssignment(mk(7), mk(7), n) {
			t.Errorf("%s: same seed produced different placements", kind)
		}
		diff := false
		for s := uint64(1); s < 6 && !diff; s++ {
			diff = !sameAssignment(mk(0), mk(s), n)
		}
		if !diff {
			t.Errorf("%s: five distinct seeds all produced the same tie-breaks on a star", kind)
		}
	}
}

// TestFennelBeatsHashOnCommunityGraph mirrors the LDG test: community
// structure must translate into a much smaller cut than hashing.
func TestFennelBeatsHashOnCommunityGraph(t *testing.T) {
	g := community(8, 25)
	fennel := Report(g, NewFennel(g, 8, 2, 1))
	hash := Report(g, NewHash(g, 8, 2, 1))
	if fennel.CutEdges >= hash.CutEdges/2 {
		t.Errorf("fennel cut %d not well below hash cut %d", fennel.CutEdges, hash.CutEdges)
	}
}

// TestRefinementNeverHurtsMuch: refinement keeps the cut at or near the
// single-pass result on a community graph (it exists to help Fennel's
// myopic early placements; it must never wreck a good placement).
func TestRefinementReducesFennelCut(t *testing.T) {
	g := community(12, 30)
	once := Report(g, NewFennelOpts(g, 12, 3, StreamOptions{Seed: 2}))
	refined := Report(g, NewFennelOpts(g, 12, 3, StreamOptions{Seed: 2, RefinePasses: 2}))
	if refined.CutEdges > once.CutEdges {
		t.Errorf("refinement increased the cut: %d -> %d", once.CutEdges, refined.CutEdges)
	}
}

// TestStreamEdgeCases: single partition, two-vertex graphs, and an
// edgeless graph all place every vertex within bounds. (Empty graphs
// panic in validate, same as every other constructor — covered below.)
func TestStreamEdgeCases(t *testing.T) {
	single := ring(30)
	for kind, m := range map[string]*Map{
		"ldg":    NewLDG(single, 1, 1),
		"fennel": NewFennel(single, 1, 1, 0),
	} {
		for v := 0; v < 30; v++ {
			if m.PartitionOf(graph.VertexID(v)) != 0 {
				t.Fatalf("%s: single-partition map strayed", kind)
			}
		}
	}

	two := graph.NewBuilder(2).Build() // no edges at all
	for kind, m := range map[string]*Map{
		"ldg":    NewLDG(two, 4, 2),
		"fennel": NewFennel(two, 4, 2, 0),
	} {
		seen := map[ID]bool{}
		for v := 0; v < 2; v++ {
			seen[m.PartitionOf(graph.VertexID(v))] = true
		}
		if len(seen) != 2 {
			t.Errorf("%s: edgeless pair piled onto one partition: %v", kind, seen)
		}
	}

	hub := star(100)
	tight := StreamOptions{Epsilon: 0.01}
	m := NewLDGOpts(hub, 10, 2, tight)
	if s := Report(hub, m); s.MaxLoad > tight.Capacity(100, 10) {
		t.Errorf("star overloads under tight epsilon: %d", s.MaxLoad)
	}
}

func TestStreamEmptyGraphPanics(t *testing.T) {
	g := graph.NewBuilder(0).Build()
	for kind, mk := range map[string]func(){
		"ldg":    func() { NewLDG(g, 2, 1) },
		"fennel": func() { NewFennel(g, 2, 1, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: empty graph did not panic", kind)
				}
			}()
			mk()
		}()
	}
}

// TestKindRegistry: New dispatches by name, treats "" as hash
// bit-identically, and rejects unknown names.
func TestKindRegistry(t *testing.T) {
	g := ring(64)
	for _, kind := range Kinds() {
		m, err := New(kind, g, 8, 2, 11)
		if err != nil || m == nil {
			t.Fatalf("New(%q) failed: %v", kind, err)
		}
		if !ValidKind(kind) {
			t.Fatalf("ValidKind(%q) = false", kind)
		}
	}
	def, _ := New("", g, 8, 2, 11)
	hash, _ := New(KindHash, g, 8, 2, 11)
	if !sameAssignment(def, hash, 64) {
		t.Error("empty kind is not bit-identical to hash")
	}
	if _, err := New("metis", g, 8, 2, 0); err == nil {
		t.Error("unknown kind accepted")
	}
	if ValidKind("metis") || !ValidKind("") {
		t.Error("ValidKind misclassifies")
	}
}

// TestQualityReport pins the report on the Figure 4/5 fixture, where
// every number is checkable by hand.
func TestQualityReport(t *testing.T) {
	g, m := figure45()
	q := Report(g, m)
	if q.Partitions != 4 || q.Workers != 2 {
		t.Fatalf("P/W = %d/%d", q.Partitions, q.Workers)
	}
	// Classes from TestFigure4Classification: 1 p-internal, 2 local,
	// 1 remote, 3 mixed.
	if q.PInternal != 1 || q.LocalBoundary != 2 || q.RemoteBoundary != 1 || q.MixedBoundary != 3 {
		t.Errorf("census = %d/%d/%d/%d", q.PInternal, q.LocalBoundary, q.RemoteBoundary, q.MixedBoundary)
	}
	if got := q.PInternal + q.LocalBoundary + q.RemoteBoundary + q.MixedBoundary; got != g.NumVertices() {
		t.Errorf("census sums to %d, want %d", got, g.NumVertices())
	}
	if want := 6.0 / 7.0; math.Abs(q.BoundaryFraction-want) > 1e-12 {
		t.Errorf("boundary fraction = %v, want %v", q.BoundaryFraction, want)
	}
	// Undirected edges v1-v3 and v2-v5 cross workers: v1, v2 each get a
	// mirror on worker 1; v3, v5 each get one on worker 0. 4 mirrors/7.
	if want := 1 + 4.0/7.0; math.Abs(q.ReplicationFactor-want) > 1e-12 {
		t.Errorf("replication factor = %v, want %v", q.ReplicationFactor, want)
	}
	// Loads are the partitions' sizes, skew is MaxLoad/(n/P).
	maxLoad, minLoad := 0, g.NumVertices()
	for p := range m.P {
		maxLoad, minLoad = max(maxLoad, len(m.Vertices(ID(p)))), min(minLoad, len(m.Vertices(ID(p))))
	}
	if q.MaxLoad != maxLoad || q.MinLoad != minLoad {
		t.Errorf("loads = %d/%d, want %d/%d", q.MaxLoad, q.MinLoad, maxLoad, minLoad)
	}
	if want := float64(maxLoad) * 4 / 7; math.Abs(q.BalanceSkew-want) > 1e-12 {
		t.Errorf("balance skew = %v, want %v", q.BalanceSkew, want)
	}
	for _, c := range []Class{PInternal, LocalBoundary, RemoteBoundary, MixedBoundary} {
		if q.ClassCount(c) == 0 && c != PInternal {
			t.Errorf("ClassCount(%v) = 0", c)
		}
	}
}

// Property: the quality census always sums to n and agrees with
// Classify, for every partitioner kind on random graphs.
func TestQualityCensusProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 5 + r.Intn(60)
		b := graph.NewBuilder(n)
		for i := 0; i < r.Intn(n*4); i++ {
			b.AddEdge(graph.VertexID(r.Intn(n)), graph.VertexID(r.Intn(n)))
		}
		g := b.Build()
		p := 1 + r.Intn(8)
		w := 1 + r.Intn(p)
		kind := Kinds()[r.Intn(len(Kinds()))]
		m, err := New(kind, g, p, w, uint64(seed))
		if err != nil {
			return false
		}
		q := Report(g, m)
		counts := [4]int{}
		for _, c := range Classify(g, m) {
			counts[c]++
		}
		return q.PInternal == counts[0] && q.LocalBoundary == counts[1] &&
			q.RemoteBoundary == counts[2] && q.MixedBoundary == counts[3] &&
			q.PInternal+q.LocalBoundary+q.RemoteBoundary+q.MixedBoundary == n &&
			q.BoundaryFraction >= 0 && q.BoundaryFraction <= 1 &&
			q.ReplicationFactor >= 1 && q.ReplicationFactor <= float64(w)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestStreamDeterminismDeep: full-struct equality across repeated
// construction, not just assignments — guards accidental use of map
// iteration or time in the stream loop.
func TestStreamDeterminismDeep(t *testing.T) {
	g := community(6, 20)
	a := NewFennelOpts(g, 9, 3, StreamOptions{Seed: 42, RefinePasses: 2})
	b := NewFennelOpts(g, 9, 3, StreamOptions{Seed: 42, RefinePasses: 2})
	if !reflect.DeepEqual(a, b) {
		t.Error("fennel construction is not deterministic")
	}
}

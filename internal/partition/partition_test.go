package partition

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"serialgraph/internal/graph"
)

// figure45 builds the 7-vertex, 2-worker, 4-partition example of the
// paper's Figures 4 and 5: P0{v0} P1{v1,v2} on worker 0, P2{v3,v4}
// P3{v5,v6} on worker 1, with undirected edges v0-v1, v1-v3, v2-v5, v3-v4,
// v4-v5, v5-v6.
func figure45() (*graph.Graph, *Map) {
	b := graph.NewBuilder(7)
	for _, e := range [][2]graph.VertexID{{0, 1}, {1, 3}, {2, 5}, {3, 4}, {4, 5}, {5, 6}} {
		b.AddEdge(e[0], e[1])
	}
	g := b.BuildUndirected()
	vp := []ID{0, 1, 1, 2, 2, 3, 3}
	pw := []int32{0, 0, 1, 1}
	return g, NewExplicit(g, vp, pw, 2)
}

func TestFigure4Classification(t *testing.T) {
	g, m := figure45()
	classes := Classify(g, m)
	want := []Class{
		LocalBoundary,  // v0: neighbor v1 in P1, same worker
		MixedBoundary,  // v1: v0 on own worker, v3 on worker 1
		RemoteBoundary, // v2: only neighbor v5 is on worker 1
		MixedBoundary,  // v3: v4 same partition (own worker), v1 on worker 0
		LocalBoundary,  // v4: v3 same partition, v5 in P3 same worker
		MixedBoundary,  // v5: v2 on worker 0, v4/v6 on own worker
		PInternal,      // v6: only neighbor v5 is in P3
	}
	if !reflect.DeepEqual(classes, want) {
		t.Errorf("Classify = %v\nwant       %v", classes, want)
	}
}

func TestFigure5ForkTopology(t *testing.T) {
	g, m := figure45()
	nb := m.Neighbors(g)
	want := [][]ID{
		{1},       // P0 - P1 via v0-v1
		{0, 2, 3}, // P1 - P0, P1 - P2 via v1-v3, P1 - P3 via v2-v5
		{1, 3},    // P2 - P1, P2 - P3 via v4-v5
		{1, 2},    // P3
	}
	if !reflect.DeepEqual(nb, want) {
		t.Errorf("Neighbors = %v\nwant        %v", nb, want)
	}
}

func TestFigure4BoundaryPredicates(t *testing.T) {
	g, m := figure45()
	for v, wantM := range []bool{false, true, true, true, false, true, false} {
		if got := IsMBoundary(g, m, graph.VertexID(v)); got != wantM {
			t.Errorf("IsMBoundary(v%d) = %v, want %v", v, got, wantM)
		}
	}
	for v, wantP := range []bool{true, true, true, true, true, true, false} {
		if got := IsPBoundary(g, m, graph.VertexID(v)); got != wantP {
			t.Errorf("IsPBoundary(v%d) = %v, want %v", v, got, wantP)
		}
	}
}

func TestHashPartitionBasics(t *testing.T) {
	g := ring(100)
	m := NewHash(g, 8, 4, 1)
	if m.P != 8 || m.W != 4 {
		t.Fatalf("P/W = %d/%d", m.P, m.W)
	}
	// Every vertex in exactly one partition, and Vertices() covers all.
	seen := make([]bool, 100)
	for p := 0; p < 8; p++ {
		if got := m.WorkerOfPartition(ID(p)); got != p%4 {
			t.Errorf("partition %d on worker %d, want round-robin %d", p, got, p%4)
		}
		for _, v := range m.Vertices(ID(p)) {
			if seen[v] {
				t.Fatalf("vertex %d in two partitions", v)
			}
			seen[v] = true
			if m.PartitionOf(v) != ID(p) {
				t.Fatalf("PartitionOf(%d) mismatch", v)
			}
			if m.WorkerOf(v) != p%4 {
				t.Fatalf("WorkerOf(%d) mismatch", v)
			}
		}
	}
	for v, ok := range seen {
		if !ok {
			t.Fatalf("vertex %d not assigned", v)
		}
	}
}

func TestHashDeterministicAndSeedSensitive(t *testing.T) {
	g := ring(200)
	a := NewHash(g, 8, 4, 7)
	b := NewHash(g, 8, 4, 7)
	c := NewHash(g, 8, 4, 8)
	same, diff := true, false
	for v := 0; v < 200; v++ {
		u := graph.VertexID(v)
		if a.PartitionOf(u) != b.PartitionOf(u) {
			same = false
		}
		if a.PartitionOf(u) != c.PartitionOf(u) {
			diff = true
		}
	}
	if !same {
		t.Error("same seed produced different partitionings")
	}
	if !diff {
		t.Error("different seeds produced identical partitionings")
	}
}

func TestHashBalance(t *testing.T) {
	g := ring(10000)
	m := NewHash(g, 16, 4, 3)
	s := Report(g, m)
	if s.MinLoad < 400 || s.MaxLoad > 900 {
		t.Errorf("hash imbalance: min %d max %d (expect ~625)", s.MinLoad, s.MaxLoad)
	}
}

func TestRangePartition(t *testing.T) {
	g := ring(10)
	m := NewRange(g, 3, 3)
	wantParts := []ID{0, 0, 0, 0, 1, 1, 1, 2, 2, 2}
	for v, want := range wantParts {
		if got := m.PartitionOf(graph.VertexID(v)); got != want {
			t.Errorf("PartitionOf(%d) = %d, want %d", v, got, want)
		}
	}
	// A ring cut into 3 ranges has exactly 3 cut edges.
	if s := Report(g, m); s.CutEdges != 3 {
		t.Errorf("ring range cut = %d, want 3", s.CutEdges)
	}
}

func TestLDGBeatsHashOnCommunityGraph(t *testing.T) {
	// Two dense cliques joined by one edge: LDG should cut far fewer edges
	// than random hashing.
	b := graph.NewBuilder(40)
	for i := 0; i < 20; i++ {
		for j := 0; j < 20; j++ {
			if i != j {
				b.AddEdge(graph.VertexID(i), graph.VertexID(j))
				b.AddEdge(graph.VertexID(20+i), graph.VertexID(20+j))
			}
		}
	}
	b.AddEdge(0, 20)
	g := b.Build()
	ldg := Report(g, NewLDG(g, 2, 2))
	hash := Report(g, NewHash(g, 2, 2, 1))
	if ldg.CutEdges >= hash.CutEdges {
		t.Errorf("LDG cut %d >= hash cut %d", ldg.CutEdges, hash.CutEdges)
	}
	if ldg.CutFraction > 0.2 {
		t.Errorf("LDG cut fraction %.2f too high for two cliques", ldg.CutFraction)
	}
}

func TestLDGBalance(t *testing.T) {
	g := ring(1000)
	m := NewLDG(g, 10, 5)
	s := Report(g, m)
	if s.MaxLoad > 120 {
		t.Errorf("LDG partition overloaded: %d (cap ~110)", s.MaxLoad)
	}
	total := 0
	for p := 0; p < 10; p++ {
		total += len(m.Vertices(ID(p)))
	}
	if total != 1000 {
		t.Errorf("LDG lost vertices: %d", total)
	}
}

func TestPartitionsOfWorker(t *testing.T) {
	g := ring(12)
	m := NewHash(g, 6, 2, 1)
	if got := m.PartitionsOfWorker(0); !reflect.DeepEqual(got, []ID{0, 2, 4}) {
		t.Errorf("worker 0 partitions = %v", got)
	}
	if got := m.PartitionsOfWorker(1); !reflect.DeepEqual(got, []ID{1, 3, 5}) {
		t.Errorf("worker 1 partitions = %v", got)
	}
}

func TestSinglePartitionClassification(t *testing.T) {
	// With one partition on one worker, everything is p-internal.
	g := ring(10)
	m := NewHash(g, 1, 1, 1)
	for _, c := range Classify(g, m) {
		if c != PInternal {
			t.Fatalf("class = %v, want p-internal", c)
		}
	}
}

func TestClassStrings(t *testing.T) {
	for c, want := range map[Class]string{
		PInternal: "p-internal", LocalBoundary: "local-boundary",
		RemoteBoundary: "remote-boundary", MixedBoundary: "mixed-boundary",
	} {
		if c.String() != want {
			t.Errorf("%d.String() = %q", c, c.String())
		}
	}
}

// Property: classification is consistent with the boundary predicates on
// random graphs and partitionings.
func TestClassifyConsistencyProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 5 + r.Intn(50)
		b := graph.NewBuilder(n)
		for i := 0; i < r.Intn(n*4); i++ {
			b.AddEdge(graph.VertexID(r.Intn(n)), graph.VertexID(r.Intn(n)))
		}
		g := b.Build()
		p := 1 + r.Intn(8)
		w := 1 + r.Intn(p)
		m := NewHash(g, p, w, uint64(seed))
		classes := Classify(g, m)
		for v := 0; v < n; v++ {
			u := graph.VertexID(v)
			mb, pb := IsMBoundary(g, m, u), IsPBoundary(g, m, u)
			c := classes[v]
			if mb != (c == RemoteBoundary || c == MixedBoundary) {
				return false
			}
			if !pb && c != PInternal {
				return false
			}
			if c == PInternal && pb {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: partition Neighbors is symmetric and matches the edge set.
func TestNeighborsSymmetryProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 5 + r.Intn(50)
		b := graph.NewBuilder(n)
		for i := 0; i < r.Intn(n*3); i++ {
			b.AddEdge(graph.VertexID(r.Intn(n)), graph.VertexID(r.Intn(n)))
		}
		g := b.Build()
		m := NewHash(g, 1+r.Intn(6), 1, uint64(seed))
		nbs := m.Neighbors(g)
		for p, lst := range nbs {
			for _, q := range lst {
				found := false
				for _, back := range nbs[q] {
					if back == ID(p) {
						found = true
					}
				}
				if !found {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func ring(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		b.AddEdge(graph.VertexID(i), graph.VertexID((i+1)%n))
	}
	return b.Build()
}

// Property: the one-sweep census (classes, cut edges, replication) and the
// bitset conflict graph match a map-based reference on directed graphs and
// on their undirected versions, including partition counts that span
// several bitset words.
func TestCensusMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 5 + r.Intn(200)
		b := graph.NewBuilder(n)
		for i := 0; i < r.Intn(n*4); i++ {
			b.AddEdge(graph.VertexID(r.Intn(n)), graph.VertexID(r.Intn(n)))
		}
		d := b.Build()
		p := 1 + r.Intn(150)
		w := 1 + r.Intn(min(p, 8))
		for _, g := range []*graph.Graph{d, graph.Symmetrize(d)} {
			m := NewHash(g, p, w, uint64(seed))
			classes := make([]Class, n)
			q := ReportClassified(g, m, classes)
			cut, mirrors := 0, 0
			conflicts := make([]map[ID]bool, p)
			for i := range conflicts {
				conflicts[i] = map[ID]bool{}
			}
			for v := 0; v < n; v++ {
				u := graph.VertexID(v)
				parts, workers := map[ID]bool{}, map[int]bool{}
				for _, nb := range g.OutNeighbors(u) {
					if m.PartitionOf(nb) != m.PartitionOf(u) {
						cut++
						conflicts[m.PartitionOf(u)][m.PartitionOf(nb)] = true
						conflicts[m.PartitionOf(nb)][m.PartitionOf(u)] = true
					}
				}
				for _, nb := range append(slices.Clone(g.OutNeighbors(u)), g.InNeighbors(u)...) {
					parts[m.PartitionOf(nb)], workers[m.WorkerOf(nb)] = true, true
				}
				local, remote := false, false
				for part := range parts {
					if part != m.PartitionOf(u) {
						if m.WorkerOfPartition(part) == m.WorkerOf(u) {
							local = true
						} else {
							remote = true
						}
					}
				}
				want := MixedBoundary
				switch {
				case !local && !remote:
					want = PInternal
				case !remote:
					want = LocalBoundary
				case !local && !parts[m.PartitionOf(u)]:
					want = RemoteBoundary
				}
				if classes[v] != want {
					t.Logf("seed %d v%d: class %v, want %v", seed, v, classes[v], want)
					return false
				}
				delete(workers, m.WorkerOf(u))
				mirrors += len(workers)
			}
			if q.CutEdges != cut || q.ReplicationFactor != 1+float64(mirrors)/float64(n) {
				t.Logf("seed %d: cut %d replication %v, want %d and %v", seed, q.CutEdges, q.ReplicationFactor, cut, 1+float64(mirrors)/float64(n))
				return false
			}
			for part, lst := range m.Neighbors(g) {
				var want []ID
				for other := range conflicts[part] {
					want = append(want, other)
				}
				slices.Sort(want)
				if len(lst) != len(want) || (len(want) > 0 && !slices.Equal(lst, want)) {
					t.Logf("seed %d: partition %d neighbors %v, want %v", seed, part, lst, want)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

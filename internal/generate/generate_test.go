package generate

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"slices"
	"testing"

	"serialgraph/internal/graph"
)

func TestPowerLawBasic(t *testing.T) {
	g := PowerLaw(PowerLawConfig{N: 2000, AvgDegree: 10, Exponent: 2.2, Seed: 1})
	if g.NumVertices() != 2000 {
		t.Fatalf("NumVertices = %d", g.NumVertices())
	}
	avg := float64(g.NumEdges()) / float64(g.NumVertices())
	// The connectivity path adds ~1 to the average degree.
	if avg < 7 || avg > 15 {
		t.Errorf("average degree %.1f far from target 10", avg)
	}
}

func TestPowerLawDeterministic(t *testing.T) {
	cfg := PowerLawConfig{N: 500, AvgDegree: 8, Exponent: 2.1, Seed: 99}
	a, b := PowerLaw(cfg), PowerLaw(cfg)
	if a.NumEdges() != b.NumEdges() {
		t.Fatalf("same seed produced %d vs %d edges", a.NumEdges(), b.NumEdges())
	}
	for u := graph.VertexID(0); int(u) < a.NumVertices(); u++ {
		an, bn := a.OutNeighbors(u), b.OutNeighbors(u)
		if len(an) != len(bn) {
			t.Fatalf("vertex %d: degree differs", u)
		}
		for i := range an {
			if an[i] != bn[i] {
				t.Fatalf("vertex %d: neighbor %d differs", u, i)
			}
		}
	}
	c := PowerLaw(PowerLawConfig{N: 500, AvgDegree: 8, Exponent: 2.1, Seed: 100})
	if c.NumEdges() == a.NumEdges() {
		t.Log("different seeds gave equal edge count (possible but unlikely); checking adjacency")
	}
}

func TestPowerLawSkew(t *testing.T) {
	g := PowerLaw(PowerLawConfig{N: 5000, AvgDegree: 12, Exponent: 2.0, Seed: 7})
	s := graph.Summarize(g)
	// A power-law graph must have a max degree far above the average.
	if float64(s.MaxDegree) < 10*s.AvgDegree {
		t.Errorf("max degree %d not skewed vs avg %.1f", s.MaxDegree, s.AvgDegree)
	}
}

func TestPowerLawMaxDegreeCap(t *testing.T) {
	g := PowerLaw(PowerLawConfig{N: 3000, AvgDegree: 10, Exponent: 2.0, MaxDegree: 50, Seed: 7})
	maxOut := 0
	for u := graph.VertexID(0); int(u) < g.NumVertices(); u++ {
		if d := g.OutDegree(u); d > maxOut {
			maxOut = d
		}
	}
	// +2 slack: the rounding and the connectivity path can add edges.
	if maxOut > 52 {
		t.Errorf("out-degree %d exceeds cap 50", maxOut)
	}
}

func TestPowerLawReachability(t *testing.T) {
	// The threaded path guarantees every vertex is reachable from the path
	// head; check total reachability from some vertex via BFS on the
	// undirected view.
	g := PowerLaw(PowerLawConfig{N: 300, AvgDegree: 4, Exponent: 2.2, Seed: 3})
	n := g.NumVertices()
	seen := make([]bool, n)
	queue := []graph.VertexID{0}
	seen[0] = true
	count := 1
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		g.Neighbors(u, func(v graph.VertexID) {
			if !seen[v] {
				seen[v] = true
				count++
				queue = append(queue, v)
			}
		})
	}
	if count != n {
		t.Errorf("graph not weakly connected: reached %d of %d", count, n)
	}
}

func TestRMAT(t *testing.T) {
	g := RMAT(RMATConfig{Scale: 10, EdgeFactor: 8, Seed: 5})
	if g.NumVertices() != 1024 {
		t.Fatalf("NumVertices = %d", g.NumVertices())
	}
	if g.NumEdges() < 7*1024 {
		t.Errorf("NumEdges = %d, want >= %d", g.NumEdges(), 7*1024)
	}
	s := graph.Summarize(g)
	if float64(s.MaxDegree) < 5*s.AvgDegree {
		t.Errorf("RMAT not skewed: max %d avg %.1f", s.MaxDegree, s.AvgDegree)
	}
}

func TestErdosRenyi(t *testing.T) {
	g := ErdosRenyi(100, 500, 11)
	if g.NumVertices() != 100 || g.NumEdges() != 500 {
		t.Fatalf("got %d/%d", g.NumVertices(), g.NumEdges())
	}
	for u := graph.VertexID(0); int(u) < 100; u++ {
		for _, v := range g.OutNeighbors(u) {
			if v == u {
				t.Fatal("self-loop in ER graph")
			}
		}
	}
}

func TestRingAndGridAndComplete(t *testing.T) {
	r := Ring(10)
	if r.NumEdges() != 10 || r.OutDegree(9) != 1 || r.OutNeighbors(9)[0] != 0 {
		t.Error("Ring wrong")
	}
	g := Grid(3, 4)
	if g.NumVertices() != 12 {
		t.Fatalf("grid vertices = %d", g.NumVertices())
	}
	// 2*(rows*(cols-1) + (rows-1)*cols) directed edges.
	if want := 2 * (3*3 + 2*4); g.NumEdges() != want {
		t.Errorf("grid edges = %d, want %d", g.NumEdges(), want)
	}
	k := Complete(5)
	if k.NumEdges() != 20 {
		t.Errorf("K5 edges = %d, want 20", k.NumEdges())
	}
}

func TestCatalog(t *testing.T) {
	if len(Catalog) != 4 {
		t.Fatalf("catalog has %d datasets, want 4", len(Catalog))
	}
	prevEdges := 0
	for _, d := range Catalog {
		g := d.Build(0.25)
		s := graph.Summarize(g)
		if s.Vertices < 16 {
			t.Errorf("%s: too small: %+v", d.Name, s)
		}
		if s.Edges <= prevEdges {
			t.Errorf("%s: edge count %d not increasing across catalog", d.Name, s.Edges)
		}
		prevEdges = s.Edges
	}
	if _, err := ByName("TW"); err != nil {
		t.Error(err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("ByName(nope) succeeded")
	}
}

func TestDatasetScale(t *testing.T) {
	d, _ := ByName("OR")
	small, big := d.Build(0.1), d.Build(0.5)
	if small.NumVertices() >= big.NumVertices() {
		t.Errorf("scale did not change size: %d vs %d", small.NumVertices(), big.NumVertices())
	}
	ratio := float64(big.NumVertices()) / float64(small.NumVertices())
	if math.Abs(ratio-5) > 0.5 {
		t.Errorf("vertex ratio %.2f, want ~5", ratio)
	}
}

func TestFamilyBuildsEveryShape(t *testing.T) {
	for _, name := range Families() {
		for _, n := range []int{2, 8, 33, 100} {
			g := Family(name, n, 7)
			if g.NumVertices() < 2 {
				t.Errorf("Family(%s, %d) built %d vertices", name, n, g.NumVertices())
			}
			if g.NumEdges() == 0 {
				t.Errorf("Family(%s, %d) built an edgeless graph", name, n)
			}
			// Families approximate n; none should explode past a small
			// multiple (rmat rounds up to the next power of two).
			if g.NumVertices() > 2*n+4 {
				t.Errorf("Family(%s, %d) built %d vertices, far over target", name, n, g.NumVertices())
			}
		}
	}
}

func TestFamilyDeterministic(t *testing.T) {
	for _, name := range Families() {
		a, b := Family(name, 40, 13), Family(name, 40, 13)
		if a.NumVertices() != b.NumVertices() || a.NumEdges() != b.NumEdges() {
			t.Fatalf("Family(%s) not deterministic: %d/%d vs %d/%d vertices/edges",
				name, a.NumVertices(), a.NumEdges(), b.NumVertices(), b.NumEdges())
		}
		for v := graph.VertexID(0); int(v) < a.NumVertices(); v++ {
			av, bv := a.OutNeighbors(v), b.OutNeighbors(v)
			if len(av) != len(bv) {
				t.Fatalf("Family(%s) v%d degree differs across builds", name, v)
			}
			for i := range av {
				if av[i] != bv[i] {
					t.Fatalf("Family(%s) v%d adjacency differs across builds", name, v)
				}
			}
		}
	}
}

func TestFamilyRejectsUnknownAndTiny(t *testing.T) {
	for _, bad := range []func(){
		func() { Family("nope", 10, 1) },
		func() { Family("ring", 1, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			bad()
		}()
	}
}

// edgeSetHash is FNV-64a over the vertex count and the sorted src<<32|dst
// keys: it pins a generator's edge set independently of adjacency order.
func edgeSetHash(g *graph.Graph) uint64 {
	keys := make([]uint64, 0, g.NumEdges())
	for u := graph.VertexID(0); int(u) < g.NumVertices(); u++ {
		for _, v := range g.OutNeighbors(u) {
			keys = append(keys, uint64(uint32(u))<<32|uint64(uint32(v)))
		}
	}
	slices.Sort(keys)
	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(g.NumVertices()))
	h.Write(b[:])
	for _, k := range keys {
		binary.LittleEndian.PutUint64(b[:], k)
		h.Write(b[:])
	}
	return h.Sum64()
}

// TestGeneratorEdgeSetPins holds every family, and the catalog analogs
// before and after symmetrising, to edge sets recorded when the generators
// still deduplicated through a hash set and the undirected builder through
// a pair map: building by sort and transpose may reorder adjacency lists
// but must not change which edges exist.
func TestGeneratorEdgeSetPins(t *testing.T) {
	families := []struct {
		name  string
		seed  int64
		edges int
		hash  uint64
	}{
		{"powerlaw", 1, 2654, 0x6bb2cdcc3b754f4e},
		{"powerlaw", 7, 2655, 0xe635c99784e9e6b7},
		{"powerlaw", 13, 2675, 0x4c2ffd0e1e1644a6},
		{"rmat", 1, 2589, 0x1ee625ccc017aa06},
		{"rmat", 7, 2634, 0x5562b1ff13045e66},
		{"rmat", 13, 2620, 0x2f4a76c910fa1f64},
		{"erdos", 1, 2000, 0xfe31efd3e1ce454d},
		{"erdos", 7, 2000, 0x5408ed06021ff191},
		{"erdos", 13, 2000, 0x4ded40dd230213b6},
		{"ring", 1, 500, 0x1e209915d1338f26},
		{"ring", 7, 500, 0x1e209915d1338f26},
		{"ring", 13, 500, 0x1e209915d1338f26},
		{"grid", 1, 1934, 0xa49cbb488fa58764},
		{"grid", 7, 1934, 0xa49cbb488fa58764},
		{"grid", 13, 1934, 0xa49cbb488fa58764},
		{"complete", 1, 249500, 0x7c2d39e0481e892e},
		{"complete", 7, 249500, 0x7c2d39e0481e892e},
		{"complete", 13, 249500, 0x7c2d39e0481e892e},
	}
	for _, f := range families {
		g := Family(f.name, 500, f.seed)
		if got := edgeSetHash(g); g.NumEdges() != f.edges || got != f.hash {
			t.Errorf("Family(%s, 500, %d): %d edges hash %#016x, want %d edges hash %#016x",
				f.name, f.seed, g.NumEdges(), got, f.edges, f.hash)
		}
	}
	catalog := map[string][4]uint64{ // directed edges, hash; symmetrised edges, hash
		"OR": {14017, 0x4d283737147187b2, 27054, 0xbfcc8699f76437c4},
		"AR": {23167, 0xcdd15ed112e4bae8, 43650, 0x62d4eed13e8981a4},
		"TW": {31025, 0x6e1636642f6c1d08, 57354, 0x39106c14a7e49d44},
		"UK": {52109, 0xd10c11b3b59eaa4a, 99506, 0x0e3d1cb7970d3750},
	}
	for _, d := range Catalog {
		g := d.Build(0.25)
		u := graph.Symmetrize(g)
		got := [4]uint64{uint64(g.NumEdges()), edgeSetHash(g), uint64(u.NumEdges()), edgeSetHash(u)}
		if got != catalog[d.Name] {
			t.Errorf("catalog %s at 0.25: got %#x, want %#x", d.Name, got, catalog[d.Name])
		}
	}
}

// BenchmarkPowerLawUK generates pl_coloring's input, the UK analog at
// scale 4, and symmetrises it: the benchmark's generate.build span.
func BenchmarkPowerLawUK(b *testing.B) {
	d, err := ByName("UK")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if g := graph.Symmetrize(d.Build(4)); g.NumEdges() == 0 {
			b.Fatal("empty graph")
		}
	}
}

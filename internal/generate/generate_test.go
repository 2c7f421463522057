package generate

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
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

// TestSamplerMatchesBinarySearch checks the guide-table pick against the
// binary search over all of cum that PowerLaw used before it, on every
// catalog dataset at the benchmark's scales: on random draws, and at every
// prefix sum and its floating-point neighbours inside [0, cum[n]], where
// a bucket boundary or a tie would show an off-by-one.
func TestSamplerMatchesBinarySearch(t *testing.T) {
	search := func(cum []float64, x float64) int {
		lo, hi := 0, len(cum)-1
		for lo < hi {
			mid := (lo + hi) / 2
			if cum[mid+1] < x {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		return lo
	}
	r := rand.New(rand.NewSource(36))
	for _, d := range Catalog {
		for _, scale := range []float64{0.25, 1, 4} {
			cfg := PowerLawConfig{N: max(int(float64(d.N)*scale), 16), AvgDegree: d.AvgDegree,
				Exponent: d.Exponent, MaxDegree: max(int(float64(d.MaxDeg)*scale), 8)}
			_, cum := powerLawWeights(cfg)
			total := cum[len(cum)-1]
			s := newSampler(cum)
			check := func(x float64) {
				if x < 0 || x > total {
					return
				}
				if got, want := s.index(x), search(cum, x); got != want {
					t.Fatalf("%s x%v: x = %v (%#x) picks %d, binary search %d", d.Name, scale, x, math.Float64bits(x), got, want)
				}
			}
			for range 100_000 {
				check(r.Float64() * total)
			}
			for _, c := range cum {
				check(c)
				check(math.Nextafter(c, math.Inf(-1)))
				check(math.Nextafter(c, math.Inf(1)))
			}
		}
	}
}

// adjacencyHash is FNV-64a over the vertex count and then every out-list
// and every in-list, each preceded by its length, with the out-weights'
// bits when the graph has any: it pins the CSR arrays themselves, order
// included, where edgeSetHash pins only which edges exist.
func adjacencyHash(g *graph.Graph) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(b[:], x)
		h.Write(b[:])
	}
	put(uint64(g.NumVertices()))
	for _, list := range []func(graph.VertexID) []graph.VertexID{g.OutNeighbors, g.InNeighbors} {
		for u := graph.VertexID(0); int(u) < g.NumVertices(); u++ {
			l := list(u)
			put(uint64(len(l)))
			for _, v := range l {
				put(uint64(uint32(v)))
			}
		}
	}
	for u := graph.VertexID(0); int(u) < g.NumVertices(); u++ {
		for _, w := range g.OutWeights(u) {
			put(math.Float64bits(w))
		}
	}
	return h.Sum64()
}

// TestGeneratorEdgeSetPins holds every family, and the catalog analogs
// before and after symmetrising, to edge sets recorded when the generators
// still deduplicated through a hash set and the undirected builder through
// a pair map: building by sort and transpose may reorder adjacency lists
// but must not change which edges exist. The adjacency hashes, recorded
// before graphs were built from radix-sorted keys, also pin the out- and
// in-arrays, so every tool keeps building bit-identical graphs.
func TestGeneratorEdgeSetPins(t *testing.T) {
	families := []struct {
		name  string
		seed  int64
		edges int
		hash  uint64
		adj   uint64
	}{
		{"powerlaw", 1, 2654, 0x6bb2cdcc3b754f4e, 0x15ba74b08b6b8fa2},
		{"powerlaw", 7, 2655, 0xe635c99784e9e6b7, 0xc56d7cdf82f39631},
		{"powerlaw", 13, 2675, 0x4c2ffd0e1e1644a6, 0x35148c076f5616e6},
		{"rmat", 1, 2589, 0x1ee625ccc017aa06, 0x92edec05c997f0d0},
		{"rmat", 7, 2634, 0x5562b1ff13045e66, 0xe89111f54f732ee2},
		{"rmat", 13, 2620, 0x2f4a76c910fa1f64, 0x435b90b2c0e53e72},
		{"erdos", 1, 2000, 0xfe31efd3e1ce454d, 0xb6802915f336f201},
		{"erdos", 7, 2000, 0x5408ed06021ff191, 0x061d2e9ce37687af},
		{"erdos", 13, 2000, 0x4ded40dd230213b6, 0x7b5e3bdc9b9716dc},
		{"ring", 1, 500, 0x1e209915d1338f26, 0xe323c88c1b25d26e},
		{"ring", 7, 500, 0x1e209915d1338f26, 0xe323c88c1b25d26e},
		{"ring", 13, 500, 0x1e209915d1338f26, 0xe323c88c1b25d26e},
		{"grid", 1, 1934, 0xa49cbb488fa58764, 0x62b8905173ac9b54},
		{"grid", 7, 1934, 0xa49cbb488fa58764, 0x62b8905173ac9b54},
		{"grid", 13, 1934, 0xa49cbb488fa58764, 0x62b8905173ac9b54},
		{"complete", 1, 249500, 0x7c2d39e0481e892e, 0x2140d463d2f16bc6},
		{"complete", 7, 249500, 0x7c2d39e0481e892e, 0x2140d463d2f16bc6},
		{"complete", 13, 249500, 0x7c2d39e0481e892e, 0x2140d463d2f16bc6},
	}
	for _, f := range families {
		g := Family(f.name, 500, f.seed)
		if got, adj := edgeSetHash(g), adjacencyHash(g); g.NumEdges() != f.edges || got != f.hash || adj != f.adj {
			t.Errorf("Family(%s, 500, %d): %d edges hash %#016x adjacency %#016x, want %d edges hash %#016x adjacency %#016x",
				f.name, f.seed, g.NumEdges(), got, adj, f.edges, f.hash, f.adj)
		}
	}
	// directed edges, hash, adjacency; symmetrised edges, hash, adjacency
	catalog := map[string][6]uint64{
		"OR": {14017, 0x4d283737147187b2, 0xe412cbf0ec00217a, 27054, 0xbfcc8699f76437c4, 0x6ac75f57f6928b00},
		"AR": {23167, 0xcdd15ed112e4bae8, 0x6c1f84d4b785e523, 43650, 0x62d4eed13e8981a4, 0xc9ad539b9cf4fe3c},
		"TW": {31025, 0x6e1636642f6c1d08, 0x7a131a1ad2ffc3ae, 57354, 0x39106c14a7e49d44, 0xa4dfdf36870cf5f4},
		"UK": {52109, 0xd10c11b3b59eaa4a, 0xef241090ece0a18c, 99506, 0x0e3d1cb7970d3750, 0xe06636c2926c1d64},
	}
	for _, d := range Catalog {
		g := d.Build(0.25)
		u := graph.Symmetrize(g)
		got := [6]uint64{uint64(g.NumEdges()), edgeSetHash(g), adjacencyHash(g), uint64(u.NumEdges()), edgeSetHash(u), adjacencyHash(u)}
		if got != catalog[d.Name] {
			t.Errorf("catalog %s at 0.25: got %#x, want %#x", d.Name, got, catalog[d.Name])
		}
	}

	// The fixed benchmark's inputs, exactly as it derives them from its
	// seed: the directed graph and its symmetrised version.
	inputs := []struct {
		name  string
		scale float64
		seed  int64
		adj   [2]uint64 // directed, symmetrised
	}{
		{"UK", 4, 1, [2]uint64{0x429feade1585be81, 0x24ecc43ea5f51c54}},
		{"UK", 4, 7, [2]uint64{0x0d26799c6904c0f6, 0x6effbb1d878f6a44}},
		{"UK", 2, 1, [2]uint64{0x90badfc7a41d85db, 0x75d0f3b5cd97ede1}},
		{"UK", 2, 7, [2]uint64{0x3245299759b01196, 0xa70f785173c95bb1}},
		{"OR", 1, 1, [2]uint64{0x1fe29eab8758b6ea, 0xe6c57654162449b8}},
		{"OR", 1, 7, [2]uint64{0xe08f42ae33bef223, 0xbb7cb9fac58fc508}},
		{"OR", 2, 1, [2]uint64{0xd68c424d6631134e, 0x729b224d92e8c6d0}},
		{"OR", 2, 7, [2]uint64{0x4e08ec86e94efba5, 0xfa12bc6877b5b060}},
	}
	for _, in := range inputs {
		if testing.Short() && in.scale == 4 {
			continue
		}
		d, err := ByName(in.name)
		if err != nil {
			t.Fatal(err)
		}
		d.Seed += in.seed * 1_000_003
		g := d.Build(in.scale)
		if got := [2]uint64{adjacencyHash(g), adjacencyHash(graph.Symmetrize(g))}; got != in.adj {
			t.Errorf("%s x%v seed %d: adjacency %#016x, want %#016x", in.name, in.scale, in.seed, got, in.adj)
		}
	}
	if got, want := adjacencyHash(Grid(300, 300)), uint64(0xc58859231ed7ba81); got != want {
		t.Errorf("Grid(300, 300): adjacency %#016x, want %#016x", got, want)
	}
	if got, want := adjacencyHash(Communities(8, 60, 5)), uint64(0x2b01f1be23917eb2); got != want {
		t.Errorf("Communities(8, 60, 5): adjacency %#016x, want %#016x", got, want)
	}
}

// BenchmarkPowerLawUK builds pl_coloring's input, the UK analog at scale
// 4 (80 000 vertices), in the benchmark's two generate.build steps:
// generate draws the directed graph and lays out its CSR, symmetrize
// merges it into the undirected graph the colouring runs on.
func BenchmarkPowerLawUK(b *testing.B) {
	d, err := ByName("UK")
	if err != nil {
		b.Fatal(err)
	}
	b.Run("generate", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if g := d.Build(4); g.NumEdges() == 0 {
				b.Fatal("empty graph")
			}
		}
	})
	b.Run("symmetrize", func(b *testing.B) {
		g := d.Build(4)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if u := graph.Symmetrize(g); u.NumEdges() == 0 {
				b.Fatal("empty graph")
			}
		}
	})
}

// Package generate produces seeded synthetic graphs that stand in for the
// paper's real-world datasets (Table 1). All generators are deterministic
// for a given seed so that experiments are reproducible run-to-run.
//
// The evaluation graphs (com-Orkut, arabic-2005, twitter-2010, uk-2007-05)
// all follow power-law degree distributions with very large maximum degrees;
// PowerLaw (a Chung–Lu style model) reproduces that skew, and RMAT provides
// a second heavy-tailed family with community structure.
package generate

import (
	"fmt"
	"math"
	"math/rand"

	"serialgraph/internal/graph"
)

// PowerLawConfig parameterizes the Chung–Lu style generator.
type PowerLawConfig struct {
	N         int     // number of vertices
	AvgDegree float64 // target average out-degree
	Exponent  float64 // power-law exponent (typically 2.0–2.5; smaller = more skew)
	MaxDegree int     // cap on expected degree (0 = n-1)
	Seed      int64
}

// PowerLaw generates a directed graph whose out-degree sequence follows a
// power law: vertex i gets expected weight proportional to
// (i+1)^(-1/(Exponent-1)), normalized to AvgDegree, then that many random
// out-edges are sampled with endpoints drawn from the same weight
// distribution (preferential targets), yielding heavy-tailed in-degrees too.
func PowerLaw(cfg PowerLawConfig) *graph.Graph {
	if cfg.N <= 1 {
		panic("generate: PowerLaw needs N > 1")
	}
	if cfg.Exponent <= 1 {
		panic("generate: PowerLaw needs Exponent > 1")
	}
	r := rand.New(rand.NewSource(cfg.Seed))
	n := cfg.N
	w, cum := powerLawWeights(cfg)
	total := cum[n]
	pick := newSampler(cum)

	edges := make(edgeSet, 0, int(total)+n)
	perm := r.Perm(n) // shuffle so heavy vertices are not clustered at low IDs
	for i := 0; i < n; i++ {
		deg := int(w[i])
		if r.Float64() < w[i]-float64(deg) {
			deg++
		}
		src := graph.VertexID(perm[i])
		for d := 0; d < deg; d++ {
			dst := graph.VertexID(perm[pick.index(r.Float64()*total)])
			if dst == src {
				continue
			}
			edges.add(src, dst)
		}
	}
	// Guarantee weak connectivity-ish reachability for SSSP/WCC by threading
	// a random Hamiltonian-ish path through all vertices.
	for i := 1; i < n; i++ {
		edges.add(graph.VertexID(perm[i-1]), graph.VertexID(perm[i]))
	}
	return graph.FromKeySet(n, edges)
}

// powerLawWeights returns cfg's Chung–Lu weights w_i = c * (i+1)^(-gamma)
// with gamma = 1/(Exponent-1), scaled to AvgDegree and capped at the
// maximum degree, and their prefix sums: cum[0] = 0, cum[i+1] = cum[i] + w[i].
func powerLawWeights(cfg PowerLawConfig) (w, cum []float64) {
	n := cfg.N
	maxDeg := cfg.MaxDegree
	if maxDeg <= 0 || maxDeg > n-1 {
		maxDeg = n - 1
	}
	gamma := 1 / (cfg.Exponent - 1)
	w = make([]float64, n)
	sum := 0.0
	for i := range w {
		w[i] = math.Pow(float64(i+1), -gamma)
		sum += w[i]
	}
	scale := cfg.AvgDegree * float64(n) / sum
	cum = make([]float64, n+1)
	for i := range w {
		w[i] *= scale
		if w[i] > float64(maxDeg) {
			w[i] = float64(maxDeg)
		}
		cum[i+1] = cum[i] + w[i]
	}
	return w, cum
}

// sampler picks index i with probability proportional to cum[i+1]-cum[i]:
// for x in [0, cum[n]] it returns the first i with cum[i+1] >= x, exactly
// what a binary search over all of cum returns. A guide table of one
// bucket per index starts the search near the answer: bucket j holds the
// x with int(x*scale) == j, and guide[j] is the first i whose cum[i+1]
// falls in bucket j or later, so every i before it has cum[i+1] < x. The
// bucket map is monotone in x, which is all that needs, so it holds in
// floating point too. A scan forward from guide[j] then passes only the
// sums that share x's bucket: n sums in n buckets, so on average half of
// one for a uniform x.
type sampler struct {
	cum   []float64
	guide []int32
	scale float64 // buckets per unit of cum
}

func newSampler(cum []float64) *sampler {
	n := len(cum) - 1
	s := &sampler{cum: cum, guide: make([]int32, n), scale: float64(n) / cum[n]}
	i := 0
	for j := range s.guide {
		for i < n-1 && s.bucket(cum[i+1]) < j {
			i++
		}
		s.guide[j] = int32(i)
	}
	return s
}

// bucket maps x to its guide bucket, the last one for x = cum[n].
func (s *sampler) bucket(x float64) int { return min(int(x*s.scale), len(s.guide)-1) }

// index returns the first i with cum[i+1] >= x, for x in [0, cum[n]]; the
// scan stops at i = n-1 at the latest, where cum[n] >= x.
func (s *sampler) index(x float64) int {
	i := int(s.guide[s.bucket(x)])
	for s.cum[i+1] < x {
		i++
	}
	return i
}

// edgeSet deduplicates directed edges: it collects each as src<<32|dst and
// graph.FromKeySet radix-sorts and compacts them once. All generators
// produce simple graphs: the message-store replica model keeps one slot
// per distinct in-neighbor, and real-world evaluation datasets are simple
// graphs too.
type edgeSet []uint64

// add appends u->v and returns its key.
func (s *edgeSet) add(u, v graph.VertexID) uint64 {
	k := uint64(uint32(u))<<32 | uint64(uint32(v))
	*s = append(*s, k)
	return k
}

// RMATConfig parameterizes the recursive matrix generator of Chakrabarti et
// al., the generator behind the Graph500 benchmark.
type RMATConfig struct {
	Scale      int     // 2^Scale vertices
	EdgeFactor float64 // edges per vertex
	A, B, C    float64 // quadrant probabilities (D = 1-A-B-C)
	Seed       int64
}

// RMAT generates a directed R-MAT graph.
func RMAT(cfg RMATConfig) *graph.Graph {
	if cfg.Scale < 1 || cfg.Scale > 30 {
		panic(fmt.Sprintf("generate: bad RMAT scale %d", cfg.Scale))
	}
	if cfg.A == 0 && cfg.B == 0 && cfg.C == 0 {
		cfg.A, cfg.B, cfg.C = 0.57, 0.19, 0.19 // Graph500 defaults
	}
	r := rand.New(rand.NewSource(cfg.Seed))
	n := 1 << cfg.Scale
	m := int(cfg.EdgeFactor * float64(n))
	edges := make(edgeSet, 0, m+n)
	for i := 0; i < m; i++ {
		src, dst := 0, 0
		for bit := 1 << (cfg.Scale - 1); bit > 0; bit >>= 1 {
			x := r.Float64()
			switch {
			case x < cfg.A: // top-left
			case x < cfg.A+cfg.B: // top-right
				dst |= bit
			case x < cfg.A+cfg.B+cfg.C: // bottom-left
				src |= bit
			default:
				src |= bit
				dst |= bit
			}
		}
		if src != dst {
			edges.add(graph.VertexID(src), graph.VertexID(dst))
		}
	}
	for i := 1; i < n; i++ {
		edges.add(graph.VertexID(i-1), graph.VertexID(i))
	}
	return graph.FromKeySet(n, edges)
}

// ErdosRenyi generates a directed G(n, m) graph with exactly m random edges
// (self-loops excluded).
func ErdosRenyi(n, m int, seed int64) *graph.Graph {
	r := rand.New(rand.NewSource(seed))
	var edges edgeSet
	seen := make(map[uint64]struct{}, m) // the loop stops at m distinct edges
	for len(seen) < m {
		src := graph.VertexID(r.Intn(n))
		dst := graph.VertexID(r.Intn(n))
		if dst != src {
			seen[edges.add(src, dst)] = struct{}{}
		}
	}
	return graph.FromKeySet(n, edges)
}

// Ring generates the n-cycle 0->1->...->n-1->0.
func Ring(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		b.AddEdge(graph.VertexID(i), graph.VertexID((i+1)%n))
	}
	return b.Build()
}

// Grid generates a rows x cols 4-neighbor grid with edges in both
// directions (a bounded-degree graph, useful as a locking stress test with
// no degree skew).
func Grid(rows, cols int) *graph.Graph {
	b := graph.NewBuilder(rows * cols)
	id := func(r, c int) graph.VertexID { return graph.VertexID(r*cols + c) }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				b.AddEdge(id(r, c), id(r, c+1))
				b.AddEdge(id(r, c+1), id(r, c))
			}
			if r+1 < rows {
				b.AddEdge(id(r, c), id(r+1, c))
				b.AddEdge(id(r+1, c), id(r, c))
			}
		}
	}
	return b.Build()
}

// Communities builds comms communities of size vertices each, with
// contiguous IDs per community: an intra-community cycle plus three random
// intra-community chords per vertex, and two bridge edges from each
// community to the next (a ring of communities). Almost every edge is
// intra-community, so a locality-aware partitioner can keep a community
// whole where hash placement scatters it over every partition. The graph
// is undirected.
func Communities(comms, size int, seed int64) *graph.Graph {
	r := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(comms * size)
	for c := 0; c < comms; c++ {
		base := c * size
		for i := 0; i < size; i++ {
			u := graph.VertexID(base + i)
			b.AddEdge(u, graph.VertexID(base+(i+1)%size))
			for t := 0; t < 3; t++ {
				if v := graph.VertexID(base + r.Intn(size)); v != u {
					b.AddEdge(u, v)
				}
			}
		}
		next := ((c + 1) % comms) * size
		for t := 0; t < 2; t++ {
			b.AddEdge(graph.VertexID(base+r.Intn(size)), graph.VertexID(next+r.Intn(size)))
		}
	}
	return b.BuildUndirected()
}

// Families lists the generator families Family accepts, in a stable order,
// so randomized harnesses can sample the full shape axis.
func Families() []string {
	return []string{"powerlaw", "rmat", "erdos", "ring", "grid", "complete"}
}

// Family builds a graph of roughly n vertices (n >= 2) from the named
// family with family-typical default parameters, deterministically for a
// given seed. It is the single entry point used by the torture harness and
// CLI tools to sample the graph-shape axis; unknown names panic.
func Family(name string, n int, seed int64) *graph.Graph {
	if n < 2 {
		panic(fmt.Sprintf("generate: Family needs n >= 2, got %d", n))
	}
	switch name {
	case "powerlaw":
		return PowerLaw(PowerLawConfig{N: n, AvgDegree: 5, Exponent: 2.2, Seed: seed})
	case "rmat":
		scale := 1
		for 1<<scale < n {
			scale++
		}
		return RMAT(RMATConfig{Scale: scale, EdgeFactor: 5, Seed: seed})
	case "erdos":
		m := 4 * n
		if max := n * (n - 1) / 2; m > max {
			m = max
		}
		return ErdosRenyi(n, m, seed)
	case "ring":
		return Ring(n)
	case "grid":
		rows := 2
		for (rows+1)*(rows+1) <= n {
			rows++
		}
		return Grid(rows, (n+rows-1)/rows)
	case "complete":
		return Complete(n)
	default:
		panic(fmt.Sprintf("generate: unknown family %q (want one of %v)", name, Families()))
	}
}

// Complete generates the complete directed graph K_n (every ordered pair).
// Dense graphs are the adversarial case for greedy coloring (§1).
func Complete(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				b.AddEdge(graph.VertexID(i), graph.VertexID(j))
			}
		}
	}
	return b.Build()
}

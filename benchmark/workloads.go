package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"time"

	"serialgraph"
	"serialgraph/internal/algorithms"
	"serialgraph/internal/generate"
	"serialgraph/internal/graph"
	"serialgraph/internal/model"
)

// latency is the simulated one-way network delay of every workload.
const latency = 50 * time.Microsecond

// workload is one fixed input and configuration. Its set-up builds the
// input and a single-threaded reference answer from the seed; everything
// the program receives is in the instance that set-up returns.
type workload struct {
	name  string
	why   string
	setup func(seed uint64, tiny bool, tr *tracer) (*instance, error)
}

// instance is one workload's generated input, ready to run.
type instance struct {
	g   *graph.Graph
	opt serialgraph.Options
	// semantics is the message-store mode of the workload's program; the
	// msgstore read and clear microbenchmarks use a store of this mode.
	semantics model.Semantics
	// exact marks the BSP workloads, whose executions, supersteps and
	// value checksum must be the same on every repetition.
	exact bool
	// run makes the one public Run or RunGAS call. The returned check
	// validates the values outside the timer and returns their checksum.
	run func(detailed bool) (serialgraph.Result, func() (uint64, error), error)
	// oracle, when set, gives the checksum every repetition must reproduce.
	oracle func() (uint64, error)
}

var workloads = []workload{
	{
		name: "pl_coloring",
		why:  "the paper's contribution (Fig. 6a PL): 2 supersteps, so partitioning, fork init and the partition scheduler are ~45% of wall",
		setup: func(seed uint64, tiny bool, tr *tracer) (*instance, error) {
			g, err := coloringInput("UK", pick(tiny, 0.05, 4), seed, tr)
			if err != nil {
				return nil, err
			}
			opt := serialgraph.Options{
				Workers: 4, PartitionsPerWorker: 16, ThreadsPerWorker: 2,
				Model: serialgraph.Async, Technique: serialgraph.PartitionLocking,
				NetworkLatency: latency, Seed: seed,
			}
			return &instance{g: g, opt: opt, semantics: model.Overwrite,
				run: pregel(g, serialgraph.Coloring(), opt, checkColoring(g))}, nil
		},
	},
	{
		name: "bsp_pagerank",
		why:  "dense frontier and no locks: msgstore PutBatch/Buffer/Read and vertex compute do the work; a lock change must show no change here",
		setup: func(seed uint64, tiny bool, tr *tracer) (*instance, error) {
			return pagerankInstance(seed, tiny, tr, serialgraph.InProc)
		},
	},
	{
		name: "bsp_pagerank_tcp",
		why:  "bsp_pagerank over loopback TCP: adds the wire codec and socket lanes; values must be bitwise equal to the in-process run",
		setup: func(seed uint64, tiny bool, tr *tracer) (*instance, error) {
			inst, err := pagerankInstance(seed, tiny, tr, serialgraph.TCPLoopback)
			if err != nil {
				return nil, err
			}
			inproc := inst.opt
			inproc.Transport = serialgraph.InProc
			reference := pregel(inst.g, serialgraph.PageRank(0), inproc, checksumFloats)
			inst.oracle = func() (uint64, error) {
				_, check, err := reference(false)
				if err != nil {
					return 0, err
				}
				return check()
			}
			return inst, nil
		},
	},
	{
		name: "token_coloring",
		why:  "128 supersteps of ~60 executions: pure barrier, flush-marker and token-ring overhead; data-plane changes must show no change here",
		setup: func(seed uint64, tiny bool, tr *tracer) (*instance, error) {
			g, err := coloringInput("OR", pick(tiny, 0.1, 1), seed, tr)
			if err != nil {
				return nil, err
			}
			opt := serialgraph.Options{
				Workers: 8, PartitionsPerWorker: 8, ThreadsPerWorker: 2,
				Model: serialgraph.Async, Technique: serialgraph.DualToken,
				NetworkLatency: latency, Seed: seed,
			}
			return &instance{g: g, opt: opt, semantics: model.Overwrite,
				run: pregel(g, serialgraph.Coloring(), opt, checkColoring(g))}, nil
		},
	},
	{
		name: "vl_coloring_gas",
		why:  "the paper's baseline (Fig. 6 VL): ~0.5M fork transfers for ~16K executions, chandy and the control path with many tiny philosophers",
		setup: func(seed uint64, tiny bool, tr *tracer) (*instance, error) {
			g, err := coloringInput("OR", pick(tiny, 0.1, 2), seed, tr)
			if err != nil {
				return nil, err
			}
			opt := serialgraph.Options{
				Workers: 4, FibersPerWorker: 16, Technique: serialgraph.VertexLocking,
				NetworkLatency: latency, Seed: seed,
			}
			check := checkColoring(g)
			run := func(bool) (serialgraph.Result, func() (uint64, error), error) {
				vals, res, err := serialgraph.RunGAS(g, serialgraph.ColoringGAS(), opt)
				return res, func() (uint64, error) { return check(vals) }, err
			}
			return &instance{g: g, opt: opt, semantics: model.Overwrite, run: run}, nil
		},
	},
	{
		name: "sssp_sparse",
		why:  "600 supersteps each touching ~450 of 90,000 vertices: per-superstep cost that scales with |V|, not with the active set",
		setup: func(seed uint64, tiny bool, tr *tracer) (*instance, error) {
			side := pick(tiny, 20, 300)
			sp := tr.begin("generate.build")
			g := generate.Grid(side, side)
			tr.end(sp)
			// The grid is fixed; the seed picks the corner the search starts
			// from, which by symmetry leaves the work the same.
			corners := []graph.VertexID{0, graph.VertexID(side - 1), graph.VertexID(side * (side - 1)), graph.VertexID(side*side - 1)}
			source := corners[seed%4]
			sp = tr.begin("algorithms.ref")
			ref := algorithms.ShortestPaths(g, source)
			tr.end(sp)
			opt := serialgraph.Options{
				Workers: 4, ThreadsPerWorker: 2, Model: serialgraph.BSP,
				NetworkLatency: latency, Seed: seed,
			}
			check := func(dist []float64) (uint64, error) {
				if len(dist) != len(ref) {
					return 0, fmt.Errorf("sssp: got %d distances for %d vertices", len(dist), len(ref))
				}
				for v := range ref {
					if dist[v] != ref[v] {
						return 0, fmt.Errorf("sssp: vertex %d at distance %v, reference %v", v, dist[v], ref[v])
					}
				}
				return checksumFloats(dist)
			}
			return &instance{g: g, opt: opt, semantics: model.Combine, exact: true,
				run: pregel(g, serialgraph.SSSP(source), opt, check)}, nil
		},
	},
}

func pick[T any](tiny bool, small, full T) T {
	if tiny {
		return small
	}
	return full
}

// pregel wraps one serialgraph.Run call as an instance's run function.
func pregel[V, M any](g *graph.Graph, prog serialgraph.Program[V, M], opt serialgraph.Options, check func([]V) (uint64, error)) func(bool) (serialgraph.Result, func() (uint64, error), error) {
	return func(detailed bool) (serialgraph.Result, func() (uint64, error), error) {
		o := opt
		o.DetailedStats = detailed
		vals, res, err := serialgraph.Run(g, prog, o)
		return res, func() (uint64, error) { return check(vals) }, err
	}
}

// dataset builds the named catalog graph at the given scale with the
// generator seed replaced by one derived from the benchmark seed.
func dataset(name string, scale float64, seed uint64) (*graph.Graph, error) {
	d, err := generate.ByName(name)
	if err != nil {
		return nil, err
	}
	d.Seed += int64(seed) * 1_000_003
	return d.Build(scale), nil
}

// coloringInput builds a symmetrised dataset and times a single-threaded
// greedy colouring of it as the reference.
func coloringInput(name string, scale float64, seed uint64, tr *tracer) (*graph.Graph, error) {
	sp := tr.begin("generate.build")
	d, err := dataset(name, scale, seed)
	if err != nil {
		return nil, err
	}
	g := serialgraph.Undirected(d)
	tr.end(sp)
	sp = tr.begin("algorithms.ref")
	ref := greedyColoring(g)
	tr.end(sp)
	if err := serialgraph.ValidateColoring(g, ref); err != nil {
		return nil, fmt.Errorf("reference colouring: %w", err)
	}
	return g, nil
}

// greedyColoring colours the vertices in ID order, each with the smallest
// colour no neighbour has: what the serializable engines compute, for one
// particular serial order.
func greedyColoring(g *graph.Graph) []int32 {
	n := g.NumVertices()
	colors := make([]int32, n)
	for v := range colors {
		colors[v] = serialgraph.NoColor
	}
	var taken []bool
	for v := 0; v < n; v++ {
		nbs := g.OutNeighbors(graph.VertexID(v))
		if cap(taken) <= len(nbs) {
			taken = make([]bool, len(nbs)+1)
		}
		taken = taken[:len(nbs)+1]
		clear(taken)
		for _, nb := range nbs {
			if c := colors[nb]; c != serialgraph.NoColor && int(c) < len(taken) {
				taken[c] = true
			}
		}
		c := 0
		for taken[c] {
			c++
		}
		colors[v] = int32(c)
	}
	return colors
}

func checkColoring(g *graph.Graph) func([]int32) (uint64, error) {
	return func(colors []int32) (uint64, error) {
		if err := serialgraph.ValidateColoring(g, colors); err != nil {
			return 0, err
		}
		h := fnv.New64a()
		var b [4]byte
		for _, c := range colors {
			binary.LittleEndian.PutUint32(b[:], uint32(c))
			h.Write(b[:])
		}
		return h.Sum64(), nil
	}
}

func checksumFloats(vals []float64) (uint64, error) {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range vals {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return h.Sum64(), nil
}

const pagerankSupersteps = 30

func pagerankInstance(seed uint64, tiny bool, tr *tracer, transport serialgraph.Transport) (*instance, error) {
	sp := tr.begin("generate.build")
	g, err := dataset("UK", pick(tiny, 0.05, 2), seed)
	if err != nil {
		return nil, err
	}
	tr.end(sp)
	sp = tr.begin("algorithms.ref")
	ref := bspPageRank(g, pagerankSupersteps)
	tr.end(sp)
	opt := serialgraph.Options{
		Workers: 4, ThreadsPerWorker: 2, Model: serialgraph.BSP, Transport: transport,
		MaxSupersteps: pagerankSupersteps, NetworkLatency: latency, Seed: seed,
	}
	check := func(pr []float64) (uint64, error) {
		if len(pr) != len(ref) {
			return 0, fmt.Errorf("pagerank: got %d ranks for %d vertices", len(pr), len(ref))
		}
		for v := range ref {
			if math.Abs(pr[v]-ref[v]) > 1e-9*math.Max(1, math.Abs(ref[v])) {
				return 0, fmt.Errorf("pagerank: vertex %d has rank %v, reference %v", v, pr[v], ref[v])
			}
		}
		return checksumFloats(pr)
	}
	return &instance{g: g, opt: opt, semantics: model.Overwrite, exact: true,
		run: pregel(g, serialgraph.PageRank(0), opt, check)}, nil
}

// bspPageRank is the single-threaded reference for PageRank(0) under BSP: a
// vertex runs in a superstep only if a message reached it, sees only the
// messages sent in the superstep before, and stops sending once its rank
// no longer changes.
func bspPageRank(g *graph.Graph, supersteps int) []float64 {
	n := g.NumVertices()
	rank := make([]float64, n)
	sent, next := make([]float64, n), make([]float64, n)
	sending, nextSending := make([]bool, n), make([]bool, n)
	for v := range rank {
		rank[v] = 1
		if d := g.OutDegree(graph.VertexID(v)); d > 0 {
			sent[v], sending[v] = 1/float64(d), true
		}
	}
	for s := 1; s < supersteps; s++ {
		for v := 0; v < n; v++ {
			nextSending[v] = false
			sum, reached := 0.0, false
			for _, u := range g.InNeighbors(graph.VertexID(v)) {
				if sending[u] {
					sum += sent[u]
					reached = true
				}
			}
			if !reached {
				continue
			}
			pr := 0.15 + 0.85*sum
			changed := pr != rank[v]
			rank[v] = pr
			if d := g.OutDegree(graph.VertexID(v)); changed && d > 0 {
				next[v], nextSending[v] = pr/float64(d), true
			}
		}
		sent, next = next, sent
		sending, nextSending = nextSending, sending
	}
	return rank
}

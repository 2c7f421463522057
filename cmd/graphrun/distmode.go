package main

// Multi-process mode: `graphrun -listen` runs the coordinator,
// `graphrun -join` runs one worker process. A real run over TCP loopback:
//
//	graphrun -listen 127.0.0.1:7400 -workers-remote 2 \
//	    -alg sssp -graph g.bin -o dist.txt &
//	graphrun -join 127.0.0.1:7400 &
//	graphrun -join 127.0.0.1:7400
//
// The coordinator prints its bound address on startup ("coordinator:
// listening on ..."), so -listen 127.0.0.1:0 works for scripting. Every
// process must see the same -graph file (or the same -family/-n/-seed),
// from which it deterministically rebuilds the graph and partition map.

import (
	"flag"
	"fmt"
	"net"
	"os"
	"slices"
	"strings"
	"time"

	"serialgraph/internal/algorithms"
	"serialgraph/internal/dist"
	"serialgraph/internal/engine"
)

// runWorkerProcess joins the coordinator at addr and runs to completion.
func runWorkerProcess(addr string) error {
	fmt.Printf("worker: joining coordinator at %s\n", addr)
	start := time.Now()
	if err := dist.Work(addr); err != nil {
		return err
	}
	fmt.Printf("worker: done in %v\n", time.Since(start).Round(time.Millisecond))
	return nil
}

// coordinatorFlags are the flags a -listen coordinator carries into its
// job; refuseFlags rejects every other one a command line sets.
var coordinatorFlags = []string{
	"listen", "workers-remote", "alg", "graph", "family", "n", "seed", "source",
	"eps", "ppw", "max-supersteps", "msg-mem", "partitioner", "model", "technique", "o",
}

// refuseFlags fails, naming them, when set (the flags a command line set)
// holds any flag multi-process mode does not implement.
func refuseFlags(set []string) error {
	var bad []string
	for _, name := range set {
		if !slices.Contains(coordinatorFlags, name) {
			bad = append(bad, "-"+name)
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("multi-process mode does not implement %s", strings.Join(bad, ", "))
	}
	return nil
}

// setFlags lists the flags the command line set.
func setFlags() []string {
	var set []string
	flag.Visit(func(f *flag.Flag) { set = append(set, f.Name) })
	return set
}

type coordinatorConfig struct {
	listen        string
	alg           string
	graphPath     string
	family        string
	familyN       int
	workers       int
	ppw           int
	maxSupersteps int
	seed          uint64
	source        int
	eps           float64
	out           string
	msgMem        int64
	partitioner   string
	model         string
	technique     string
}

// job turns the coordinator's flags into the job every process runs.
func (cfg coordinatorConfig) job() (dist.Job, error) {
	if cfg.workers < 1 {
		return dist.Job{}, fmt.Errorf("coordinator mode needs -workers-remote >= 1")
	}
	if cfg.graphPath == "" && cfg.family == "" {
		return dist.Job{}, fmt.Errorf("coordinator mode needs -graph or -family/-n (workers rebuild the graph themselves)")
	}
	modes := map[string]engine.Mode{"bsp": engine.BSP, "async": engine.Async}
	syncs := map[string]engine.Sync{"none": engine.SyncNone, "single-token": engine.TokenSingle,
		"dual-token": engine.TokenDual, "partition-locking": engine.PartitionLock}
	mode, ok := modes[cfg.model]
	if !ok {
		return dist.Job{}, fmt.Errorf("multi-process mode does not support -model %s", cfg.model)
	}
	sync, ok := syncs[cfg.technique]
	if !ok {
		return dist.Job{}, fmt.Errorf("multi-process mode does not support -technique %s", cfg.technique)
	}
	if cfg.ppw == 0 {
		cfg.ppw = cfg.workers
	}
	if cfg.maxSupersteps == 0 {
		cfg.maxSupersteps = 100000
	}
	job := dist.Job{
		Alg:             cfg.alg,
		GraphPath:       cfg.graphPath,
		Family:          cfg.family,
		N:               int32(cfg.familyN),
		Undirected:      cfg.alg == "coloring" || cfg.alg == "wcc", // as the single-process path
		Workers:         int32(cfg.workers),
		PartsPerWorker:  int32(cfg.ppw),
		MaxSupersteps:   int32(cfg.maxSupersteps),
		Seed:            cfg.seed,
		Source:          int32(cfg.source),
		Eps:             cfg.eps,
		MsgMemoryBudget: cfg.msgMem,
		Partitioner:     cfg.partitioner,
		Mode:            uint8(mode),
		Sync:            uint8(sync),
	}
	return job, engine.Config{Mode: mode, Sync: sync}.ValidatePeer()
}

// runCoordinatorProcess drives one distributed run and prints the same
// summary a single-process run would.
func runCoordinatorProcess(cfg coordinatorConfig) error {
	job, err := cfg.job()
	if err != nil {
		return err
	}
	g, err := dist.BuildGraph(job)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", cfg.listen)
	if err != nil {
		return err
	}
	defer ln.Close()
	fmt.Printf("coordinator: listening on %s for %d workers\n", ln.Addr(), cfg.workers)
	fmt.Printf("graph: %d vertices, %d edges; alg %s, %d workers x %d partitions, %s, %s\n",
		g.NumVertices(), g.NumEdges(), cfg.alg, cfg.workers, job.PartsPerWorker, cfg.model, cfg.technique)

	values, res, err := dist.Run(ln, job, g.NumVertices())
	if err != nil {
		return err
	}
	if colors, ok := values.([]int32); ok && cfg.alg == "coloring" {
		if cerr := algorithms.ValidateColoring(g, colors); cerr != nil {
			fmt.Printf("coloring INVALID: %v\n", cerr)
		} else {
			fmt.Printf("coloring proper, %d colors\n", countDistinct(colors))
		}
	}
	printSummary(res)

	if cfg.out != "" {
		f, err := os.Create(cfg.out)
		if err != nil {
			return err
		}
		defer f.Close()
		switch vals := values.(type) {
		case []int32:
			for _, v := range vals {
				fmt.Fprintln(f, v)
			}
		case []float64:
			for _, v := range vals {
				fmt.Fprintln(f, v)
			}
		}
		fmt.Printf("wrote values to %s\n", cfg.out)
	}
	return nil
}

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
	"slices"
	"strings"
	"time"

	"serialgraph"
	"serialgraph/internal/catalog"
	"serialgraph/internal/dist"
	"serialgraph/internal/engine"
)

// runWorkerProcess joins the coordinator at addr and runs to completion.
func runWorkerProcess(addr string) error {
	fmt.Printf("worker: joining coordinator at %s\n", addr)
	start := time.Now()
	if err := dist.Work(addr, catalog.Serve); err != nil {
		return err
	}
	fmt.Printf("worker: done in %v\n", time.Since(start).Round(time.Millisecond))
	return nil
}

// coordinatorFlags are the flags a -listen coordinator carries into its
// job; refuseFlags rejects every other one a command line sets.
var coordinatorFlags = []string{
	"listen", "workers-remote", "alg", "graph", "family", "n", "seed", "source",
	"eps", "ppw", "max-supersteps", "partitioner", "model", "technique", "o",
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

// listenJob completes the job a -listen coordinator hands its workers
// from pl, and fails naming anything multi-process mode does not support.
func listenJob(pl plan, job dist.Job) (dist.Job, error) {
	if job.Workers < 1 {
		return dist.Job{}, fmt.Errorf("coordinator mode needs -workers-remote >= 1")
	}
	if job.GraphPath == "" && job.Family == "" {
		return dist.Job{}, fmt.Errorf("coordinator mode needs -graph or -family/-n (workers rebuild the graph themselves)")
	}
	cfg, err := serialgraph.Options{Model: pl.model, Technique: pl.technique}.EngineConfig()
	if err != nil {
		return dist.Job{}, fmt.Errorf("multi-process mode does not support -technique %s: %w", pl.technique, err)
	}
	job.Alg, job.Undirected = pl.entry.Name, pl.entry.Undirected
	job.Mode, job.Sync = uint8(cfg.Mode), uint8(cfg.Sync)
	if job.PartsPerWorker == 0 {
		job.PartsPerWorker = job.Workers
	}
	if job.MaxSupersteps == 0 {
		job.MaxSupersteps = 100000
	}
	if _, err := engine.JobConfig(job); err != nil {
		return dist.Job{}, fmt.Errorf("multi-process mode does not support -model %s -technique %s: %w", pl.model, pl.technique, err)
	}
	return job, nil
}

// runCoordinatorProcess drives one distributed run of job, which
// listenJob completed, on listen and prints the same summary a
// single-process run would, writing the values to out if it is set.
func runCoordinatorProcess(listen, out string, pl plan, job dist.Job) error {
	g, err := dist.BuildGraph(job)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", listen)
	if err != nil {
		return err
	}
	defer ln.Close()
	fmt.Printf("coordinator: listening on %s for %d workers\n", ln.Addr(), job.Workers)
	fmt.Printf("graph: %d vertices, %d edges; alg %s, %d workers x %d partitions, %s, %s\n",
		g.NumVertices(), g.NumEdges(), job.Alg, job.Workers, job.PartsPerWorker, pl.model, pl.technique)

	res, err := catalog.Coordinate(ln, job, g)
	if err != nil {
		return err
	}
	judge(job.Alg, g, catalog.JobParams(job), res)
	printSummary(res.Result)
	if out == "" {
		return nil
	}
	if err := writeValues(out, res.Values); err != nil {
		return err
	}
	fmt.Printf("wrote values to %s\n", out)
	return nil
}

// Benchtab regenerates the paper's tables and figures on the synthetic
// dataset analogs. Each experiment prints the same rows/series the paper
// reports; see DESIGN.md for the experiment index and EXPERIMENTS.md for
// paper-vs-measured results.
//
// Usage:
//
//	benchtab -exp table1|fig1|fig2|fig3|fig6a|fig6b|fig6c|fig6d|giraphx|
//	              ablation-partitions|ablation-degenerate|ablation-partitioner|
//	              recovery|flow|partition|all
//	         [-scale 0.5] [-workers 16,32] [-latency 50us] [-v]
//	         [-json bench.json] [-label v3] [-trace]
//
// With -json, every measured row (including its metrics snapshot, and
// with -trace a per-superstep phase breakdown) is also written to the
// given file as a machine-readable perf-trajectory point; the BENCH_NNNN
// files at the repo root are produced this way via `make bench-json`.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"serialgraph/internal/bench"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run")
	scale := flag.Float64("scale", 0, "dataset scale factor (default 1.0 or $SERIALGRAPH_SCALE)")
	workersFlag := flag.String("workers", "16,32", "comma-separated cluster sizes")
	latency := flag.Duration("latency", 0, "simulated one-way network latency (default 50µs)")
	verbose := flag.Bool("v", false, "print progress")
	jsonOut := flag.String("json", "", "also write all measured rows (with metrics) to this file as JSON")
	label := flag.String("label", "", "free-form provenance label recorded in the JSON report")
	trace := flag.Bool("trace", false, "record a per-superstep phase breakdown in each row (slower)")
	flag.Parse()

	var workers []int
	for _, f := range strings.Split(*workersFlag, ",") {
		w, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || w < 1 {
			log.Fatalf("bad -workers value %q", f)
		}
		workers = append(workers, w)
	}
	cfg := bench.Config{Scale: *scale, Workers: workers, Latency: *latency, Trace: *trace}
	if *verbose {
		cfg.Log = os.Stderr
	}

	out := os.Stdout
	var jsonRows []bench.Row
	keep := func(rows []bench.Row) []bench.Row {
		jsonRows = append(jsonRows, rows...)
		return rows
	}
	runOne := func(name string) {
		switch name {
		case "table1":
			header(out, "Table 1: datasets (paper originals vs synthetic analogs)")
			bench.Table1(out, cfg)
		case "fig1":
			header(out, "Figure 1 (measured): parallelism vs communication spectrum, coloring on OR")
			printSpectrum(out, keep(bench.Fig1Spectrum(cfg)))
		case "fig2", "fig3":
			header(out, "Figures 2 and 3: coloring non-termination on the 4-vertex example")
			bench.Fig23(out)
		case "fig6a":
			header(out, "Figure 6a: graph coloring computation times")
			bench.Print(out, keep(bench.Fig6("coloring", cfg)))
		case "fig6b":
			header(out, "Figure 6b: PageRank computation times")
			bench.Print(out, keep(bench.Fig6("pagerank", cfg)))
		case "fig6c":
			header(out, "Figure 6c: SSSP computation times")
			bench.Print(out, keep(bench.Fig6("sssp", cfg)))
		case "fig6d":
			header(out, "Figure 6d: WCC computation times")
			bench.Print(out, keep(bench.Fig6("wcc", cfg)))
		case "giraphx":
			header(out, "§7.3: Giraphx (in-algorithm) vs system-level techniques, coloring on OR")
			bench.Print(out, keep(bench.Giraphx(cfg)))
		case "ablation-partitions":
			header(out, "Ablation (§7.1): partitions-per-worker sweep, partition-based locking")
			bench.Print(out, keep(bench.AblationPartitions(cfg)))
		case "ablation-degenerate":
			header(out, "Ablation (§5.4): partition-based locking degenerating to vertex granularity")
			bench.Print(out, keep(bench.AblationDegenerate(cfg)))
		case "ablation-partitioner":
			header(out, "Ablation: partitioning quality (hash vs range vs LDG)")
			bench.Print(out, keep(bench.AblationPartitioner(cfg)))
		case "ablation-combining":
			header(out, "Ablation: sender-side combining (Giraph combiner in the buffer cache)")
			bench.Print(out, keep(bench.AblationCombining(cfg)))
		case "ablation-skip":
			header(out, "Ablation (§5.4): halted-partition skip optimization")
			bench.Print(out, keep(bench.AblationSkip(cfg)))
		case "mis":
			header(out, "Extension: serializable greedy MIS vs Luby's randomized MIS")
			bench.Print(out, keep(bench.MISComparison(cfg)))
		case "ablation-bap":
			header(out, "Ablation: barriered AP vs barrierless BAP (Giraph Unchained), partition locking")
			bench.Print(out, keep(bench.AblationBAP(cfg)))
		case "exclusion":
			header(out, "§7 exclusion: vertex-based locking on Giraph async vs GraphLab async")
			bench.Print(out, keep(bench.Exclusion(cfg)))
		case "recovery":
			header(out, "§6.4: checkpoint overhead and crash-recovery cost, SSSP on OR")
			bench.Print(out, keep(bench.RecoveryOverhead(cfg)))
		case "flow":
			header(out, "Bounded memory: credit flow + spill tier, BSP PageRank on UK")
			bench.Print(out, keep(bench.FlowOverhead(cfg)))
		case "partition":
			header(out, "Locality: streaming partitioners (hash vs LDG vs Fennel) across techniques")
			printPartition(out, keep(bench.PartitionQuality(cfg)))
		default:
			log.Fatalf("unknown experiment %q", name)
		}
	}

	if *exp == "all" {
		for _, name := range []string{
			"table1", "fig2", "fig1", "fig6a", "fig6b", "fig6c", "fig6d",
			"giraphx", "ablation-partitions", "ablation-degenerate", "ablation-partitioner",
			"ablation-combining", "ablation-skip", "mis", "ablation-bap", "exclusion",
			"recovery", "flow", "partition",
		} {
			runOne(name)
			fmt.Fprintln(out)
		}
	} else {
		runOne(*exp)
	}

	if *jsonOut != "" {
		if err := bench.WriteJSONFile(*jsonOut, bench.NewReport(cfg, *label, jsonRows)); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %d rows to %s\n", len(jsonRows), *jsonOut)
	}
}

func header(w io.Writer, title string) {
	fmt.Fprintf(w, "== %s ==\n", title)
}

// printPartition renders the locality rows with their quality report:
// the §5.3 class census (internal/local/remote/mixed), boundary and cut
// fractions, replication factor, and balance skew next to the traffic
// each (technique, partitioner) cell generated.
func printPartition(w io.Writer, rows []bench.Row) {
	fmt.Fprintf(w, "%-26s %-9s %9s %9s %7s %6s %6s %5s %12s %12s\n",
		"technique/partitioner", "alg", "boundary", "cut", "repl", "skew", "census", "", "data KB", "time")
	for _, r := range rows {
		q := r.Partition
		if q == nil {
			continue
		}
		fmt.Fprintf(w, "%-26s %-9s %9.3f %9.3f %7.2f %6.2f  i=%d l=%d r=%d m=%d %8d %12v\n",
			r.Technique, r.Algorithm, q.BoundaryFraction, q.CutFraction,
			q.ReplicationFactor, q.BalanceSkew,
			q.PInternal, q.LocalBoundary, q.RemoteBoundary, q.MixedBoundary,
			r.DataBytes/1024, r.Time.Round(time.Millisecond))
	}
}

func printSpectrum(w io.Writer, rows []bench.Row) {
	fmt.Fprintf(w, "%-20s %16s %16s %16s %14s %12s\n",
		"technique", "peak conc units", "execs/superstep", "ctrl msgs", "data batches", "time")
	for _, r := range rows {
		eps := "-"
		if r.Supersteps > 0 {
			eps = fmt.Sprintf("%.0f", float64(r.Executions)/float64(r.Supersteps))
		}
		fmt.Fprintf(w, "%-20s %16d %16s %16d %14d %12v\n",
			r.Technique, r.MaxConc, eps, r.CtrlMsgs, r.DataMsgs, r.Time.Round(time.Millisecond))
	}
}

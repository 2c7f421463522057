// Benchtab regenerates the paper's evaluation (§7) on the synthetic
// dataset analogs: Table 1, Figures 1–3, Figure 6a–d, the §7.3 Giraphx
// comparison, the §5.4/§7.1 ablations and the extension experiments. Every
// experiment is a list of cells; each cell is one engine.Run or gas.Run
// whose answer is checked against a serial oracle, and a cell whose answer
// is wrong (or an experiment whose gate fails) makes benchtab exit 1. See
// DESIGN.md for the experiment index and EXPERIMENTS.md for paper-vs-
// measured results.
//
// Usage:
//
//	benchtab -exp table1|fig1|fig2|fig3|fig6a|fig6b|fig6c|fig6d|giraphx|
//	              ablation-partitions|ablation-degenerate|ablation-partitioner|
//	              ablation-combining|ablation-skip|ablation-bap|mis|exclusion|
//	              recovery|flow|partition|all
//	         [-scale 1] [-workers 16,32] [-latency 50us] [-v] [-json rows.json]
//
// With -json, every measured row is also written to the given file as one
// flat JSON array.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"log"
	"os"
	"runtime"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"

	"serialgraph/internal/algorithms"
	"serialgraph/internal/cluster"
	"serialgraph/internal/engine"
	"serialgraph/internal/fault"
	"serialgraph/internal/gas"
	"serialgraph/internal/generate"
	"serialgraph/internal/giraphx"
	"serialgraph/internal/graph"
	"serialgraph/internal/history"
	"serialgraph/internal/metrics"
	"serialgraph/internal/partition"
)

// Row is one measured cell. -json writes a flat array of them.
type Row struct {
	Experiment string        `json:"experiment"`
	Algorithm  string        `json:"algorithm"`
	Dataset    string        `json:"dataset"`
	Workers    int           `json:"workers"`
	Technique  string        `json:"technique"`
	Time       time.Duration `json:"time_ns"`
	Supersteps int           `json:"supersteps"`
	Executions int64         `json:"executions"`
	DataMsgs   int64         `json:"data_msgs"`
	DataBytes  int64         `json:"data_bytes"`
	CtrlMsgs   int64         `json:"ctrl_msgs"`
	Forks      int64         `json:"forks"`
	MaxConc    int64         `json:"max_conc"`
	Converged  bool          `json:"converged"`
	// HistoryTxns is the number of transactions whose history passed C1,
	// C2 and 1SR (history.CheckAll); 0 for a cell that records none.
	HistoryTxns int `json:"history_txns"`
	// Answer is an FNV-1a digest of the final vertex values, so runs that
	// must agree bitwise can be compared by row.
	Answer uint64 `json:"answer_hash"`
	// Check is "ok" when the answer passed its oracle, "counts only" for
	// cells that have none, and the failure otherwise.
	Check     string            `json:"check"`
	Partition partition.Quality `json:"partition"`
	Metrics   metrics.Snapshot  `json:"metrics"`
}

func (r Row) passed() bool { return r.Check == "ok" || r.Check == "counts only" }

// cell is one run of one experiment.
type cell struct {
	exp, alg, ds string
	workers      int
	// cfg carries the mode, the technique and any engine-only knob;
	// run fills in Workers, Latency and Seed.
	cfg engine.Config
	// gas runs the cell on the GAS engine under vertex-based locking.
	gas bool
	// countsOnly marks a cell whose answer has no oracle: Fig. 1's
	// fixed-budget PageRank anchors stop before they converge.
	countsOnly bool
	label      string // the technique column; derived from cfg when empty
}

// checked reports whether run records the cell's history and checks it
// with history.CheckAll: a serializable technique (every technique but
// SyncNone, and vertex locking on the GAS engine) running a write-all
// program (§3.3). The Pregel-form PageRank is not write-all: a vertex
// whose rank moves by less than eps keeps the new value without sending it
// (§7.2.2), so its replicas go stale by design and its history fails C1
// and 1SR under every technique. Counts-only cells are not checked either.
func (c cell) checked() bool {
	if c.countsOnly || c.alg == "pagerank" && !c.gas {
		return false
	}
	return c.gas || c.cfg.Sync != engine.SyncNone
}

func (c cell) technique() string {
	switch {
	case c.label != "":
		return c.label
	case c.gas:
		return "vertex-lock (GAS)"
	case c.cfg.Sync == engine.SyncNone:
		// Without a technique the mode is the distinguishing coordinate.
		return c.cfg.Mode.String() + "-none"
	}
	return c.cfg.Sync.String()
}

// harness holds the run-wide settings, the graph cache and the failure
// count.
type harness struct {
	scale    float64
	workers  []int
	latency  time.Duration
	log      io.Writer // progress lines; nil for none
	graphs   map[string]*graph.Graph
	failures int
}

func newHarness(scale float64, workers []int, latency time.Duration) *harness {
	return &harness{scale: scale, workers: workers, latency: latency, graphs: map[string]*graph.Graph{}}
}

func (h *harness) logf(format string, args ...any) {
	if h.log != nil {
		fmt.Fprintf(h.log, format+"\n", args...)
	}
}

func (h *harness) failf(format string, args ...any) {
	h.failures++
	fmt.Fprintf(os.Stderr, "FAIL: "+format+"\n", args...)
}

// communitySize is the vertex count of one community of the partition
// experiment's graph: below the streaming capacity ceil(1.1·n/P), so a
// partitioner that recognizes a community can keep it whole.
const communitySize = 24

// graph builds (once) a catalog analog at the harness scale, or the
// partition experiment's community graph ("community"), directed or
// symmetrized. The community graph has one community per partition
// whatever -scale says: with fewer, the capacity drops below a community.
func (h *harness) graph(ds string, undirected bool) *graph.Graph {
	key := fmt.Sprintf("%s/%v", ds, undirected)
	if g, ok := h.graphs[key]; ok {
		return g
	}
	var g *graph.Graph
	switch {
	case ds == "community":
		p := h.workers[0] * h.workers[0] // engine default: PartitionsPerWorker = Workers
		g = generate.Communities(p, communitySize, 20)
	case undirected:
		g = graph.Symmetrize(h.graph(ds, false))
	default:
		d, err := generate.ByName(ds)
		if err != nil {
			log.Fatal(err)
		}
		g = d.Build(h.scale)
	}
	h.graphs[key] = g
	return g
}

// prThreshold mirrors §7.2.2: 0.1 for TW and UK, 0.01 for OR and AR (and
// the community graph).
func prThreshold(ds string) float64 {
	if ds == "TW" || ds == "UK" {
		return 0.1
	}
	return 0.01
}

// outcome is one engine call of a cell.
type outcome struct {
	res   engine.Result
	rec   *history.Recorder // the history, when the call recorded one
	err   error
	vals  any          // the final vertex values, digested into Row.Answer
	check func() error // the oracle, run on a converged answer
}

// verdict is the call's Row.Check: "ok", "counts only", or the failure.
func (o outcome) verdict(countsOnly bool) string {
	switch {
	case o.err != nil:
		return o.err.Error()
	case countsOnly:
		return "counts only"
	case !o.res.Converged:
		return "did not converge"
	}
	if err := o.check(); err != nil {
		return err.Error()
	}
	return "ok"
}

// run makes the cell's engine call, checks its answer and returns its row.
// A checked cell also runs once more, untimed and recording its history,
// which must pass history.CheckAll (recording slows compute by 5–20 %).
// A failed check is counted and reported on stderr.
func (h *harness) run(c cell) Row {
	undirected := c.alg == "coloring" || c.alg == "wcc" ||
		strings.HasPrefix(c.alg, "mis") || strings.HasPrefix(c.alg, "giraphx")
	g := h.graph(c.ds, undirected)
	h.logf("%s %s %s W=%d %s ...", c.exp, c.alg, c.ds, c.workers, c.technique())

	o := h.exec(c, g, false)
	res := o.res
	r := Row{
		Experiment: c.exp, Algorithm: c.alg, Dataset: c.ds, Workers: c.workers,
		Technique: c.technique(), Time: res.ComputeTime, Supersteps: res.Supersteps,
		Executions: res.Executions, DataMsgs: res.Net.DataMessages, DataBytes: res.Net.DataBytes,
		CtrlMsgs: res.Net.ControlMessages, Forks: res.ForkSends, MaxConc: res.MaxConcurrency,
		Converged: res.Converged, Answer: digest(o.vals), Check: o.verdict(c.countsOnly),
		Partition: res.Partition, Metrics: res.Metrics,
	}
	if r.Check == "ok" && c.checked() {
		rep := h.exec(c, g, true)
		if r.Check = rep.verdict(false); r.Check == "ok" {
			if vs := history.CheckAll(rep.rec.Txns(), g); len(vs) > 0 {
				r.Check = fmt.Sprintf("history: %d violations, first %v", len(vs), vs[0])
			} else {
				r.HistoryTxns = rep.rec.Len()
			}
		}
		runtime.GC() // the history is garbage now; the next timed cell must not collect it
	}
	if !r.passed() {
		h.failf("%s %s %s W=%d %s: %s", r.Experiment, r.Algorithm, r.Dataset, r.Workers, r.Technique, r.Check)
	}
	return r
}

// exec makes the cell's one engine call on g, recording its history if
// track.
func (h *harness) exec(c cell, g *graph.Graph, track bool) (o outcome) {
	lat := cluster.LatencyModel{Propagation: h.latency, BytesPerSec: 1 << 30}
	cfg := c.cfg
	cfg.Workers, cfg.Latency, cfg.Seed, cfg.TrackHistory = c.workers, lat, 1, track
	if cfg.Fault != nil {
		cfg.Fault = fault.NewInjector(cfg.Fault.Plan()) // a crash fires once per injector
	}
	if cfg.CheckpointEvery > 0 {
		dir, err := os.MkdirTemp("", "benchtab-checkpoint")
		if err != nil {
			log.Fatal(err)
		}
		defer os.RemoveAll(dir)
		cfg.CheckpointDir = dir
	}
	gcfg := gas.Config{Workers: c.workers, Serializable: true, Latency: lat, Seed: 1, TrackHistory: track}
	eps := prThreshold(c.ds)

	ranks := func(pr []float64) {
		o.vals = pr
		o.check = func() error {
			if r, b := algorithms.PageRankResidual(g, pr), algorithms.PageRankBound(g, eps); r > b {
				return fmt.Errorf("pagerank residual %.3g exceeds %.3g", r, b)
			}
			return nil
		}
	}
	coloring := func(colors []int32) {
		o.vals = colors
		o.check = func() error { return algorithms.ValidateColoring(g, colors) }
	}
	switch c.alg {
	case "coloring":
		var colors []int32
		if c.gas {
			colors, o.res, o.rec, o.err = gas.Run(g, algorithms.ColoringGAS(), gcfg)
		} else {
			colors, o.res, o.rec, o.err = engine.Run(g, algorithms.Coloring(), cfg)
		}
		coloring(colors)
	case "pagerank":
		var pr []float64
		if c.gas {
			pr, o.res, o.rec, o.err = gas.Run(g, algorithms.PageRankGAS(g, eps), gcfg)
		} else {
			pr, o.res, o.rec, o.err = engine.Run(g, algorithms.PageRank(eps), cfg)
		}
		ranks(pr)
	case "pagerank-agg":
		var pr []float64
		pr, o.res, o.rec, o.err = engine.Run(g, algorithms.PageRankAggregated(eps), cfg)
		ranks(pr)
	case "sssp":
		var dist []float64
		if c.gas {
			dist, o.res, o.rec, o.err = gas.Run(g, algorithms.SSSPGAS(0), gcfg)
		} else {
			dist, o.res, o.rec, o.err = engine.Run(g, algorithms.SSSP(0), cfg)
		}
		o.vals = dist
		o.check = func() error { return equal(dist, algorithms.ShortestPaths(g, 0)) }
	case "wcc":
		var comp []int32
		if c.gas {
			comp, o.res, o.rec, o.err = gas.Run(g, algorithms.WCCGAS(), gcfg)
		} else {
			comp, o.res, o.rec, o.err = engine.Run(g, algorithms.WCC(), cfg)
		}
		o.vals = comp
		o.check = func() error { return equal(comp, algorithms.Components(g)) }
	case "mis-greedy":
		var states []int32
		states, o.res, o.rec, o.err = engine.Run(g, algorithms.MISGreedy(), cfg)
		o.vals = states
		o.check = func() error { return algorithms.ValidateMIS(g, states) }
	case "mis-luby":
		var lv []algorithms.LubyValue
		lv, o.res, o.rec, o.err = engine.Run(g, algorithms.MISLuby(7), cfg)
		o.vals = lv
		o.check = func() error { return algorithms.ValidateMIS(g, algorithms.LubyStates(lv)) }
	case "giraphx-token":
		// The in-algorithm token ring must see the map the engine runs on.
		pm := cfg.Partitioner(g, c.workers*cfg.PartitionsPerWorker, c.workers)
		cfg.Partitioner = func(*graph.Graph, int, int) *partition.Map { return pm }
		var tv []giraphx.TokenValue
		tv, o.res, o.rec, o.err = engine.Run(g, giraphx.TokenColoring(g, pm), cfg)
		colors := make([]int32, len(tv))
		for v := range tv {
			colors[v] = tv[v].Color
		}
		coloring(colors)
	case "giraphx-lock":
		var colors []int32
		colors, o.res, o.rec, o.err = engine.Run(g, giraphx.LockColoring(g), cfg)
		coloring(colors)
	default:
		log.Fatalf("benchtab: no oracle for algorithm %q", c.alg)
	}
	return o
}

// equal reports the first vertex where got differs from the oracle's want.
func equal[T comparable](got, want []T) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d values for %d vertices", len(got), len(want))
	}
	for v := range want {
		if got[v] != want[v] {
			return fmt.Errorf("vertex %d: got %v, oracle %v", v, got[v], want[v])
		}
	}
	return nil
}

// digest hashes a value slice's printed form; %v prints a float64 in its
// shortest round-trip form, so equal digests mean bitwise-equal answers.
func digest(vals any) uint64 {
	h := fnv.New64a()
	fmt.Fprint(h, vals)
	return h.Sum64()
}

func async(sync engine.Sync) engine.Config {
	return engine.Config{Mode: engine.Async, Sync: sync}
}

// placement builds engine.Config.Partitioner for a partitioner kind.
func placement(kind string) func(*graph.Graph, int, int) *partition.Map {
	return func(g *graph.Graph, p, w int) *partition.Map {
		m, err := partition.New(kind, g, p, w, 1)
		if err != nil {
			log.Fatal(err)
		}
		return m
	}
}

// experiment is one -exp name.
type experiment struct {
	name, title string
	run         func(h *harness, w io.Writer) []Row
}

// table runs a plain cell list and prints its rows with print.
func table(cells func(h *harness) []cell, print func(io.Writer, []Row)) func(*harness, io.Writer) []Row {
	return func(h *harness, w io.Writer) []Row {
		var rows []Row
		for _, c := range cells(h) {
			rows = append(rows, h.run(c))
		}
		print(w, rows)
		return rows
	}
}

// experiments in -exp all's order; all skips fig3, which is fig2's output.
var experiments = []experiment{
	{"table1", "Table 1: datasets (paper originals vs synthetic analogs)", table1},
	{"fig2", "Figures 2 and 3: coloring non-termination on the 4-vertex example", fig23},
	{"fig1", "Figure 1 (measured): parallelism vs communication spectrum on OR", table(fig1, printSpectrum)},
	{"fig6a", "Figure 6a: graph coloring computation times", table(fig6("coloring"), printRows)},
	{"fig6b", "Figure 6b: PageRank computation times", table(fig6("pagerank"), printRows)},
	{"fig6c", "Figure 6c: SSSP computation times", table(fig6("sssp"), printRows)},
	{"fig6d", "Figure 6d: WCC computation times", table(fig6("wcc"), printRows)},
	{"giraphx", "§7.3: Giraphx (in-algorithm) vs system-level techniques, coloring on OR", table(giraphxCells, printRows)},
	{"ablation-partitions", "Ablation (§7.1): partitions-per-worker sweep, partition-based locking", table(partitionsCells, printRows)},
	{"ablation-degenerate", "Ablation (§5.4): partition-based locking degenerating to vertex granularity", table(degenerateCells, printRows)},
	{"ablation-partitioner", "Ablation: partitioning quality (hash vs range vs LDG)", partitioner},
	{"ablation-combining", "Ablation: sender-side combining (Giraph combiner in the buffer cache)", table(combiningCells, printRows)},
	{"ablation-skip", "Ablation (§5.4): halted-partition skip optimization", table(skipCells, printRows)},
	{"mis", "Extension: serializable greedy MIS vs Luby's randomized MIS", table(misCells, printRows)},
	{"ablation-bap", "Ablation: barriered AP vs barrierless BAP (Giraph Unchained), partition locking", table(bapCells, printRows)},
	{"exclusion", "§7 exclusion: vertex-based locking on Giraph async vs GraphLab async", table(exclusionCells, printRows)},
	{"recovery", "§6.4: checkpoint overhead and crash-recovery cost, SSSP on OR", table(recoveryCells, printRows)},
	{"flow", "Bounded in-flight bytes: credit windows, BSP PageRank on UK", flow},
	{"partition", "Locality: streaming partitioners (hash vs LDG vs Fennel) across techniques", partitionQuality},
	{"fig3", "Figures 2 and 3: coloring non-termination on the 4-vertex example", fig23},
}

func main() {
	exp := flag.String("exp", "all", "experiment to run")
	scale := flag.Float64("scale", 1, "dataset scale factor")
	workersFlag := flag.String("workers", "16,32", "comma-separated cluster sizes")
	latency := flag.Duration("latency", 50*time.Microsecond, "simulated one-way network latency")
	verbose := flag.Bool("v", false, "print progress")
	jsonOut := flag.String("json", "", "also write all measured rows to this file as a JSON array")
	flag.Parse()

	var workers []int
	for _, f := range strings.Split(*workersFlag, ",") {
		w, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || w < 1 {
			log.Fatalf("bad -workers value %q", f)
		}
		workers = append(workers, w)
	}
	if *scale <= 0 {
		log.Fatalf("bad -scale value %v", *scale)
	}
	h := newHarness(*scale, workers, *latency)
	if *verbose {
		h.log = os.Stderr
	}

	rows, ran := []Row{}, false
	for _, e := range experiments {
		if e.name == *exp || *exp == "all" && e.name != "fig3" {
			fmt.Printf("== %s ==\n", e.title)
			rows = append(rows, e.run(h, os.Stdout)...)
			fmt.Println()
			ran = true
		}
	}
	if !ran {
		log.Fatalf("unknown experiment %q", *exp)
	}

	if *jsonOut != "" {
		b, err := json.MarshalIndent(rows, "", "  ")
		if err == nil {
			err = os.WriteFile(*jsonOut, append(b, '\n'), 0o644)
		}
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %d rows to %s\n", len(rows), *jsonOut)
	}
	if h.failures > 0 {
		fmt.Fprintf(os.Stderr, "benchtab: %d of %d cells or gates failed\n", h.failures, len(rows))
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchtab: %d cells, every answer checked\n", len(rows))
}

// printRows renders rows as an aligned table.
func printRows(w io.Writer, rows []Row) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "experiment\talgorithm\tdataset\tW\ttechnique\ttime\tsupersteps\texecs\tdata msgs\tdata KB\tctrl msgs\tforks\trollbacks\tcheck")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%d\t%s\t%v\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%s\n",
			r.Experiment, r.Algorithm, r.Dataset, r.Workers, r.Technique,
			r.Time.Round(time.Millisecond), r.Supersteps, r.Executions,
			r.DataMsgs, r.DataBytes/1024, r.CtrlMsgs, r.Forks, r.Metrics.Get(metrics.Rollbacks), r.Check)
	}
	tw.Flush()
}

// printSpectrum renders Fig. 1: parallelism against communication, with
// the algorithm on every row (the no-technique anchors run PageRank).
func printSpectrum(w io.Writer, rows []Row) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "technique\talgorithm\tpeak conc units\texecs/superstep\tctrl msgs\tdata batches\ttime\tcheck\t")
	for _, r := range rows {
		eps := "-"
		if r.Supersteps > 0 {
			eps = fmt.Sprintf("%.0f", float64(r.Executions)/float64(r.Supersteps))
		}
		fmt.Fprintf(tw, "%s\t%s\t%d\t%s\t%d\t%d\t%v\t%s\t\n",
			r.Technique, r.Algorithm, r.MaxConc, eps, r.CtrlMsgs, r.DataMsgs, r.Time.Round(time.Millisecond), r.Check)
	}
	tw.Flush()
}

// printPartition renders the locality rows with their quality report: the
// §5.3 class census (internal/local/remote/mixed), boundary and cut
// fractions, replication factor and balance skew next to the traffic each
// (technique, partitioner) cell generated.
func printPartition(w io.Writer, rows []Row) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "technique/partitioner\talg\tboundary\tcut\trepl\tskew\tcensus\tdata KB\ttime\tcheck")
	for _, r := range rows {
		q := r.Partition
		fmt.Fprintf(tw, "%s\t%s\t%.3f\t%.3f\t%.2f\t%.2f\ti=%d l=%d r=%d m=%d\t%d\t%v\t%s\n",
			r.Technique, r.Algorithm, q.BoundaryFraction, q.CutFraction,
			q.ReplicationFactor, q.BalanceSkew,
			q.PInternal, q.LocalBoundary, q.RemoteBoundary, q.MixedBoundary,
			r.DataBytes/1024, r.Time.Round(time.Millisecond), r.Check)
	}
	tw.Flush()
}

// table1 prints the dataset table: the paper's statistics next to the
// synthetic analogs actually used.
func table1(h *harness, w io.Writer) []Row {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "graph\tpaper |V|\tpaper |E|\tpaper maxdeg\tanalog |V|\tanalog |E| (und.)\tanalog maxdeg")
	for _, d := range generate.Catalog {
		s := graph.Summarize(h.graph(d.Name, false))
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\t%d (%d)\t%d\n",
			d.Name, d.PaperVertices, d.PaperEdges, d.PaperMaxDegree,
			s.Vertices, s.Edges, h.graph(d.Name, true).NumEdges(), s.MaxDegree)
	}
	tw.Flush()
	return nil
}

// fig23 prints the coloring non-termination of Figures 2 and 3 on the
// paper's 4-vertex example, and its resolution under serializability.
func fig23(_ *harness, w io.Writer) []Row {
	b := graph.NewBuilder(4)
	for _, e := range [][2]graph.VertexID{{0, 2}, {0, 3}, {1, 2}, {1, 3}} {
		b.AddEdge(e[0], e[1])
	}
	g := b.BuildUndirected()
	for _, f := range []struct {
		name, note string
		mode       engine.Mode
		sync       engine.Sync
		max        int
	}{
		{"figure 2  BSP:                ", "(oscillates forever)", engine.BSP, engine.SyncNone, 12},
		{"figure 3  AP (no sync):       ", "(may cycle; schedule dependent)", engine.Async, engine.SyncNone, 12},
		{"resolved  AP + partition lock:", "", engine.Async, engine.PartitionLock, 100},
	} {
		colors, res, _, err := engine.Run(g, algorithms.ColoringRecolor(), engine.Config{
			Workers: 2, PartitionsPerWorker: 1, Mode: f.mode, Sync: f.sync,
			MaxSupersteps: f.max, Seed: 1,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(w, "%s colors=%v after %d supersteps, converged=%v %s\n",
			f.name, colors, res.Supersteps, res.Converged, f.note)
	}
	return nil
}

// fig1 measures the spectrum of Figure 1 on OR: each technique's peak
// concurrency (parallelism) and control messages (communication). The
// maximal-parallelism anchor, no serializability at all, is PageRank under
// plain BSP and plain AP with a fixed 50-superstep budget (BSP PageRank
// oscillates rather than converging, so these rows are counts only).
func fig1(h *harness) []cell {
	w := h.workers[0]
	cs := []cell{
		{exp: "fig1", alg: "pagerank", ds: "OR", workers: w, countsOnly: true,
			cfg: engine.Config{Mode: engine.BSP, MaxSupersteps: 50}},
		{exp: "fig1", alg: "pagerank", ds: "OR", workers: w, countsOnly: true,
			cfg: engine.Config{Mode: engine.Async, MaxSupersteps: 50}},
	}
	for _, sync := range []engine.Sync{engine.TokenSingle, engine.TokenDual, engine.PartitionLock} {
		cs = append(cs, cell{exp: "fig1", alg: "coloring", ds: "OR", workers: w, cfg: async(sync)})
	}
	return append(cs, cell{exp: "fig1", alg: "coloring", ds: "OR", workers: w, gas: true})
}

// fig6 is one panel of Figure 6: the algorithm across datasets × cluster
// sizes × the three most performant technique/system combinations (§7:
// dual-layer token and partition-based locking on Giraph async,
// vertex-based locking on GraphLab async).
func fig6(alg string) func(h *harness) []cell {
	return func(h *harness) []cell {
		var cs []cell
		for _, ds := range []string{"OR", "TW", "UK"} {
			for _, w := range h.workers {
				cs = append(cs,
					cell{exp: "fig6-" + alg, alg: alg, ds: ds, workers: w, cfg: async(engine.TokenDual)},
					cell{exp: "fig6-" + alg, alg: alg, ds: ds, workers: w, cfg: async(engine.PartitionLock)},
					cell{exp: "fig6-" + alg, alg: alg, ds: ds, workers: w, gas: true})
			}
		}
		return cs
	}
}

// giraphxCells is the §7.3 comparison on OR: the in-algorithm Giraphx
// techniques on plain BSP against the system-level ones.
func giraphxCells(h *harness) []cell {
	w := h.workers[0]
	cs := []cell{
		{exp: "giraphx", alg: "giraphx-token", ds: "OR", workers: w,
			label: "giraphx-token (in-algorithm, BSP)",
			cfg: engine.Config{Mode: engine.BSP, PartitionsPerWorker: 1, MaxSupersteps: 100000,
				Partitioner: placement(partition.KindHash)}},
		{exp: "giraphx", alg: "giraphx-lock", ds: "OR", workers: w,
			label: "giraphx-lock (in-algorithm, BSP)",
			cfg:   engine.Config{Mode: engine.BSP, MaxSupersteps: 100000}},
	}
	for _, sync := range []engine.Sync{engine.TokenSingle, engine.TokenDual, engine.PartitionLock} {
		cs = append(cs, cell{exp: "giraphx", alg: "coloring", ds: "OR", workers: w, cfg: async(sync)})
	}
	return append(cs, cell{exp: "giraphx", alg: "coloring", ds: "OR", workers: w, gas: true})
}

// partitionsCells sweeps partitions per worker for partition-based locking
// (§7.1: Giraph's default is |W|; more partitions cut more edges and add
// forks, fewer restrict parallelism).
func partitionsCells(h *harness) []cell {
	w := h.workers[0]
	var cs []cell
	for _, ppw := range []int{1, w / 2, w, 2 * w, 4 * w} {
		if ppw < 1 {
			continue
		}
		cfg := async(engine.PartitionLock)
		cfg.PartitionsPerWorker = ppw
		cs = append(cs, cell{exp: "ablation-partitions", alg: "pagerank", ds: "OR", workers: w, cfg: cfg,
			label: fmt.Sprintf("partition-lock ppw=%d (|P|=%d)", ppw, ppw*w)})
	}
	return cs
}

// degenerateCells compares partition-based locking at its |P| → |V|
// extreme with its default |P| and with vertex-based locking on the GAS
// engine (§5.4: with one vertex per partition the techniques coincide).
func degenerateCells(h *harness) []cell {
	w := h.workers[0]
	ppw := (h.graph("OR", true).NumVertices() + w - 1) / w
	cfg := async(engine.PartitionLock)
	cfg.PartitionsPerWorker = ppw
	return []cell{
		{exp: "ablation-degenerate", alg: "coloring", ds: "OR", workers: w, cfg: cfg,
			label: fmt.Sprintf("partition-lock |P|=%d≈|V|", ppw*w)},
		{exp: "ablation-degenerate", alg: "coloring", ds: "OR", workers: w, cfg: async(engine.PartitionLock)},
		{exp: "ablation-degenerate", alg: "coloring", ds: "OR", workers: w, gas: true},
	}
}

// partitioner compares random hash, range and LDG placement under
// partition-based locking: better placement cuts fewer edges, which means
// fewer forks and smaller flushes.
func partitioner(h *harness, w io.Writer) []Row {
	var rows []Row
	for _, kind := range []string{partition.KindHash, partition.KindRange, partition.KindLDG} {
		cfg := async(engine.PartitionLock)
		cfg.Partitioner = placement(kind)
		r := h.run(cell{exp: "ablation-partitioner", alg: "pagerank", ds: "OR", workers: h.workers[0], cfg: cfg, label: kind})
		r.Technique = fmt.Sprintf("%s (cut %.0f%%)", kind, 100*r.Partition.CutFraction)
		rows = append(rows, r)
	}
	printRows(w, rows)
	return rows
}

// onOff is a pair of SSSP cells on OR under partition-based locking, with
// an engine knob left on and then turned off.
func onOff(exp, name string, off func(*engine.Config)) func(h *harness) []cell {
	return func(h *harness) []cell {
		on, offCfg := async(engine.PartitionLock), async(engine.PartitionLock)
		off(&offCfg)
		return []cell{
			{exp: exp, alg: "sssp", ds: "OR", workers: h.workers[0], cfg: on, label: name + " on"},
			{exp: exp, alg: "sssp", ds: "OR", workers: h.workers[0], cfg: offCfg, label: name + " off"},
		}
	}
}

// combiningCells measures sender-side combining on SSSP (the min-combiner
// algorithm); skipCells the §5.4 halted-partition skip.
var (
	combiningCells = onOff("ablation-combining", "sender-combine",
		func(c *engine.Config) { c.DisableSenderCombine = true })
	skipCells = onOff("ablation-skip", "halted-partition skip",
		func(c *engine.Config) { c.DisableHaltedPartitionSkip = true })
)

// misCells contrasts the serializable one-pass greedy MIS with Luby's
// non-serializable randomized MIS.
func misCells(h *harness) []cell {
	w := h.workers[0]
	return []cell{
		{exp: "mis", alg: "mis-greedy", ds: "OR", workers: w, cfg: async(engine.PartitionLock),
			label: "partition-lock (serializable)"},
		{exp: "mis", alg: "mis-luby", ds: "OR", workers: w, cfg: engine.Config{Mode: engine.BSP},
			label: "BSP (no serializability needed)"},
	}
}

// bapCells compares the barriered AP engine with the barrierless BAP
// engine (Giraph Unchained's model) under partition-based locking.
func bapCells(h *harness) []cell {
	w := h.workers[0]
	return []cell{
		{exp: "ablation-bap", alg: "pagerank", ds: "OR", workers: w, cfg: async(engine.PartitionLock),
			label: "AP (global barriers)"},
		{exp: "ablation-bap", alg: "pagerank", ds: "OR", workers: w,
			cfg:   engine.Config{Mode: engine.BAP, Sync: engine.PartitionLock},
			label: "BAP (barrierless)"},
	}
}

// exclusionCells reproduces the claim that opens §7: vertex-based locking
// on the partition-aware (Giraph async) engine against the fiber-based GAS
// engine, with partition-based locking for reference.
func exclusionCells(h *harness) []cell {
	w := h.workers[0]
	return []cell{
		{exp: "exclusion", alg: "coloring", ds: "OR", workers: w, cfg: async(engine.VertexLockGiraph),
			label: "vertex-lock on Giraph async (excluded in §7)"},
		{exp: "exclusion", alg: "coloring", ds: "OR", workers: w, gas: true},
		{exp: "exclusion", alg: "coloring", ds: "OR", workers: w, cfg: async(engine.PartitionLock)},
	}
}

// recoveryCells measures the §6.4 fault-tolerance costs: SSSP under
// partition-based locking without checkpoints, with checkpoints every 2
// supersteps, with the message log confined recovery needs, and with one
// worker crash recovered by a full rollback and by confined recovery.
func recoveryCells(h *harness) []cell {
	w := h.workers[0]
	c := func(label string, every int, crash bool, mode engine.RecoveryMode) cell {
		cfg := async(engine.PartitionLock)
		cfg.CheckpointEvery, cfg.Recovery = every, mode
		if crash {
			cfg.Fault = fault.NewInjector(fault.Plan{
				Crashes: []fault.Crash{{Worker: w - 1, AtSuperstep: 1}}, Seed: 7})
		}
		return cell{exp: "recovery", alg: "sssp", ds: "OR", workers: w, cfg: cfg, label: label}
	}
	return []cell{
		c("no-checkpoint", 0, false, engine.RecoverFull),
		c("checkpoint", 2, false, engine.RecoverFull),
		c("checkpoint+log", 2, false, engine.RecoverConfined),
		c("checkpoint+crash-full", 2, true, engine.RecoverFull),
		c("checkpoint+crash-confined", 2, true, engine.RecoverConfined),
	}
}

// flow measures the credit windows (DESIGN.md §12) on UK: BSP PageRank
// unbounded, and with a 64 KiB budget, which puts every per-ordered-pair
// window at its floor. Gates: bitwise-equal answers in equal superstep
// counts. Each cell reports the time its senders waited on credit.
func flow(h *harness, w io.Writer) []Row {
	workers := h.workers[0]
	c := func(label string, budget int64) cell {
		return cell{exp: "flow", alg: "pagerank-agg", ds: "UK", workers: workers, label: label,
			cfg: engine.Config{Mode: engine.BSP, MaxSupersteps: 100000, MsgMemoryBudget: budget,
				Partitioner: placement(partition.KindHash)}}
	}
	const floorBudget = 64 << 10
	base := h.run(c("unbounded", 0))
	tight := h.run(c("window-floor", floorBudget))
	rows := []Row{base, tight}
	printRows(w, rows)
	for _, r := range rows {
		fmt.Fprintf(w, "flow: %s credit_wait_ns=%d\n", r.Technique, r.Metrics.Get(metrics.CreditWaitNs))
	}

	if base.Answer != tight.Answer || base.Supersteps != tight.Supersteps {
		h.failf("flow: PageRank at the window floor (%d supersteps) differs from unbounded (%d)",
			tight.Supersteps, base.Supersteps)
	}
	return rows
}

// partitionQuality is the locality experiment: on the community graph,
// BSP PageRank and the serializable coloring spectrum under hash, LDG and
// Fennel placement at the same partition count. Gates, for LDG and Fennel
// against hash: max load within the streaming capacity, boundary fraction
// and cross-partition bytes each at least 25% lower, and the BSP PageRank
// answer bitwise equal in the same number of supersteps.
func partitionQuality(h *harness, w io.Writer) []Row {
	workers := h.workers[0]
	g := h.graph("community", true)
	capacity := partition.StreamOptions{}.Capacity(g.NumVertices(), workers*workers)
	h.logf("partition: community graph n=%d m=%d, P=%d, capacity=%d",
		g.NumVertices(), g.NumEdges(), workers*workers, capacity)
	var rows []Row
	var hash Row
	for _, kind := range []string{partition.KindHash, partition.KindLDG, partition.KindFennel} {
		cfg := engine.Config{Mode: engine.BSP, MaxSupersteps: 2000, Partitioner: placement(kind)}
		pr := h.run(cell{exp: "partition", alg: "pagerank-agg", ds: "community", workers: workers,
			cfg: cfg, label: "bsp-none/" + kind})
		rows = append(rows, pr)
		if kind == partition.KindHash {
			hash = pr
		} else {
			q, hq := pr.Partition, hash.Partition
			if q.MaxLoad > capacity {
				h.failf("partition: %s max load %d exceeds the streaming capacity %d", kind, q.MaxLoad, capacity)
			}
			if q.BoundaryFraction > 0.75*hq.BoundaryFraction {
				h.failf("partition: %s boundary fraction %.4f is not 25%% below hash's %.4f",
					kind, q.BoundaryFraction, hq.BoundaryFraction)
			}
			if float64(pr.DataBytes) > 0.75*float64(hash.DataBytes) {
				h.failf("partition: %s cross-partition bytes %d are not 25%% below hash's %d",
					kind, pr.DataBytes, hash.DataBytes)
			}
			if pr.Supersteps != hash.Supersteps || pr.Answer != hash.Answer {
				h.failf("partition: BSP PageRank under %s (%d supersteps) differs from hash (%d)",
					kind, pr.Supersteps, hash.Supersteps)
			}
		}
		for _, sync := range []engine.Sync{engine.TokenSingle, engine.TokenDual, engine.PartitionLock} {
			cfg := async(sync)
			cfg.MaxSupersteps, cfg.Partitioner = 2000, placement(kind)
			rows = append(rows, h.run(cell{exp: "partition", alg: "coloring", ds: "community",
				workers: workers, cfg: cfg, label: sync.String() + "/" + kind}))
		}
	}
	printPartition(w, rows)
	return rows
}

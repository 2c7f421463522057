// Package bench regenerates every table and figure of the paper's
// evaluation (§7) on the synthetic dataset analogs: Table 1 (datasets),
// Figure 1 (the parallelism/communication spectrum, measured), Figures 2
// and 3 (coloring non-termination), Figure 6a–d (computation times for
// coloring, PageRank, SSSP, and WCC across datasets, cluster sizes, and
// techniques), the §7.3 Giraphx comparison, and the ablations discussed in
// §5.4 and §7.1.
//
// Absolute numbers differ from the paper (the cluster is simulated and the
// datasets are scaled), but the comparisons the paper draws — which
// technique wins, by roughly what factor, and how that changes with scale
// — are reproduced and recorded in EXPERIMENTS.md.
package bench

import (
	"fmt"
	"io"
	"os"
	"strconv"
	"text/tabwriter"
	"time"

	"serialgraph/internal/algorithms"
	"serialgraph/internal/cluster"
	"serialgraph/internal/engine"
	"serialgraph/internal/gas"
	"serialgraph/internal/generate"
	"serialgraph/internal/graph"
	"serialgraph/internal/metrics"
	"serialgraph/internal/model"
	"serialgraph/internal/partition"
)

// Row is one measurement. The JSON field names are a stable schema: the
// BENCH_NNNN.json files at the repo root record them across commits, so
// renaming a key is a breaking change. Time-valued keys end in _ns so
// golden tests can mask exactly the wall-clock-dependent fields.
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
	Rollbacks  int           `json:"rollbacks"`
	Recomputed int           `json:"recomputed"`
	// RecomputedParts counts partition×superstep recompute units — the
	// confined-vs-full comparison axis: a confined recovery replays only
	// the crashed workers' partitions, a full rollback all of them.
	RecomputedParts int `json:"recomputed_partition_supersteps"`
	// Confined counts rollbacks that were handled by confined recovery.
	Confined  int  `json:"confined_recoveries"`
	Converged bool `json:"converged"`
	// WireBytes is the encoded byte count actually written to a real
	// socket transport; zero (and omitted) for the simulated in-process
	// cluster, where DataBytes is the modeled traffic instead.
	WireBytes int64 `json:"wire_bytes,omitempty"`
	// Partition is the run's placement quality report: edge cut, the
	// §5.3 class census, replication factor, and balance skew. Nil for
	// GAS rows recorded before the GAS engine reported quality.
	Partition *partition.Quality `json:"partition,omitempty"`
	// Metrics is the engine's registry snapshot: counters, aggregate
	// phase timers, histograms. Nil for GAS rows — the GAS engine is not
	// instrumented.
	Metrics *metrics.Snapshot `json:"metrics,omitempty"`
	// Trace is the per-superstep phase breakdown, present when the run
	// was made with Config.Trace (engine DetailedStats).
	Trace []engine.SuperstepStat `json:"trace,omitempty"`
}

// Config tunes the whole suite.
type Config struct {
	// Scale multiplies the catalog dataset sizes (default 1.0). The
	// environment variable SERIALGRAPH_SCALE overrides it for `go test
	// -bench` runs.
	Scale float64
	// Workers lists the simulated cluster sizes (default 16 and 32, the
	// paper's).
	Workers []int
	// Latency and Bandwidth describe the simulated network (defaults 50µs
	// and 1 GiB/s).
	Latency   time.Duration
	Bandwidth float64
	// Datasets to run (default OR, TW, UK — the figures' set; the paper
	// moves AR to its technical report for space).
	Datasets []string
	// Threshold pairs for PageRank per dataset, as in §7.2.2.
	// Log, when non-nil, receives progress lines.
	Log io.Writer
	// Trace turns on the engine's per-superstep stats (DetailedStats) so
	// rows carry a superstep-by-superstep phase breakdown. Costs one
	// registry snapshot per superstep; leave off for timing runs.
	Trace bool
}

func (c Config) withDefaults() Config {
	if c.Scale <= 0 {
		c.Scale = 1
		if s := os.Getenv("SERIALGRAPH_SCALE"); s != "" {
			if f, err := strconv.ParseFloat(s, 64); err == nil && f > 0 {
				c.Scale = f
			}
		}
	}
	if len(c.Workers) == 0 {
		c.Workers = []int{16, 32}
	}
	if c.Latency == 0 {
		c.Latency = 50 * time.Microsecond
	}
	if c.Bandwidth == 0 {
		c.Bandwidth = 1 << 30
	}
	if len(c.Datasets) == 0 {
		c.Datasets = []string{"OR", "TW", "UK"}
	}
	return c
}

func (c Config) logf(format string, args ...any) {
	if c.Log != nil {
		fmt.Fprintf(c.Log, format+"\n", args...)
	}
}

func (c Config) latencyModel() cluster.LatencyModel {
	return cluster.LatencyModel{Propagation: c.Latency, BytesPerSec: c.Bandwidth}
}

// prThreshold mirrors §7.2.2: 0.01 for OR and AR, 0.1 for TW and UK.
func prThreshold(dataset string) float64 {
	if dataset == "OR" || dataset == "AR" {
		return 0.01
	}
	return 0.1
}

// graphs caches built datasets per (name, directedness).
type graphCache struct {
	cfg Config
	dir map[string]*graph.Graph
	und map[string]*graph.Graph
}

func newGraphCache(cfg Config) *graphCache {
	return &graphCache{cfg: cfg, dir: map[string]*graph.Graph{}, und: map[string]*graph.Graph{}}
}

func (gc *graphCache) directed(name string) *graph.Graph {
	if g, ok := gc.dir[name]; ok {
		return g
	}
	d, err := generate.ByName(name)
	if err != nil {
		panic(err)
	}
	g := d.Build(gc.cfg.Scale)
	gc.dir[name] = g
	return g
}

func (gc *graphCache) undirected(name string) *graph.Graph {
	if g, ok := gc.und[name]; ok {
		return g
	}
	g := graph.Symmetrize(gc.directed(name))
	gc.und[name] = g
	return g
}

// runPregel executes a Pregel algorithm under one technique on the Async
// engine and records a row.
func (c Config) runPregel(exp, alg, ds string, g *graph.Graph, workers int, sync engine.Sync, mk func() any) Row {
	return c.runPregelMode(exp, alg, ds, g, workers, engine.Async, sync, 0, mk)
}

// runPregelMode is runPregel with an explicit computation mode and an
// optional superstep budget (0 = run to convergence). Rows for SyncNone
// runs carry a mode-qualified technique label ("bsp-none", "async-none")
// because without a synchronization technique the mode is the
// distinguishing coordinate.
func (c Config) runPregelMode(exp, alg, ds string, g *graph.Graph, workers int, mode engine.Mode, sync engine.Sync, maxSteps int, mk func() any) Row {
	cfg := engine.Config{
		Workers: workers, Mode: mode, Sync: sync,
		Latency: c.latencyModel(), Seed: 1, DetailedStats: c.Trace,
		MaxSupersteps: maxSteps,
	}
	var res engine.Result
	var err error
	switch p := mk().(type) {
	case model.Program[int32, int32]:
		_, res, _, err = engine.Run(g, p, cfg)
	case model.Program[float64, float64]:
		_, res, _, err = engine.Run(g, p, cfg)
	default:
		panic("bench: unsupported program type")
	}
	if err != nil {
		panic(err)
	}
	technique := sync.String()
	if sync == engine.SyncNone {
		technique = mode.String() + "-none"
	}
	m := res.Metrics
	q := res.Partition
	return Row{
		Experiment: exp, Algorithm: alg, Dataset: ds, Workers: workers,
		Technique: technique, Time: res.ComputeTime, Supersteps: res.Supersteps,
		Executions: res.Executions, DataMsgs: res.Net.DataMessages, DataBytes: res.Net.DataBytes,
		CtrlMsgs: res.Net.ControlMessages, Forks: res.ForkSends, MaxConc: res.MaxConcurrency,
		Converged: res.Converged, WireBytes: res.Net.WireBytesSent, Partition: &q,
		Metrics: &m, Trace: res.SuperstepStats,
	}
}

// runGAS executes a GAS algorithm under vertex-based locking and records a
// row.
func (c Config) runGAS(exp, alg, ds string, g *graph.Graph, workers int, mk func() any) Row {
	cfg := gas.Config{
		Workers: workers, Serializable: true,
		Latency: c.latencyModel(), Seed: 1,
	}
	var res engine.Result
	var err error
	switch p := mk().(type) {
	case model.GASProgram[int32, []int32]:
		_, res, _, err = gas.Run(g, p, cfg)
	case model.GASProgram[int32, int32]:
		_, res, _, err = gas.Run(g, p, cfg)
	case model.GASProgram[float64, float64]:
		_, res, _, err = gas.Run(g, p, cfg)
	default:
		panic("bench: unsupported GAS program type")
	}
	if err != nil {
		panic(err)
	}
	q := res.Partition
	return Row{
		Experiment: exp, Algorithm: alg, Dataset: ds, Workers: workers,
		Technique: "vertex-lock (GAS)", Time: res.ComputeTime,
		Executions: res.Executions, DataMsgs: res.Net.DataMessages, DataBytes: res.Net.DataBytes,
		CtrlMsgs: res.Net.ControlMessages, Forks: res.ForkSends, MaxConc: res.MaxConcurrency,
		Converged: res.Converged, Partition: &q,
	}
}

// Fig6 regenerates one panel of Figure 6: the named algorithm across
// datasets × cluster sizes × the three most performant technique/system
// combinations (§7: dual-layer token and partition-based locking on Giraph
// async, vertex-based locking on GraphLab async).
func Fig6(alg string, cfg Config) []Row {
	cfg = cfg.withDefaults()
	gc := newGraphCache(cfg)
	exp := "fig6-" + alg
	var rows []Row
	for _, ds := range cfg.Datasets {
		for _, w := range cfg.Workers {
			var g *graph.Graph
			var mkPregel, mkGAS func() any
			switch alg {
			case "coloring":
				g = gc.undirected(ds)
				mkPregel = func() any { return algorithms.Coloring() }
				mkGAS = func() any { return algorithms.ColoringGAS() }
			case "pagerank":
				g = gc.directed(ds)
				eps := prThreshold(ds)
				mkPregel = func() any { return algorithms.PageRank(eps) }
				mkGAS = func() any { return algorithms.PageRankGAS(g, eps) }
			case "sssp":
				g = gc.directed(ds)
				mkPregel = func() any { return algorithms.SSSP(0) }
				mkGAS = func() any { return algorithms.SSSPGAS(0) }
			case "wcc":
				g = gc.undirected(ds)
				mkPregel = func() any { return algorithms.WCC() }
				mkGAS = func() any { return algorithms.WCCGAS() }
			default:
				panic("bench: unknown algorithm " + alg)
			}
			for _, sync := range []engine.Sync{engine.TokenDual, engine.PartitionLock} {
				cfg.logf("fig6 %s %s W=%d %v ...", alg, ds, w, sync)
				rows = append(rows, cfg.runPregel(exp, alg, ds, g, w, sync, mkPregel))
			}
			cfg.logf("fig6 %s %s W=%d vertex-lock (GAS) ...", alg, ds, w)
			rows = append(rows, cfg.runGAS(exp, alg, ds, g, w, mkGAS))
		}
	}
	return rows
}

// Print renders rows as an aligned table.
func Print(w io.Writer, rows []Row) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "experiment\talgorithm\tdataset\tW\ttechnique\ttime\tsupersteps\texecs\tdata msgs\tdata KB\tctrl msgs\tforks\trollbacks\tconverged")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%d\t%s\t%v\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%v\n",
			r.Experiment, r.Algorithm, r.Dataset, r.Workers, r.Technique,
			r.Time.Round(time.Millisecond), r.Supersteps, r.Executions,
			r.DataMsgs, r.DataBytes/1024, r.CtrlMsgs, r.Forks, r.Rollbacks, r.Converged)
	}
	tw.Flush()
}

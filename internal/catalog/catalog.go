// Package catalog is the one table of the algorithms the tools run
// (graphrun in and across processes, benchtab, the torture harness). An
// entry holds what a tool needs to run and judge an algorithm without
// knowing its value type: the input shape, the Pregel program built from
// the job's parameters, the GAS form if there is one, the serial oracle,
// and the flags that say where the oracle and the serializability checker
// apply (§3.3's write-all). A program is written once and runs unchanged
// under every engine and technique (§6.5); the table is where that is
// true for the tools. The fixed benchmark keeps its own list of the
// programs it times.
package catalog

import (
	"fmt"
	"net"
	"slices"

	"serialgraph/internal/algorithms"
	"serialgraph/internal/dist"
	"serialgraph/internal/engine"
	"serialgraph/internal/gas"
	"serialgraph/internal/giraphx"
	"serialgraph/internal/graph"
	"serialgraph/internal/history"
	"serialgraph/internal/model"
	"serialgraph/internal/partition"
)

// Params are the job parameters an entry builds its program from; each
// entry reads the ones it needs.
type Params struct {
	Source graph.VertexID // SSSP's source vertex
	Eps    float64        // PageRank's tolerance
	Seed   uint64         // Luby MIS's random seed
	// Map is the run's partition map. The catalog fills it, and pins the
	// run to it, for an entry whose program reads it (giraphx-token's
	// in-algorithm token ring).
	Map *partition.Map
	// Margin relaxes the tolerance-halting PageRank's oracle for a run
	// under a randomized schedule: a vertex that no message reaches keeps
	// its first rank, and one may re-execute with several changes under
	// eps it never sent, so the residual may reach Margin × the bound over
	// the vertices with in-neighbours. Zero holds every vertex to the bound.
	Margin float64
}

// JobParams are the parameters of a multi-process job.
func JobParams(job dist.Job) Params {
	return Params{Source: graph.VertexID(job.Source), Eps: job.Eps, Seed: job.Seed}
}

// Output is one run's answer with its value type erased.
type Output struct {
	Values  any // the final vertex values: a slice indexed by vertex
	Result  engine.Result
	History *history.Recorder // nil unless the run recorded one
	check   oracle            // the oracle of the form that ran
}

// Check judges a converged run's values on g, with the parameters it ran
// with, against the serial oracle of the form that ran.
func (o Output) Check(g *graph.Graph, p Params) error { return o.check(g, p, o.Values) }

// Entry is one algorithm.
type Entry struct {
	Name string
	// Undirected: the input must be symmetrized (§7.2.1).
	Undirected bool
	// WriteAll: the Pregel program sends every value it writes (§3.3), so
	// the history of a run under a serializable technique passes
	// history.CheckAll. Every GAS form is write-all: a gather reads the
	// replica that its neighbour's apply last updated.
	WriteAll bool
	// WriteAllForm names the write-all entry that computes the same answer,
	// for a run that needs every write sent: one whose history is checked,
	// or one under BSP, whose stores keep a message one superstep only.
	WriteAllForm string
	// Unique: every converged run gives the same answer, whatever the
	// mode, technique or schedule.
	Unique bool
	// Serial: the oracle holds only for a run under a serializable
	// technique; without one, neighbours may decide together (§3).
	Serial bool
	// BSP: the program runs only under BSP with no technique, because it
	// synchronizes itself (its supersteps are its rounds).
	BSP bool

	readsMap bool // the program reads Params.Map
	pregel   form
	gas      func(*graph.Graph, Params, gas.Config) (Output, error) // nil: no GAS form
	check    oracle
	gasCheck oracle // the GAS form's oracle; nil: check
}

// oracle judges a converged run's values on g: nil, or why they are wrong.
type oracle func(g *graph.Graph, p Params, values any) error

// Run runs the entry's Pregel program on g under cfg.
func (e *Entry) Run(g *graph.Graph, p Params, cfg engine.Config) (Output, error) {
	if err := e.supports(cfg); err != nil {
		return Output{}, err
	}
	p, cfg = e.place(g, p, cfg)
	out, err := e.pregel.run(g, p, cfg)
	out.check = e.check
	return out, err
}

// HasGAS reports whether the entry has a GAS form.
func (e *Entry) HasGAS() bool { return e.gas != nil }

// RunGAS runs the entry's GAS form on g under cfg.
func (e *Entry) RunGAS(g *graph.Graph, p Params, cfg gas.Config) (Output, error) {
	if e.gas == nil {
		return Output{}, fmt.Errorf("catalog: %s has no GAS form", e.Name)
	}
	out, err := e.gas(g, p, cfg)
	out.check = e.check
	if e.gasCheck != nil {
		out.check = e.gasCheck
	}
	return out, err
}

// Coordinate runs the coordinator of a multi-process job of the entry
// job.Alg names on g, the graph dist.BuildGraph(job) gives
// (dist.Coordinate).
func Coordinate(ln net.Listener, job dist.Job, g *graph.Graph) (Output, error) {
	e, err := Lookup(job.Alg)
	if err != nil {
		return Output{}, err
	}
	p, cfg, err := e.jobConfig(g, job)
	if err != nil {
		return Output{}, err
	}
	out, err := e.pregel.coordinate(ln, job, g, p, cfg)
	out.check = e.check
	return out, err
}

// Serve runs, in the worker process of s, the program of the entry its
// job names (dist.Serve); dist.Work(addr, Serve) is a worker process.
func Serve(s *dist.Session) error {
	e, err := Lookup(s.Job.Alg)
	if err != nil {
		return err
	}
	g, err := dist.BuildGraph(s.Job)
	if err != nil {
		return err
	}
	p, cfg, err := e.jobConfig(g, s.Job)
	if err != nil {
		return err
	}
	return e.pregel.serve(s, g, p, cfg)
}

// jobConfig is the engine configuration and parameters every process of
// job derives for the entry (engine.JobConfig).
func (e *Entry) jobConfig(g *graph.Graph, job dist.Job) (Params, engine.Config, error) {
	cfg, err := engine.JobConfig(job)
	if err == nil {
		err = e.supports(cfg)
	}
	if err != nil {
		return Params{}, cfg, err
	}
	p, cfg := e.place(g, JobParams(job), cfg)
	return p, cfg, nil
}

func (e *Entry) supports(cfg engine.Config) error {
	if e.BSP && (cfg.Mode != engine.BSP || cfg.Sync != engine.SyncNone) {
		return fmt.Errorf("catalog: %s runs only under bsp with no technique, not %v with %v", e.Name, cfg.Mode, cfg.Sync)
	}
	return nil
}

// place gives an entry whose program reads the partition map the map cfg
// places g by, and pins cfg to it.
func (e *Entry) place(g *graph.Graph, p Params, cfg engine.Config) (Params, engine.Config) {
	if e.readsMap {
		pm := cfg.PartitionMap(g)
		p.Map = pm
		cfg.Partitioner = func(*graph.Graph, int, int) *partition.Map { return pm }
	}
	return p, cfg
}

// Entries lists every entry, in the order Names gives.
func Entries() []*Entry { return entries }

// Names lists the entries' names.
func Names() []string {
	names := make([]string, len(entries))
	for i, e := range entries {
		names[i] = e.Name
	}
	return names
}

// Lookup returns the entry called name.
func Lookup(name string) (*Entry, error) {
	if i := slices.IndexFunc(entries, func(e *Entry) bool { return e.Name == name }); i >= 0 {
		return entries[i], nil
	}
	return nil, fmt.Errorf("catalog: unknown algorithm %q (want one of %v)", name, Names())
}

// Fixture returns an entry outside the table, for a test's own program:
// e's name and flags, the program build returns, and check as its oracle.
func Fixture[V, M any](e Entry, build func() model.Program[V, M], check func(*graph.Graph, []V) error) *Entry {
	e.pregel = program(build)
	e.check = typed(func(g *graph.Graph, _ Params, vals []V) error { return check(g, vals) })
	return &e
}

// form is a Pregel program with its value and message types erased: run
// in process, or across processes as a worker or the coordinator.
type form struct {
	run        func(g *graph.Graph, p Params, cfg engine.Config) (Output, error)
	serve      func(s *dist.Session, g *graph.Graph, p Params, cfg engine.Config) error
	coordinate func(ln net.Listener, job dist.Job, g *graph.Graph, p Params, cfg engine.Config) (Output, error)
}

// pregel is the form of the programs build returns. view, if not nil,
// turns the engine's values into the ones the entry reports and judges.
func pregel[V, M any](build func(*graph.Graph, Params) model.Program[V, M], view func([]V) any) form {
	if view == nil {
		view = func(vals []V) any { return vals }
	}
	return form{
		run: func(g *graph.Graph, p Params, cfg engine.Config) (Output, error) {
			vals, res, rec, err := engine.Run(g, build(g, p), cfg)
			return Output{Values: view(vals), Result: res, History: rec}, err
		},
		serve: func(s *dist.Session, g *graph.Graph, p Params, cfg engine.Config) error {
			return dist.Serve(s, g, build(g, p), cfg)
		},
		coordinate: func(ln net.Listener, job dist.Job, g *graph.Graph, p Params, cfg engine.Config) (Output, error) {
			vals, res, err := dist.Coordinate(ln, job, build(g, p), cfg, g.NumVertices())
			return Output{Values: view(vals), Result: res}, err
		},
	}
}

// program is the Pregel form of a program that reads no parameter.
func program[V, M any](build func() model.Program[V, M]) form {
	return pregel(func(*graph.Graph, Params) model.Program[V, M] { return build() }, nil)
}

// gasForm is the GAS form of the programs build returns.
func gasForm[V comparable, M any](build func(*graph.Graph, Params) model.GASProgram[V, M]) func(*graph.Graph, Params, gas.Config) (Output, error) {
	return func(g *graph.Graph, p Params, cfg gas.Config) (Output, error) {
		vals, res, rec, err := gas.Run(g, build(g, p), cfg)
		return Output{Values: vals, Result: res, History: rec}, err
	}
}

// gasProgram is the GAS form of a program that reads no parameter.
func gasProgram[V comparable, M any](build func() model.GASProgram[V, M]) func(*graph.Graph, Params, gas.Config) (Output, error) {
	return gasForm(func(*graph.Graph, Params) model.GASProgram[V, M] { return build() })
}

// typed erases the value type of an oracle on []V.
func typed[V any](check func(*graph.Graph, Params, []V) error) oracle {
	return func(g *graph.Graph, p Params, values any) error {
		vals, ok := values.([]V)
		if !ok {
			return fmt.Errorf("catalog: values are %T, want %T", values, vals)
		}
		if len(vals) != g.NumVertices() {
			return fmt.Errorf("%d values for %d vertices", len(vals), g.NumVertices())
		}
		return check(g, p, vals)
	}
}

// equal reports the first vertex where got differs from the oracle's want.
func equal[T comparable](got, want []T) error {
	for v := range want {
		if got[v] != want[v] {
			return fmt.Errorf("vertex %d: got %v, oracle %v", v, got[v], want[v])
		}
	}
	return nil
}

var proper = typed(func(g *graph.Graph, _ Params, colors []int32) error {
	return algorithms.ValidateColoring(g, colors)
})

// ranks is the PageRank oracle: every vertex's equation holds, by
// residual, within algorithms.PageRankBound.
var ranks = typed(func(g *graph.Graph, p Params, pr []float64) error {
	return within(algorithms.PageRankResidual(g, pr), algorithms.PageRankBound(g, p.Eps))
})

func within(residual, bound float64) error {
	if residual > bound {
		return fmt.Errorf("pagerank residual %.3g exceeds %.3g", residual, bound)
	}
	return nil
}

var entries = []*Entry{
	{
		Name: "coloring", Undirected: true, WriteAll: true, Serial: true,
		pregel: program(algorithms.Coloring),
		gas:    gasProgram(algorithms.ColoringGAS),
		check:  proper,
	},
	{
		// The textbook colouring of Figures 2 and 3: every execution picks
		// again, so without serializability it may never settle.
		Name: "recolor", Undirected: true, WriteAll: true, Serial: true,
		pregel: program(algorithms.ColoringRecolor),
		check:  proper,
	},
	{
		// Tolerance-halting PageRank (§7.2.2): a change under eps is kept,
		// not sent.
		Name: "pagerank", WriteAllForm: "pagerank-agg",
		pregel: pregel(func(_ *graph.Graph, p Params) model.Program[float64, float64] {
			return algorithms.PageRank(p.Eps)
		}, nil),
		gas: gasForm(func(g *graph.Graph, p Params) model.GASProgram[float64, float64] {
			return algorithms.PageRankGAS(g, p.Eps)
		}),
		check: typed(func(g *graph.Graph, p Params, pr []float64) error {
			if p.Margin == 0 {
				return within(algorithms.PageRankResidual(g, pr), algorithms.PageRankBound(g, p.Eps))
			}
			return within(algorithms.PageRankReachedResidual(g, pr), p.Margin*algorithms.PageRankBound(g, p.Eps))
		}),
		gasCheck: ranks,
	},
	{
		// Every vertex sends every superstep; the master halts the run once
		// the summed change falls under eps.
		Name: "pagerank-agg", WriteAll: true,
		pregel: pregel(func(_ *graph.Graph, p Params) model.Program[float64, float64] {
			return algorithms.PageRankAggregated(p.Eps)
		}, nil),
		check: ranks,
	},
	{
		Name: "sssp", WriteAll: true, Unique: true,
		pregel: pregel(func(_ *graph.Graph, p Params) model.Program[float64, float64] {
			return algorithms.SSSP(p.Source)
		}, nil),
		gas: gasForm(func(_ *graph.Graph, p Params) model.GASProgram[float64, float64] {
			return algorithms.SSSPGAS(p.Source)
		}),
		check: typed(func(g *graph.Graph, p Params, dist []float64) error {
			return equal(dist, algorithms.ShortestPaths(g, p.Source))
		}),
	},
	{
		Name: "wcc", Undirected: true, WriteAll: true, Unique: true,
		pregel: program(algorithms.WCC),
		gas:    gasProgram(algorithms.WCCGAS),
		check: typed(func(g *graph.Graph, _ Params, comp []int32) error {
			return equal(comp, algorithms.Components(g))
		}),
	},
	{
		Name: "mis-greedy", Undirected: true, WriteAll: true, Serial: true,
		pregel: program(algorithms.MISGreedy),
		gas:    gasProgram(algorithms.MISGreedyGAS),
		check:  typed(func(g *graph.Graph, _ Params, states []int32) error { return algorithms.ValidateMIS(g, states) }),
	},
	{
		// Luby's randomized MIS needs no serializability: its supersteps
		// are its rounds.
		Name: "mis-luby", Undirected: true, BSP: true,
		pregel: pregel(func(_ *graph.Graph, p Params) model.Program[algorithms.LubyValue, algorithms.LubyMsg] {
			return algorithms.MISLuby(p.Seed)
		}, nil),
		check: typed(func(g *graph.Graph, _ Params, lv []algorithms.LubyValue) error {
			return algorithms.ValidateMIS(g, algorithms.LubyStates(lv))
		}),
	},
	{
		Name: "lpa", Undirected: true, WriteAll: true,
		pregel: program(algorithms.LabelPropagation),
		check: typed(func(g *graph.Graph, _ Params, labels []int32) error {
			return algorithms.ValidateLabels(g, labels)
		}),
	},
	{
		// A vertex keeps the estimates it heard in its value without
		// sending them, so it is not write-all.
		Name: "kcore", Undirected: true, Unique: true,
		pregel: pregel(func(*graph.Graph, Params) model.Program[algorithms.KCoreValue, algorithms.KCoreMsg] {
			return algorithms.KCore()
		}, func(vals []algorithms.KCoreValue) any { return algorithms.KCoreEstimates(vals) }),
		check: typed(func(g *graph.Graph, _ Params, core []int32) error {
			return equal(core, algorithms.KCoreReference(g))
		}),
	},
	{
		Name: "triangles", Undirected: true, Unique: true, BSP: true,
		pregel: program(algorithms.TriangleCount),
		check: typed(func(g *graph.Graph, _ Params, counts []int32) error {
			var total int64
			for _, c := range counts {
				total += int64(c)
			}
			if want := algorithms.CountTrianglesReference(g); total != want {
				return fmt.Errorf("%d triangles, serial count %d", total, want)
			}
			return nil
		}),
	},
	{
		// Giraphx's in-algorithm single-layer token (§7.3): its token ring
		// follows the run's partition map.
		Name: "giraphx-token", Undirected: true, BSP: true, readsMap: true,
		pregel: pregel(func(g *graph.Graph, p Params) model.Program[giraphx.TokenValue, giraphx.ColorMsg] {
			return giraphx.TokenColoring(g, p.Map)
		}, func(tv []giraphx.TokenValue) any {
			colors := make([]int32, len(tv))
			for v := range tv {
				colors[v] = tv[v].Color
			}
			return colors
		}),
		check: proper,
	},
	{
		// Giraphx's in-algorithm vertex locking (§7.3), three supersteps a
		// round.
		Name: "giraphx-lock", Undirected: true, BSP: true,
		pregel: pregel(func(g *graph.Graph, _ Params) model.Program[int32, giraphx.LockMsg] {
			return giraphx.LockColoring(g)
		}, nil),
		check: proper,
	},
}

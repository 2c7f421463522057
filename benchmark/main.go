// Command benchmark is the repository's one fixed benchmark: six workloads
// run through serialgraph.Run and serialgraph.RunGAS, every answer checked,
// end-to-end metrics measured with tracing off and per-layer metrics in a
// separate traced pass. README.md describes the workloads, the metrics and
// the measurement protocol; BENCHMARK.json at the root of the repository
// fixes the metric names, units and regression bounds.
//
//	bash benchmark/run.sh                      # all workloads, end to end
//	bash benchmark/run.sh -trace 1             # all workloads, per layer
//	bash benchmark/run.sh -workload sssp_sparse -seed 7 -seconds 10 -trace 0
//	bash benchmark/run.sh -out a.json; bash benchmark/run.sh -out b.json
//	bash benchmark/run.sh -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
)

// procs pins GOMAXPROCS: the reference box has two cores, and a run must
// not read differently on a wider one.
const procs = 2

const tracePath = "benchmark/out/trace.json"

// resultFile is what -out writes and -compare reads.
type resultFile struct {
	Seed       uint64    `json:"seed"`
	Seconds    float64   `json:"seconds"`
	Trace      bool      `json:"trace"`
	GoMaxProcs int       `json:"gomaxprocs"`
	GoVersion  string    `json:"go_version"`
	Workloads  []*report `json:"workloads"`
}

func main() {
	var (
		name    = flag.String("workload", "", "run only this workload and print its result as one JSON object on the last line")
		seed    = flag.Uint64("seed", 1, "every input is generated from this seed")
		seconds = flag.Float64("seconds", 10, "how long each workload's repetitions are measured")
		trace   = flag.Int("trace", 0, "1 runs the traced pass: per-layer metrics, and spans written to "+tracePath)
		out     = flag.String("out", "", "also write every metric to this file as JSON")
		compare = flag.Bool("compare", false, "compare two -out files (given as arguments) under the bounds of BENCHMARK.json")
		spec    = flag.String("spec", "BENCHMARK.json", "the bounds that -compare applies")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two result files, got %d arguments", flag.NArg()))
		}
		regressed, err := compareFiles(os.Stdout, *spec, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}
	if flag.NArg() != 0 {
		fatal(fmt.Errorf("unexpected arguments %q", flag.Args()))
	}

	selected := workloads
	if *name != "" {
		selected = nil
		for _, w := range workloads {
			if w.name == *name {
				selected = []workload{w}
			}
		}
		if selected == nil {
			fatal(fmt.Errorf("unknown workload %q", *name))
		}
	}

	runtime.GOMAXPROCS(procs)
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace != 0}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	file := resultFile{Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace, GoMaxProcs: procs, GoVersion: runtime.Version()}
	fmt.Printf("seed %d, %.0f s per workload, GOMAXPROCS %d, %s, tracing %s\n",
		cfg.seed, cfg.seconds, procs, runtime.Version(), map[bool]string{false: "off", true: "on"}[cfg.trace])
	for _, w := range selected {
		rep, err := measure(w, cfg, tr)
		if err != nil {
			fatal(err)
		}
		printReport(rep)
		file.Workloads = append(file.Workloads, rep)
	}
	if cfg.trace {
		if err := tr.write(tracePath); err != nil {
			fatal(err)
		}
		fmt.Printf("\n%d spans written to %s\n", len(tr.spans), tracePath)
	}
	if *out != "" {
		data, err := json.MarshalIndent(file, "", " ")
		if err == nil {
			err = os.WriteFile(*out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fatal(fmt.Errorf("write %s: %w", *out, err))
		}
	}
	if *name != "" {
		fmt.Println(driverLine(file.Workloads[0]))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

func (r *report) metrics() []metricValue {
	return append(r.EndToEnd[:len(r.EndToEnd):len(r.EndToEnd)], r.PerLayer...)
}

func printReport(r *report) {
	fmt.Printf("\n%s  (%s)\n", r.Workload, r.Why)
	fmt.Printf("  %-36s %d of %d repetitions failed (failed_frac %.3f)\n", "failures",
		r.Failed, r.Attempted, float64(r.Failed)/float64(r.Attempted))
	for _, f := range r.Failures {
		fmt.Printf("    failed: %s\n", f)
	}
	fmt.Printf("  %-36s held back %.1f s while the host was taking CPU time\n", "quiet gate", r.QuietWaitS)
	counts := "first repetition"
	if r.Exact {
		counts = "the same on every repetition"
	}
	fmt.Printf("  %-36s %d executions, %d supersteps, checksum %s (%s)\n", "counts",
		r.Executions, r.Supersteps, r.Checksum, counts)
	for _, m := range r.metrics() {
		tail := ""
		if m.TailPct > 50 {
			tail = fmt.Sprintf(", p%d %.6g", m.TailPct, m.Tail)
		}
		fmt.Printf("  %-36s %14.6g %-5s (median of %d%s)\n", m.Name, m.Median, m.Unit, m.N, tail)
	}
}

// driverLine is the one-object summary of a single-workload run.
func driverLine(r *report) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: r.Failed == 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]value{}}
	for _, m := range r.metrics() {
		line.Metrics[m.Name] = value{m.Median, m.Unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		fatal(fmt.Errorf("encode result: %w", err)) // a non-finite metric
	}
	return strings.TrimSpace(string(data))
}

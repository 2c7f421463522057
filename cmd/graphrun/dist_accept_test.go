package main

// Acceptance: a graphrun coordinator plus two real worker OS processes
// complete BSP SSSP, PageRank, and coloring over TCP loopback with results
// identical to an in-process engine run on the same graph, worker
// count, partitioning, and seed, and colour properly under Async
// partition-based locking with the forks crossing the process boundary.
// This is the process-level counterpart of internal/dist's
// goroutine-based conformance suite: here the bytes cross actual process
// boundaries and the only shared state is the graph file.

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"serialgraph/internal/algorithms"
	"serialgraph/internal/dist"
	"serialgraph/internal/engine"
	"serialgraph/internal/generate"
	"serialgraph/internal/graph"
	"serialgraph/internal/model"
)

func acceptRequireLoopback(t *testing.T) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback TCP unavailable: %v", err)
	}
	ln.Close()
}

// buildGraphrun compiles the binary once per test run.
func buildGraphrun(t *testing.T, dir string) string {
	t.Helper()
	bin := filepath.Join(dir, "graphrun")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

var listeningRe = regexp.MustCompile(`listening on (\S+) for`)

// coordinatorExit is a finished coordinator process: its exit error and
// everything it printed after its address.
type coordinatorExit struct {
	out string
	err error
}

// startCoordinator launches the coordinator process and blocks until it
// prints its bound address.
func startCoordinator(t *testing.T, ctx context.Context, bin string, args []string) (*exec.Cmd, string, chan coordinatorExit) {
	t.Helper()
	cmd := exec.CommandContext(ctx, bin, args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatalf("stdout pipe: %v", err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatalf("start coordinator: %v", err)
	}
	sc := bufio.NewScanner(stdout)
	addr := ""
	for sc.Scan() {
		if m := listeningRe.FindStringSubmatch(sc.Text()); m != nil {
			addr = m[1]
			break
		}
	}
	if addr == "" {
		cmd.Process.Kill()
		t.Fatalf("coordinator never reported its address (scan err: %v)", sc.Err())
	}
	done := make(chan coordinatorExit, 1)
	go func() {
		// Drain the rest of stdout so the process never blocks on a full
		// pipe, then reap it.
		var out strings.Builder
		for sc.Scan() {
			fmt.Fprintln(&out, sc.Text())
		}
		done <- coordinatorExit{out.String(), cmd.Wait()}
	}()
	return cmd, addr, done
}

func TestGraphrunMultiProcess(t *testing.T) {
	acceptRequireLoopback(t)
	if testing.Short() {
		t.Skip("builds and spawns real processes; skipped in -short")
	}
	dir := t.TempDir()
	bin := buildGraphrun(t, dir)

	// A fixed graph, written once and shared by path — the one thing the
	// processes may have in common.
	g := generate.PowerLaw(generate.PowerLawConfig{N: 120, AvgDegree: 5, Exponent: 2.2, Seed: 97})
	graphPath := filepath.Join(dir, "g.bin")
	if err := graph.SaveFile(graphPath, g); err != nil {
		t.Fatalf("save graph: %v", err)
	}

	const workers, seed = 2, 7
	// Vote-halting PageRank and coloring do not converge under BSP (the
	// matrix test documents both), so those runs are bounded and the
	// exact bounded state compared; SSSP converges on its own. The
	// partition-lock cell is schedule-dependent, so it is held to a proper
	// colouring and to fork traffic between the processes instead.
	bsp := []string{"-model", "bsp", "-technique", "none"}
	cases := []struct {
		name, alg     string
		maxSupersteps int // 0 = default
		extra         []string
	}{
		{name: "sssp", alg: "sssp", extra: append([]string{"-source", "0"}, bsp...)},
		{name: "pagerank", alg: "pagerank", maxSupersteps: 50, extra: append([]string{"-eps", "0.01"}, bsp...)},
		{name: "coloring", alg: "coloring", maxSupersteps: 30, extra: bsp},
		{name: "coloring-partition-lock", alg: "coloring",
			extra: []string{"-model", "async", "-technique", "partition-locking"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			defer cancel()

			outPath := filepath.Join(dir, tc.name+".txt")
			args := []string{
				"-listen", "127.0.0.1:0", "-workers-remote", fmt.Sprint(workers),
				"-alg", tc.alg, "-graph", graphPath, "-seed", fmt.Sprint(seed),
				"-o", outPath,
			}
			if tc.maxSupersteps > 0 {
				args = append(args, "-max-supersteps", fmt.Sprint(tc.maxSupersteps))
			}
			args = append(args, tc.extra...)
			_, addr, coordDone := startCoordinator(t, ctx, bin, args)

			workerDone := make(chan error, workers)
			for i := 0; i < workers; i++ {
				w := exec.CommandContext(ctx, bin, "-join", addr)
				w.Stderr = os.Stderr
				if err := w.Start(); err != nil {
					t.Fatalf("start worker: %v", err)
				}
				go func() { workerDone <- w.Wait() }()
			}
			for i := 0; i < workers; i++ {
				if err := <-workerDone; err != nil {
					t.Fatalf("worker process: %v", err)
				}
			}
			coord := <-coordDone
			if coord.err != nil {
				t.Fatalf("coordinator process: %v", coord.err)
			}

			if tc.name == "coloring-partition-lock" {
				checkForkColoring(t, coord.out)
				return
			}
			got, err := os.ReadFile(outPath)
			if err != nil {
				t.Fatalf("read values: %v", err)
			}
			want := inprocLines(t, tc.alg, graphPath, tc.maxSupersteps, seed)
			if string(got) != want {
				t.Fatalf("%s: multi-process values differ from in-process run\n got %d bytes, want %d bytes",
					tc.alg, len(got), len(want))
			}
		})
	}
}

var ctrlMsgsRe = regexp.MustCompile(`, (\d+) control msgs`)

// checkForkColoring holds a multi-process partition-lock colouring run to
// a converged colouring the coordinator validated as proper, with control
// messages between the worker processes.
func checkForkColoring(t *testing.T, out string) {
	t.Helper()
	if !strings.Contains(out, "coloring proper") || !strings.Contains(out, "converged=true") {
		t.Fatalf("coordinator output:\n%s", out)
	}
	if m := ctrlMsgsRe.FindStringSubmatch(out); m == nil || m[1] == "0" {
		t.Fatalf("no control messages crossed the process boundary:\n%s", out)
	}
}

// inprocLines runs the same job on the in-process engine (same BSP mode,
// worker count, partitioning, seed) and renders the values exactly as
// the coordinator's -o writer does.
func inprocLines(t *testing.T, alg, graphPath string, maxSupersteps int, seed uint64) string {
	t.Helper()
	job := dist.Job{GraphPath: graphPath, Undirected: alg == "coloring"}
	g, err := dist.BuildGraph(job)
	if err != nil {
		t.Fatalf("rebuild graph: %v", err)
	}
	if maxSupersteps == 0 {
		maxSupersteps = 100000
	}
	cfg := engine.Config{
		Workers: 2, PartitionsPerWorker: 2, Mode: engine.BSP,
		Sync: engine.SyncNone, Seed: seed, MaxSupersteps: maxSupersteps,
	}
	var sb strings.Builder
	switch alg {
	case "sssp":
		render(t, &sb, g, algorithms.SSSP(0), cfg)
	case "pagerank":
		render(t, &sb, g, algorithms.PageRank(0.01), cfg)
	case "coloring":
		render(t, &sb, g, algorithms.Coloring(), cfg)
	default:
		t.Fatalf("no in-process reference for %q", alg)
	}
	return sb.String()
}

func render[V, M any](t *testing.T, sb *strings.Builder, g *graph.Graph, prog model.Program[V, M], cfg engine.Config) {
	t.Helper()
	vals, _, _, err := engine.Run(g, prog, cfg)
	if err != nil {
		t.Fatalf("engine run: %v", err)
	}
	for _, v := range vals {
		fmt.Fprintln(sb, v)
	}
}

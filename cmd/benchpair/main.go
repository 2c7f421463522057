// Command benchpair measures a change against a base commit the way a
// claim of a gain has to be measured (choosing-metrics §8): it runs one
// workload of the fixed benchmark (benchmark/run.sh, metrics and
// directions from BENCHMARK.json) in alternating base/change pairs,
// flipping which side goes first on every pair so machine drift cancels,
// and prints each side's median and quartiles, the shift of the median
// and the share of pairs the change won.
//
// Usage (from the root of the checkout that holds the change):
//
//	benchpair -base HEAD~1 -workload sssp_sparse -n 10
//
// -base is checked out as a detached git worktree under .bench_build/ and
// removed afterwards; every run lasts BENCHMARK.json's run_seconds, as the
// benchmark's own runs do. `make bench-pair BASE=<ref> WORKLOAD=<name>
// N=10` wraps it.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
)

type metricSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// result is the last line benchmark/run.sh prints with -workload.
type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

func main() {
	base := flag.String("base", "", "git ref of the base commit, checked out as a temporary worktree")
	workload := flag.String("workload", "", "benchmark workload to run")
	n := flag.Int("n", 10, "pairs of runs")
	seed := flag.Uint64("seed", 1, "benchmark seed; a claim needs one not used while developing")
	flag.Parse()
	if *base == "" || *workload == "" || *n < 1 || flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: benchpair -base REF -workload NAME [-n 10] [-seed 1]")
		os.Exit(2)
	}
	if err := run(*base, *workload, *n, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "benchpair:", err)
		os.Exit(1)
	}
}

func run(base, workload string, n int, seed uint64) error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var spec struct {
		RunSeconds float64      `json:"run_seconds"`
		EndToEnd   []metricSpec `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	seconds := spec.RunSeconds
	baseDir := filepath.Join(".bench_build", "pair-base")
	if out, err := exec.Command("git", "worktree", "add", "--force", "--detach", baseDir, base).CombinedOutput(); err != nil {
		return fmt.Errorf("git worktree add %s: %v\n%s", base, err, out)
	}
	defer func() {
		if out, err := exec.Command("git", "worktree", "remove", "--force", baseDir).CombinedOutput(); err != nil {
			fmt.Fprintf(os.Stderr, "benchpair: git worktree remove: %v\n%s", err, out)
		}
	}()

	dirs := [2]string{baseDir, "."} // side 0 is the base, side 1 the change
	var samples [2]map[string][]float64
	var attempted, failed [2]int
	for side := range samples {
		samples[side] = make(map[string][]float64)
	}
	for pair := 0; pair < n; pair++ {
		for k := 0; k < 2; k++ {
			side := (pair + k) % 2 // even pairs run the base first, odd pairs the change
			res, err := runOnce(dirs[side], workload, seed, seconds)
			if err != nil {
				return fmt.Errorf("pair %d, %s: %w", pair+1, dirs[side], err)
			}
			attempted[side] += res.Attempted
			failed[side] += res.Failed
			for name, m := range res.Metrics {
				samples[side][name] = append(samples[side][name], m.Value)
			}
		}
		fmt.Fprintf(os.Stderr, "pair %d/%d done\n", pair+1, n)
	}

	fmt.Printf("%s, seed %d, %g s per run, %d pairs, order flipped every pair; base = %s\n",
		workload, seed, seconds, n, base)
	fmt.Printf("failed repetitions: base %d of %d, change %d of %d\n", failed[0], attempted[0], failed[1], attempted[1])
	// §8: a change that fails a larger share of its repetitions shows no gain,
	// whatever the survivors measured.
	failsMore := failed[1]*attempted[0] > failed[0]*attempted[1]
	fmt.Printf("%-12s %-5s %36s %36s %8s %6s  %s\n", "metric", "unit", "base median [q1, q3]", "change median [q1, q3]", "shift", "wins", "verdict")
	for _, m := range spec.EndToEnd {
		b, c := samples[0][m.Name], samples[1][m.Name]
		if len(b) != n || len(c) != n {
			return fmt.Errorf("metric %s: %d base and %d change samples for %d pairs", m.Name, len(b), len(c), n)
		}
		wins, ties := 0, 0
		for i := range b {
			switch {
			case b[i] == c[i]:
				ties++
			case (c[i] < b[i]) == (m.Better == "lower"):
				wins++
			}
		}
		bq, cq := quartiles(b), quartiles(c)
		gain := bq[1] - cq[1]
		if m.Better != "lower" {
			gain = -gain
		}
		// §8: a gain needs nine tenths of the pairs (ties count for neither
		// side) and a median shift beyond the base's own quartile distance.
		verdict := "no gain shown"
		switch {
		case failsMore:
			verdict = "void: more failed repetitions"
		case float64(wins) >= 0.9*float64(n) && gain > bq[2]-bq[0]:
			verdict = "gain"
		}
		fmt.Printf("%-12s %-5s %12.6g [%9.4g, %9.4g] %12.6g [%9.4g, %9.4g] %+7.1f%% %3d/%-2d  %s\n",
			m.Name, m.Unit, bq[1], bq[0], bq[2], cq[1], cq[0], cq[2], 100*(cq[1]-bq[1])/bq[1], wins, n-ties, verdict)
	}
	return nil
}

// runOnce builds and runs the benchmark of the checkout at dir.
func runOnce(dir, workload string, seed uint64, seconds float64) (result, error) {
	cmd := exec.Command("bash", "benchmark/run.sh", "-workload", workload,
		"-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-trace", "0")
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return result{}, err
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return result{}, fmt.Errorf("last output line is not the result object: %w", err)
	}
	if !res.Correct {
		return res, fmt.Errorf("the run reported wrong answers (%d of %d repetitions failed)", res.Failed, res.Attempted)
	}
	return res, nil
}

// quartiles returns q1, the median and q3 by the exclusive method, as the
// benchmark's own reports do (Python's statistics.quantiles(values, n=4)).
func quartiles(values []float64) [3]float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	var q [3]float64
	for i := range q {
		pos := float64(i+1) * float64(len(s)+1) / 4 // 1-based rank
		lo := int(pos)
		switch {
		case lo < 1:
			q[i] = s[0]
		case lo >= len(s):
			q[i] = s[len(s)-1]
		default:
			q[i] = s[lo-1] + (pos-float64(lo))*(s[lo]-s[lo-1])
		}
	}
	return q
}

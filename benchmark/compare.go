package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// benchmarkSpec is the part of BENCHMARK.json the benchmark itself reads:
// the names, units and directions of the metrics, and the bound by which
// each end-to-end metric may worsen.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// compareFiles prints one row per workload and end-to-end metric, judging
// set B (the second file) against set A under the bounds in the spec:
//
//	regressed   B's median is worse than A's by more than the bound, and by
//	            more than the spread
//	unresolved  the spread is wider than the bound, so the sets cannot tell
//	            a change of the bound's size from noise
//	ok          otherwise
//
// The spread is how far a set's median can be trusted: the distance between
// the set's quartiles divided by the square root of its sample count (about
// the standard error of a median), the larger of the two sets', as a share
// of A's median. The raw distance between the quartiles describes one
// repetition, not the median of twenty, and would call setup_s unresolved
// on every comparison (single builds of a 60 ms input differ by 40%).
//
// A workload also regresses when a larger share of its repetitions failed,
// or when the sets ran the same seed and its exact counts differ. It
// reports whether any row regressed.
func compareFiles(w io.Writer, specPath, pathA, pathB string) (regressed bool, err error) {
	var spec benchmarkSpec
	var a, b resultFile
	if err := readJSON(specPath, &spec); err != nil {
		return false, err
	}
	if err := readJSON(pathA, &a); err != nil {
		return false, err
	}
	if err := readJSON(pathB, &b); err != nil {
		return false, err
	}
	byName := make(map[string]*report)
	for _, r := range b.Workloads {
		byName[r.Workload] = r
	}
	row := func(workload, metric string, ma, mb, change, spread, bound float64, verdict string) {
		fmt.Fprintf(w, "%-18s %-12s %14.6g %14.6g %+8.1f%% %7.1f%% %6.0f%%  %s\n",
			workload, metric, ma, mb, 100*change, 100*spread, 100*bound, verdict)
		regressed = regressed || verdict == "regressed"
	}
	fmt.Fprintf(w, "%-18s %-12s %14s %14s %9s %8s %7s  %s\n", "workload", "metric", "A median", "B median", "worse by", "spread", "bound", "verdict")
	for _, ra := range a.Workloads {
		rb := byName[ra.Workload]
		if rb == nil {
			return false, fmt.Errorf("%s has no workload %s", pathB, ra.Workload)
		}
		for _, sm := range spec.EndToEnd {
			ma, mb := findMetric(ra, sm.Name), findMetric(rb, sm.Name)
			if ma == nil || mb == nil || ma.Median == 0 {
				return false, fmt.Errorf("%s: metric %s missing or zero in a result file", ra.Workload, sm.Name)
			}
			worse := (mb.Median - ma.Median) / ma.Median
			if sm.Better == "higher" {
				worse = -worse
			}
			spread := max(ma.medianError(), mb.medianError()) / ma.Median
			verdict := "ok"
			switch {
			case worse > sm.Bound && worse > spread:
				verdict = "regressed"
			case spread > sm.Bound:
				verdict = "unresolved"
			}
			row(ra.Workload, sm.Name, ma.Median, mb.Median, worse, spread, sm.Bound, verdict)
		}
		fa, fb := float64(ra.Failed)/float64(ra.Attempted), float64(rb.Failed)/float64(rb.Attempted)
		verdict := "ok"
		if fb > fa {
			verdict = "regressed"
		}
		row(ra.Workload, "failed_frac", fa, fb, fb-fa, 0, 0, verdict)
		if ra.Exact && a.Seed == b.Seed {
			same := ra.Executions == rb.Executions && ra.Supersteps == rb.Supersteps && ra.Checksum == rb.Checksum
			verdict := "ok"
			if !same {
				verdict = "regressed"
			}
			fmt.Fprintf(w, "%-18s %-12s %d executions, %d supersteps, checksum %s vs %d, %d, %s  %s\n", ra.Workload, "exact_counts",
				ra.Executions, ra.Supersteps, ra.Checksum, rb.Executions, rb.Supersteps, rb.Checksum, verdict)
			regressed = regressed || !same
		}
	}
	return regressed, nil
}

func findMetric(r *report, name string) *metricValue {
	for i := range r.EndToEnd {
		if r.EndToEnd[i].Name == name {
			return &r.EndToEnd[i]
		}
	}
	return nil
}

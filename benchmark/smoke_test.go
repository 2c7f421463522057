package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// TestSmoke runs every workload at a tiny size, one repetition untraced and
// one traced, and checks the benchmark against BENCHMARK.json: every metric
// named there is emitted once, finite and with its unit; every answer is
// validated; the spans nest and trace.json parses.
func TestSmoke(t *testing.T) {
	var spec benchmarkSpec
	if err := readJSON("../BENCHMARK.json", &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	checkMetrics := func(t *testing.T, got []metricValue, want []specMetric) {
		t.Helper()
		seen := make(map[string]metricValue)
		for _, m := range got {
			if _, dup := seen[m.Name]; dup {
				t.Errorf("metric %s emitted twice", m.Name)
			}
			seen[m.Name] = m
			if !nameRE.MatchString(m.Name) {
				t.Errorf("metric name %q is not of the form %v", m.Name, nameRE)
			}
			if math.IsNaN(m.Median) || math.IsInf(m.Median, 0) || m.N < 1 {
				t.Errorf("metric %s = %v over %d samples", m.Name, m.Median, m.N)
			}
		}
		for _, sm := range want {
			m, ok := seen[sm.Name]
			if !ok {
				t.Errorf("metric %s of BENCHMARK.json was not emitted", sm.Name)
			} else if m.Unit != sm.Unit || m.Unit == "" {
				t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", sm.Name, m.Unit, sm.Unit)
			}
		}
		if len(got) != len(want) {
			t.Errorf("%d metrics emitted, BENCHMARK.json names %d", len(got), len(want))
		}
	}

	tr := newTracer()
	checksums := make(map[string]string)
	for i, w := range workloads {
		if w.name != spec.Workloads[i].Name || w.why != spec.Workloads[i].Why {
			t.Errorf("workload %d is %s (%s), BENCHMARK.json says %s (%s)", i, w.name, w.why, spec.Workloads[i].Name, spec.Workloads[i].Why)
		}
		t.Run(w.name, func(t *testing.T) {
			plain, err := measure(w, config{seed: 1, tiny: true}, nil)
			if err != nil {
				t.Fatal(err)
			}
			traced, err := measure(w, config{seed: 1, tiny: true, trace: true}, tr)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range []*report{plain, traced} {
				if r.Failed != 0 || r.Attempted == 0 {
					t.Errorf("%d of %d repetitions failed: %v", r.Failed, r.Attempted, r.Failures)
				}
			}
			checkMetrics(t, plain.EndToEnd, spec.EndToEnd)
			checkMetrics(t, traced.PerLayer, spec.PerLayer)
			if plain.Exact && plain.Checksum != traced.Checksum {
				t.Errorf("checksum %s untraced, %s traced", plain.Checksum, traced.Checksum)
			}
			checksums[w.name] = plain.Checksum
			var line map[string]json.RawMessage
			if err := json.Unmarshal([]byte(driverLine(traced)), &line); err != nil || len(line) != 4 {
				t.Errorf("result line has %d keys, want correct, attempted, failed and metrics (error %v)", len(line), err)
			}
		})
	}
	if a, b := checksums["bsp_pagerank"], checksums["bsp_pagerank_tcp"]; a == "" || a != b {
		t.Errorf("bsp_pagerank checksum %q, bsp_pagerank_tcp %q", a, b)
	}

	path := filepath.Join(t.TempDir(), "trace.json")
	if err := tr.write(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var file traceFile
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatalf("trace.json does not parse: %v", err)
	}
	if len(file.TraceEvents) != len(tr.spans) || len(tr.open) != 0 {
		t.Fatalf("%d events for %d spans, %d spans left open", len(file.TraceEvents), len(tr.spans), len(tr.open))
	}
	supersteps := 0
	for _, s := range tr.spans {
		if s.End < s.Start {
			t.Errorf("span %d (%s) ends before it starts", s.ID, s.Name)
		}
		if s.Name == "engine.superstep" {
			supersteps++
		}
		if s.Parent == 0 {
			continue
		}
		p := tr.spans[s.Parent-1]
		if s.Start < p.Start || s.End > p.End || s.Tid != p.Tid {
			t.Errorf("span %d (%s) [%v, %v] is not inside its parent %d (%s) [%v, %v]",
				s.ID, s.Name, s.Start, s.End, p.ID, p.Name, p.Start, p.End)
		}
	}
	if supersteps == 0 {
		t.Error("no engine.superstep span: Result.SuperstepStats did not reach the trace")
	}
	for id, self := range tr.selfTimes() {
		if self < 0 || self > tr.spans[id-1].dur() {
			t.Errorf("span %d has self time %v of %v", id, self, tr.spans[id-1].dur())
		}
	}
}

// TestSummarize pins the quartiles to Python's statistics.quantiles(n=4),
// which the acceptance rule for the benchmark's spread is written in.
func TestSummarize(t *testing.T) {
	s := summarize([]float64{9, 1, 4, 7, 3, 8, 2, 10, 6, 5})
	if s.Median != 5.5 || s.Q1 != 2.75 || s.Q3 != 8.25 || s.N != 10 || s.TailPct != 50 {
		t.Errorf("summarize(1..10) = %+v", s)
	}
	wide := make([]float64, 41)
	for i := range wide {
		wide[i] = float64(i + 1)
	}
	if s := summarize(wide); s.TailPct != 75 || s.Tail != 31 {
		t.Errorf("summarize(1..41) reports p%d = %v, want p75 = 31", s.TailPct, s.Tail)
	}
}

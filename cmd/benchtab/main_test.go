package main

import (
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"serialgraph/internal/engine"
	"serialgraph/internal/metrics"
	"serialgraph/internal/partition"
)

// TestExperiments runs every experiment at a tiny scale on four workers and
// asserts its row count, that every row is in the printed table, and that
// every cell passed its oracle and every gate held.
func TestExperiments(t *testing.T) {
	h := newHarness(0.05, []int{4}, 10*time.Microsecond)
	wantRows := map[string]int{
		"table1": 0, "fig1": 6, "fig2": 0, "fig3": 0,
		"fig6a": 9, "fig6b": 9, "fig6c": 9, "fig6d": 9,
		"giraphx": 6, "ablation-partitions": 5, "ablation-degenerate": 3,
		"ablation-partitioner": 3, "ablation-combining": 2, "ablation-skip": 2,
		"mis": 2, "ablation-bap": 2, "exclusion": 3,
		"recovery": 5, "flow": 2, "partition": 12,
	}
	if len(wantRows) != len(experiments) {
		t.Fatalf("%d experiments, %d row counts", len(experiments), len(wantRows))
	}
	for _, e := range experiments {
		t.Run(e.name, func(t *testing.T) {
			var out strings.Builder
			failures := h.failures
			rows := e.run(h, &out)
			if want, ok := wantRows[e.name]; !ok || len(rows) != want {
				t.Errorf("%d rows, want %d", len(rows), want)
			}
			if h.failures != failures {
				t.Errorf("%d cells or gates failed", h.failures-failures)
			}
			for _, r := range rows {
				if !r.passed() {
					t.Errorf("%s %s: %s", r.Algorithm, r.Technique, r.Check)
				}
				if !strings.Contains(out.String(), r.Technique) {
					t.Errorf("printed table misses %q:\n%s", r.Technique, out.String())
				}
			}
			switch e.name {
			case "table1":
				for _, ds := range []string{"OR", "AR", "TW", "UK"} {
					if !strings.Contains(out.String(), ds) {
						t.Errorf("table 1 misses %s:\n%s", ds, out.String())
					}
				}
			case "fig2":
				if !strings.Contains(out.String(), "converged=false") || !strings.Contains(out.String(), "partition lock") {
					t.Errorf("figure 2 did not oscillate, or the resolution is missing:\n%s", out.String())
				}
			case "recovery":
				checkRecovery(t, rows)
			}
		})
	}
}

// checkRecovery: the fault-free rows never roll back, both crash rows do,
// and confined recovery recomputes fewer partition×superstep units than a
// full rollback of the same crash.
func checkRecovery(t *testing.T, rows []Row) {
	for _, r := range rows[:3] {
		if n := r.Metrics.Get(metrics.Rollbacks); n != 0 {
			t.Errorf("fault-free row %s rolled back %d times", r.Technique, n)
		}
	}
	full, confined := rows[3].Metrics, rows[4].Metrics
	if full.Get(metrics.Rollbacks) < 1 || confined.Get(metrics.Rollbacks) < 1 ||
		confined.Get(metrics.ConfinedRecoveries) < 1 || full.Get(metrics.ConfinedRecoveries) != 0 {
		t.Errorf("crash rows: full %+v, confined %+v", rows[3], rows[4])
	}
	if c, f := confined.Get(metrics.RecomputedPartitionSupersteps), full.Get(metrics.RecomputedPartitionSupersteps); c >= f {
		t.Errorf("confined recomputed %d partition-supersteps, full %d; want fewer", c, f)
	}
}

// TestSerializableCellsCheckHistory: every cell of a serializable
// technique (token passing, partition and vertex locking on Giraph async,
// vertex locking on GAS) passes history.CheckAll on a recorded repetition,
// which HistoryTxns counts; counts-only and unsynchronized cells record
// none, and neither does the Pregel PageRank, which is not write-all.
func TestSerializableCellsCheckHistory(t *testing.T) {
	h := newHarness(0.05, []int{4}, 10*time.Microsecond)
	for _, c := range append(fig1(h), exclusionCells(h)...) {
		r := h.run(c)
		want := !c.countsOnly && (c.gas || c.cfg.Sync != engine.SyncNone)
		if !r.passed() || (r.HistoryTxns > 0) != want {
			t.Errorf("%s %s: check %q, %d txns checked, want checked = %v",
				r.Algorithm, r.Technique, r.Check, r.HistoryTxns, want)
		}
	}
	for _, c := range fig6("pagerank")(h) {
		if c.checked() != c.gas {
			t.Errorf("pagerank %s: checked = %v", c.technique(), c.checked())
		}
	}
}

// TestAblations: each ablation varies the one coordinate it names and
// nothing the answer depends on. The partitions sweep and the degenerate
// cell reach the engine as partition counts, LDG cuts fewer edges than
// hash placement, and the on/off knobs leave the SSSP distances bitwise
// unchanged.
func TestAblations(t *testing.T) {
	h := newHarness(0.05, []int{4}, 10*time.Microsecond)
	rows := func(name string) []Row {
		for _, e := range experiments {
			if e.name == name {
				return e.run(h, &strings.Builder{})
			}
		}
		t.Fatalf("no experiment %q", name)
		return nil
	}
	w := h.workers[0]

	prev := 0
	for _, r := range rows("ablation-partitions") {
		p := r.Partition.Partitions
		if p <= prev || !strings.Contains(r.Technique, fmt.Sprintf("ppw=%d ", p/w)) {
			t.Errorf("%s ran on %d partitions (previous row %d)", r.Technique, p, prev)
		}
		prev = p
	}

	deg := rows("ablation-degenerate")
	if n := h.graph("OR", true).NumVertices(); deg[0].Partition.Partitions < n {
		t.Errorf("degenerate cell ran on %d partitions, want ≥ |V| = %d", deg[0].Partition.Partitions, n)
	}
	if deg[1].Partition.Partitions >= deg[0].Partition.Partitions {
		t.Errorf("default cell ran on %d partitions, degenerate on %d", deg[1].Partition.Partitions, deg[0].Partition.Partitions)
	}

	place := rows("ablation-partitioner")
	if hash, ldg := place[0], place[2]; !strings.HasPrefix(hash.Technique, partition.KindHash) ||
		!strings.HasPrefix(ldg.Technique, partition.KindLDG) || ldg.Partition.CutFraction >= hash.Partition.CutFraction {
		t.Errorf("%s cut %.3f, %s cut %.3f: want LDG below hash",
			hash.Technique, hash.Partition.CutFraction, ldg.Technique, ldg.Partition.CutFraction)
	}

	for _, name := range []string{"ablation-combining", "ablation-skip"} {
		pair := rows(name)
		if on, off := pair[0], pair[1]; !strings.HasSuffix(on.Technique, " on") ||
			!strings.HasSuffix(off.Technique, " off") || on.Answer != off.Answer {
			t.Errorf("%s: %q answer %x, %q answer %x", name, on.Technique, on.Answer, off.Technique, off.Answer)
		}
	}
	if on, off := combiningCells(h), skipCells(h); on[0].cfg.DisableSenderCombine || !on[1].cfg.DisableSenderCombine ||
		off[0].cfg.DisableHaltedPartitionSkip || !off[1].cfg.DisableHaltedPartitionSkip {
		t.Error("an on/off pair does not flip its engine knob")
	}
	if h.failures != 0 {
		t.Errorf("%d cells failed their oracle", h.failures)
	}
}

// TestPrintFormatsRows: every printer renders the fields of its rows.
func TestPrintFormatsRows(t *testing.T) {
	r := Row{
		Experiment: "x", Algorithm: "a", Dataset: "OR", Workers: 4,
		Technique: "t", Time: 12 * time.Millisecond, Supersteps: 3,
		Executions: 100, DataMsgs: 5, DataBytes: 2048, CtrlMsgs: 7, MaxConc: 9, Check: "ok",
		Partition: partition.Quality{BoundaryFraction: 0.25, CutFraction: 0.5, PInternal: 11},
	}
	for _, p := range []struct {
		name  string
		print func(io.Writer, []Row)
		want  []string
	}{
		{"rows", printRows, []string{"12ms", "100", "OR", "2", "7", "ok"}},
		{"spectrum", printSpectrum, []string{"12ms", "33", "9", "7", "5", "ok"}},
		{"partition", printPartition, []string{"0.250", "0.500", "i=11", "12ms", "ok"}},
	} {
		var sb strings.Builder
		p.print(&sb, []Row{r})
		for _, want := range p.want {
			if !strings.Contains(sb.String(), want) {
				t.Errorf("%s table missing %q:\n%s", p.name, want, sb.String())
			}
		}
	}
}

func TestPRThreshold(t *testing.T) {
	if prThreshold("OR") != 0.01 || prThreshold("AR") != 0.01 || prThreshold("community") != 0.01 {
		t.Error("OR/AR threshold wrong")
	}
	if prThreshold("TW") != 0.1 || prThreshold("UK") != 0.1 {
		t.Error("TW/UK threshold wrong")
	}
}

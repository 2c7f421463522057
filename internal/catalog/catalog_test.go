package catalog

import (
	"reflect"
	"strings"
	"testing"

	"serialgraph/internal/engine"
	"serialgraph/internal/gas"
	"serialgraph/internal/generate"
	"serialgraph/internal/graph"
	"serialgraph/internal/history"
)

// input is a small power-law graph, symmetrized for an entry that needs it.
func input(e *Entry) *graph.Graph {
	g := generate.Family("powerlaw", 60, 5)
	if e.Undirected {
		g = graph.Symmetrize(g)
	}
	return g
}

var params = Params{Eps: 0.05, Seed: 7}

// violations runs e serializably with its history recorded and returns
// what history.CheckAll finds: the Pregel program under Async partition
// locking, or the GAS form under vertex locking.
func violations(t *testing.T, e *Entry, g *graph.Graph, gasForm bool) []history.Violation {
	t.Helper()
	var out Output
	var err error
	if gasForm {
		out, err = e.RunGAS(g, params, gas.Config{Workers: 2, Serializable: true, Seed: 1, TrackHistory: true})
	} else {
		out, err = e.Run(g, params, engine.Config{Workers: 2, Mode: engine.Async, Sync: engine.PartitionLock, Seed: 1, TrackHistory: true})
	}
	if err != nil {
		t.Fatalf("%s: %v", e.Name, err)
	}
	if !out.Result.Converged {
		t.Fatalf("%s did not converge", e.Name)
	}
	if err := out.Check(g, params); err != nil {
		t.Errorf("%s: %v", e.Name, err)
	}
	return history.CheckAll(out.History.Txns(), g)
}

// WriteAll holds both ways: every write-all program's serializable history
// is clean (Pregel forms under partition locking, every GAS form under
// vertex locking), and the Pregel PageRank, which keeps changes under eps
// unsent, fails the check on an input where it failed 20 runs in 20.
func TestWriteAllHolds(t *testing.T) {
	for _, e := range Entries() {
		if e.WriteAll {
			if vs := violations(t, e, input(e), false); len(vs) > 0 {
				t.Errorf("%s under partition locking: %d violations, first %v", e.Name, len(vs), vs[0])
			}
		}
		if e.HasGAS() {
			if vs := violations(t, e, input(e), true); len(vs) > 0 {
				t.Errorf("%s GAS form under vertex locking: %d violations, first %v", e.Name, len(vs), vs[0])
			}
		}
	}
	pr, _ := Lookup("pagerank")
	if pr.WriteAll {
		t.Fatal("pagerank is marked write-all")
	}
	for range 5 {
		if vs := violations(t, pr, input(pr), false); len(vs) == 0 {
			t.Error("pagerank under partition locking: history clean, want violations")
		}
	}
}

// The table is consistent: names are distinct, an unknown one is refused,
// a WriteAllForm is a write-all entry, and a Unique entry reaches under
// Async partition locking exactly the answer BSP does.
func TestTable(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range Entries() {
		if seen[e.Name] {
			t.Errorf("two entries named %s", e.Name)
		}
		seen[e.Name] = true
		if e.WriteAllForm != "" {
			if f, err := Lookup(e.WriteAllForm); err != nil || !f.WriteAll {
				t.Errorf("%s's write-all form %q: %v", e.Name, e.WriteAllForm, err)
			}
		}
		if !e.Unique || e.BSP {
			continue
		}
		g := input(e)
		bsp, err := e.Run(g, params, engine.Config{Workers: 2, Mode: engine.BSP, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		async, err := e.Run(g, params, engine.Config{Workers: 2, Mode: engine.Async, Sync: engine.PartitionLock, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if !bsp.Result.Converged || !async.Result.Converged || !reflect.DeepEqual(bsp.Values, async.Values) {
			t.Errorf("%s: BSP and Async answers differ", e.Name)
		}
	}
	if _, err := Lookup("no-such-alg"); err == nil || !strings.Contains(err.Error(), `unknown algorithm "no-such-alg"`) {
		t.Errorf("Lookup of an unknown name: %v", err)
	}
	tri, _ := Lookup("triangles")
	if _, err := tri.Run(input(tri), params, engine.Config{Mode: engine.Async}); err == nil {
		t.Error("triangles ran under Async")
	}
}

// The PageRank oracles hold every vertex to algorithms.PageRankBound: a
// source vertex left at its first rank fails them. Only the Pregel
// program's oracle, given a Margin, leaves out the vertices no message
// reaches.
func TestPageRankOracles(t *testing.T) {
	b := graph.NewBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	g := b.Build()
	// Vertex 0 has no in-neighbours and keeps its first rank, 1; its
	// equation gives 0.15. The others' equations hold.
	pr := []float64{1, 1, 1}
	p := Params{Eps: 0.05}
	loose := Params{Eps: 0.05, Margin: 4}
	agg, _ := Lookup("pagerank-agg")
	e, _ := Lookup("pagerank")
	for name, err := range map[string]error{
		"pagerank":            e.check(g, p, pr),
		"pagerank GAS":        e.gasCheck(g, p, pr),
		"pagerank GAS margin": e.gasCheck(g, loose, pr),
		"pagerank-agg margin": agg.check(g, loose, pr),
	} {
		if err == nil {
			t.Errorf("%s oracle passes a source vertex at its first rank", name)
		}
	}
	if err := e.check(g, loose, pr); err != nil {
		t.Errorf("pagerank oracle with a margin: %v", err)
	}
}

package engine

import (
	"reflect"
	"strings"
	"testing"

	"serialgraph/internal/algorithms"
	"serialgraph/internal/cluster"
	"serialgraph/internal/generate"
	"serialgraph/internal/graph"
	"serialgraph/internal/model"
	"serialgraph/internal/msgstore"
)

// TestStoresShareOneLayout: every message store of a BSP run, both of each
// worker's pair and the ones a mutation rebuilds, indexes by the partition
// map's one position table over the worker's run of its layout, and a
// point entry for a vertex another worker owns still panics.
func TestStoresShareOneLayout(t *testing.T) {
	g := generate.PowerLaw(generate.PowerLawConfig{N: 300, AvgDegree: 5, Exponent: 2.2, Seed: 4})
	t.Run("overwrite", func(t *testing.T) { checkSharedLayout(t, g, algorithms.PageRank(1e-3)) })
	t.Run("combine", func(t *testing.T) { checkSharedLayout(t, g, algorithms.SSSP(0)) })
}

func checkSharedLayout[V, M any](t *testing.T, g *graph.Graph, prog model.Program[V, M]) {
	cfg := Config{Workers: 3, PartitionsPerWorker: 2, Mode: BSP, Seed: 1}.withDefaults()
	r := newRunner(g, prog, cfg)
	r.attach(cluster.New(cfg.Workers, cfg.Latency))
	defer r.tr.Close()
	r.addWorkers(0, cfg.Workers, false)
	pos := r.pm.Positions()
	check := func(when string) {
		t.Helper()
		for _, w := range r.workers {
			for i, st := range w.stores {
				f := reflect.ValueOf(st).Elem()
				if p := f.FieldByName("pos"); p.Pointer() != reflect.ValueOf(pos).Pointer() || p.Len() != len(pos) {
					t.Errorf("%s: worker %d store %d has an index of its own", when, w.id, i)
				}
				owned := r.pm.Owned(w.id)
				if o := f.FieldByName("owned"); o.Pointer() != reflect.ValueOf(owned).Pointer() || o.Len() != len(owned) {
					t.Errorf("%s: worker %d store %d is not over the worker's run of the layout", when, w.id, i)
				}
			}
		}
	}
	check("built")
	a, b := r.pm.Owned(0)[0], r.pm.Owned(1)[0]
	r.workers[0].mutAdds = []graph.Edge{{Src: a, Dst: b, Weight: 1}, {Src: b, Dst: a, Weight: 1}}
	if err := r.applyMutations(); err != nil {
		t.Fatal(err)
	}
	check("rebuilt after a mutation")

	st := r.workers[0].writeStore()
	if st.Owns(b) {
		t.Fatalf("worker 0's store owns worker 1's vertex %d", b)
	}
	panicsNotOwned(t, "HasNew", func() { st.HasNew(b) })
	if prog.Semantics != model.Overwrite { // a replica (Overwrite) store takes no point entry at all
		var m M
		panicsNotOwned(t, "PutBatch", func() { st.PutBatch([]msgstore.Entry[M]{{Dst: b, Src: a, Msg: m}}) })
	}
}

func panicsNotOwned(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "not owned") {
			t.Errorf("%s of another worker's vertex: recovered %q, want a not-owned panic", what, msg)
		}
	}()
	f()
}

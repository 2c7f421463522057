package main

import (
	"strings"
	"testing"

	"serialgraph"
	"serialgraph/internal/catalog"
	"serialgraph/internal/dist"
	"serialgraph/internal/engine"
	"serialgraph/internal/generate"
)

// A -listen coordinator refuses, by name, every flag and every -model or
// -technique multi-process mode does not implement, and carries the ones
// it does into the job; no process or socket is involved.
func TestCoordinatorRefusesUnsupported(t *testing.T) {
	if err := refuseFlags([]string{"listen", "workers-remote", "alg", "model", "technique", "o"}); err != nil {
		t.Fatalf("supported flags refused: %v", err)
	}
	err := refuseFlags([]string{"listen", "check", "alg", "checkpoint-every", "transport"})
	for _, want := range []string{"-check", "-checkpoint-every", "-transport"} {
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("refuseFlags error %v does not name %s", err, want)
		}
	}

	job := func(model, technique string) (dist.Job, error) {
		pl, err := newPlan("coloring", model, technique, nil)
		if err != nil {
			return dist.Job{}, err
		}
		return listenJob(pl, dist.Job{Family: "powerlaw", N: 50, Workers: 2})
	}
	j, err := job("async", "partition-locking")
	if err != nil {
		t.Fatalf("async partition-locking refused: %v", err)
	}
	if engine.Mode(j.Mode) != engine.Async || engine.Sync(j.Sync) != engine.PartitionLock || !j.Undirected {
		t.Errorf("job carries mode %d, sync %d, undirected %v", j.Mode, j.Sync, j.Undirected)
	}
	for _, tc := range []struct{ model, technique, want string }{
		{"bap", "none", "-model bap"},
		{"async", "dual-token", "token-dual"},
		{"async", "single-token", "token-single"},
		{"async", "vertex-locking", "-technique vertex-locking"},
		{"bsp", "partition-locking", "requires the Async mode"},
	} {
		if _, err := job(tc.model, tc.technique); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("-model %s -technique %s: err = %v, want %q", tc.model, tc.technique, err, tc.want)
		}
	}
}

// Every path through graphrun takes exactly the catalog's algorithm names:
// the engine accepts each of them, the GAS engine those with a GAS form,
// and a -listen coordinator each of them under its default model and
// technique; an unknown name, -model or -technique fails.
func TestAcceptsCatalogNames(t *testing.T) {
	for _, e := range catalog.Entries() {
		if _, err := newPlan(e.Name, "async", "partition-locking", nil); err != nil {
			t.Errorf("engine refuses %s: %v", e.Name, err)
		}
		if _, err := newPlan(e.Name, "async", "vertex-locking", []string{"technique"}); (err == nil) != e.HasGAS() {
			t.Errorf("GAS engine accepts %s: %v, want %v (%v)", e.Name, err == nil, e.HasGAS(), err)
		}
		pl, err := newPlan(e.Name, "async", "partition-locking", []string{"alg"})
		if err == nil {
			var j dist.Job
			j, err = listenJob(pl, dist.Job{Family: "powerlaw", N: 50, Workers: 2})
			if j.Alg != e.Name || j.Undirected != e.Undirected {
				t.Errorf("-listen job for %s carries alg %q, undirected %v", e.Name, j.Alg, j.Undirected)
			}
		}
		if err != nil {
			t.Errorf("-listen refuses %s: %v", e.Name, err)
		}
	}
	for _, tc := range []struct{ alg, model, technique, want string }{
		{"no-such-alg", "async", "none", "unknown algorithm"},
		{"wcc", "bogus", "none", `unknown -model "bogus"`},
		{"wcc", "async", "bogus", `unknown -technique "bogus"`},
	} {
		if _, err := newPlan(tc.alg, tc.model, tc.technique, nil); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%+v: err = %v, want %q", tc, err, tc.want)
		}
	}
	if pl, err := newPlan("wcc", "bap", "partition-locking", nil); err != nil || pl.model != serialgraph.BAP {
		t.Errorf("-model bap: plan %+v, err %v", pl, err)
	}
	// pagerank-agg halts only by MasterHalt, which BAP never consults: the
	// run is refused rather than left to run forever.
	pl, err := newPlan("pagerank-agg", "bap", "partition-locking", nil)
	if err == nil {
		g := generate.Family("ring", 8, 1)
		_, err = pl.run(g, catalog.Params{Eps: 0.01}, serialgraph.Options{Workers: 2, Model: pl.model, Technique: pl.technique})
	}
	if err == nil || !strings.Contains(err.Error(), "MasterHalt") {
		t.Errorf("pagerank-agg under -model bap: err = %v, want a refusal naming MasterHalt", err)
	}
}

// An entry that synchronizes itself runs under BSP with no technique: the
// defaults give way, and an explicit other -model or -technique is refused.
func TestSelfSynchronizingEntryRunsBSP(t *testing.T) {
	pl, err := newPlan("triangles", "async", "partition-locking", []string{"alg"})
	if err != nil || pl.model != serialgraph.BSP || pl.technique != serialgraph.NoSerializability {
		t.Fatalf("triangles under the defaults: plan %+v, err %v", pl, err)
	}
	for _, set := range [][]string{{"model"}, {"technique"}} {
		if _, err := newPlan("triangles", "async", "partition-locking", set); err == nil || !strings.Contains(err.Error(), "only under -model bsp") {
			t.Errorf("explicit %v: err = %v", set, err)
		}
	}
	if _, err := newPlan("triangles", "bsp", "none", []string{"model", "technique"}); err != nil {
		t.Errorf("explicit bsp/none refused: %v", err)
	}
}

package engine

import (
	"slices"
	"sync"
	"testing"

	"serialgraph/internal/algorithms"
	"serialgraph/internal/chandy"
	"serialgraph/internal/cluster"
	"serialgraph/internal/fault"
	"serialgraph/internal/generate"
	"serialgraph/internal/history"
)

// dupCtrlMem is an in-process transport that delivers every control batch
// twice, the at-least-once delivery a fault hook can ask for (Fate.
// Duplicates). The lock manager gets the first copy; the second goes to a
// check that it still reads what the first did. A second copy applied
// would hand a philosopher a fork it already holds, but a recycled batch
// shows without one: the receiving manager empties a batch it keeps as a
// spare and refills it for its next send, so the copy reads another batch
// or none, and under -race the refill races the read.
type dupCtrlMem struct {
	*cluster.Mem
	mu sync.Mutex
	// first holds the content each batch was delivered with, until its
	// copy has been checked.
	first             map[*[]chandy.Ctrl][]chandy.Ctrl
	copies, differing int
}

// dupCtrl adds one copy of every control message to the run's fault hook.
type dupCtrl struct{ cluster.FaultHook }

func (h dupCtrl) OnSend(m cluster.Message) cluster.Fate {
	f := h.FaultHook.OnSend(m)
	if m.Kind == cluster.Control {
		f.Duplicates++
	}
	return f
}

func (d *dupCtrlMem) SetFaultHook(h cluster.FaultHook) { d.Mem.SetFaultHook(dupCtrl{h}) }

func (d *dupCtrlMem) RegisterHandler(w cluster.WorkerID, h cluster.Handler) {
	d.Mem.RegisterHandler(w, func(m cluster.Message) {
		b, ok := m.Payload.(*[]chandy.Ctrl)
		if !ok {
			h(m)
			return
		}
		d.mu.Lock()
		want, isCopy := d.first[b]
		if isCopy {
			delete(d.first, b)
			d.copies++
			if !slices.Equal(*b, want) {
				d.differing++
			}
		} else {
			d.first[b] = slices.Clone(*b)
		}
		d.mu.Unlock()
		if !isCopy {
			h(m)
		}
	})
}

// runDupCtrl colours g the way Run does — the same runner, workers, lock
// managers and barrier — over a dupCtrlMem, superstep by superstep.
// forceRecycle overrides the rule that faults turn recycling off.
func runDupCtrl(t *testing.T, cfg Config, forceRecycle bool) (*history.Recorder, *dupCtrlMem) {
	t.Helper()
	g := undirected(generate.PowerLaw(generate.PowerLawConfig{N: 300, AvgDegree: 6, Exponent: 2.2, Seed: 3}))
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		t.Fatal(err)
	}
	r := newRunner(g, algorithms.Coloring(), cfg)
	r.recycleBatches = r.recycleBatches || forceRecycle
	tr := &dupCtrlMem{Mem: cluster.New(cfg.Workers, cfg.Latency), first: make(map[*[]chandy.Ctrl][]chandy.Ctrl)}
	r.attach(tr)
	defer tr.Close()
	r.addWorkers(0, cfg.Workers, true)
	master := NewMaster(r.prog, cfg)
	for s := 0; s < cfg.MaxSupersteps; s++ {
		cfg.Fault.BeginSuperstep(s)
		var wg sync.WaitGroup
		for _, w := range r.workers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				w.runSuperstep(s)
			}()
		}
		wg.Wait()
		tr.WaitIdle()
		if err := r.commitWorkers(s); err != nil {
			t.Fatal(err)
		}
		merged, stop := master.Fold(s, r.reports)
		for _, w := range r.workers {
			w.aggPrev = merged
		}
		if stop {
			if err := algorithms.ValidateColoring(g, r.values); err != nil {
				t.Fatal(err)
			}
			if v := history.CheckAll(r.rec.Txns(), g); v != nil {
				t.Fatalf("%d violations, first %v", len(v), v[0])
			}
			return r.rec, tr
		}
	}
	t.Fatalf("no convergence in %d supersteps", cfg.MaxSupersteps)
	return nil, nil
}

// faultyLockRun is a locked colouring under fault injection: the plan
// injects nothing, but its presence is what turns recycling off.
func faultyLockRun(sync Sync) Config {
	return Config{
		Workers: 4, PartitionsPerWorker: 4, ThreadsPerWorker: 2, Mode: Async, Sync: sync, Seed: 5,
		TrackHistory: true, Fault: fault.NewInjector(fault.Plan{Seed: 1}),
	}
}

// TestRecycleOffUnderFaults pins that fault injection turns control-batch
// recycling off: with every control batch delivered twice, under both
// locking techniques, each copy reads exactly what its original did, and
// the colouring is proper with a clean history.
func TestRecycleOffUnderFaults(t *testing.T) {
	for _, sync := range []Sync{PartitionLock, VertexLockGiraph} {
		t.Run(sync.String(), func(t *testing.T) {
			rec, tr := runDupCtrl(t, faultyLockRun(sync), false)
			if tr.copies == 0 || len(tr.first) != 0 {
				t.Fatalf("%d copies checked, %d batches delivered once: not every batch was duplicated", tr.copies, len(tr.first))
			}
			if tr.differing != 0 {
				t.Errorf("%d of %d duplicated control batches changed between deliveries: a faulty run recycled them", tr.differing, tr.copies)
			}
			t.Logf("%d control batches delivered twice, %d transactions", tr.copies, rec.Len())
		})
	}
}

// TestRecycleSeenUnderDuplicates shows that check has teeth: the same run
// with recycling forced on sees duplicated batches change. (Under -race
// the refill racing the copy's read is itself the failure.)
func TestRecycleSeenUnderDuplicates(t *testing.T) {
	if raceEnabled {
		t.Skip("a recycled batch read by its duplicate is a data race by construction")
	}
	_, tr := runDupCtrl(t, faultyLockRun(PartitionLock), true)
	if tr.differing == 0 {
		t.Errorf("none of %d duplicated control batches changed with recycling forced on", tr.copies)
	}
}

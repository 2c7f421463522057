// Package fault is a seeded, deterministic fault injector for the
// simulated cluster. It reproduces the failure model that Distributed
// GraphLab and Pregelix treat as a first-class evaluation axis: worker
// crashes (whole-machine state loss), message drops, duplicated
// deliveries, and straggler delays — all scheduled up front so a chaos run
// is reproducible from its seed.
//
// The injector plugs into cluster.Transport as its FaultHook and into the
// engine's master loop via BeginSuperstep. Crashes can fire when a given
// superstep begins or once the cluster has delivered a given number of
// data messages; either way the transport's Kill semantics take over (the
// worker's data traffic is lost) and the engine detects the death at the
// next barrier and rolls the whole cluster back to its latest checkpoint.
//
// Message-level chaos (drop/duplicate/straggle) applies to data traffic
// only. Control messages ride a reliable, TCP-like channel in real
// deployments, and randomly dropping forks would wedge the coordination
// protocol rather than model any real failure.
package fault

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"serialgraph/internal/cluster"
)

// Crash schedules one worker failure. A crash is message-triggered when
// AfterMessages > 0 (it fires once the cluster has delivered that many
// data messages); otherwise it is superstep-triggered and fires when
// superstep AtSuperstep begins. Each crash fires at most once per run,
// even though recovery replays the superstep it fired in.
type Crash struct {
	// Worker is the victim's ID.
	Worker int
	// AtSuperstep fires the crash when this superstep begins (the worker
	// is dead for the whole superstep and the master detects it at the
	// superstep's barrier).
	AtSuperstep int
	// AfterMessages, when > 0, fires the crash mid-superstep instead:
	// after this many data messages have been delivered cluster-wide.
	AfterMessages int64
}

func (c Crash) String() string {
	if c.AfterMessages > 0 {
		return fmt.Sprintf("crash worker %d after %d data deliveries", c.Worker, c.AfterMessages)
	}
	return fmt.Sprintf("crash worker %d at superstep %d", c.Worker, c.AtSuperstep)
}

// CtrlDrop schedules a control-plane loss: starting when superstep
// AtSuperstep begins, the next Count control messages sent are lost on the
// wire (delivery-time drops, so the send-side control ledger that the
// metrics conservation checks reconcile stays exact). Losing a lock
// manager's batch of forks or request tokens wedges the philosopher waiting
// for it — which is precisely the stall the engine's liveness watchdog
// exists to detect, so CtrlDrops are the watchdog's test vector rather than
// part of the random chaos space.
type CtrlDrop struct {
	// AtSuperstep arms the drop when this superstep begins.
	AtSuperstep int
	// Count is how many control messages to lose once armed.
	Count int
}

func (c CtrlDrop) String() string {
	return fmt.Sprintf("drop %d control messages at superstep %d", c.Count, c.AtSuperstep)
}

// Plan is the full fault schedule for one run.
type Plan struct {
	// Crashes lists the scheduled worker failures.
	Crashes []Crash
	// CtrlDrops lists scheduled control-message losses (see CtrlDrop).
	CtrlDrops []CtrlDrop
	// DropRate is the probability a data message is dropped in flight.
	DropRate float64
	// DuplicateRate is the probability a data message is delivered twice.
	DuplicateRate float64
	// StragglerRate is the probability a data message is delayed by
	// StragglerDelay on top of the latency model.
	StragglerRate float64
	// StragglerDelay is the extra delay applied to straggler messages.
	StragglerDelay time.Duration
	// Seed fixes the drop/duplicate/straggler pattern. Runs with the same
	// plan and the same message schedule make identical decisions.
	Seed uint64
}

// chaotic reports whether the plan includes message-level chaos.
func (p Plan) chaotic() bool {
	return p.DropRate > 0 || p.DuplicateRate > 0 || p.StragglerRate > 0
}

func (p Plan) String() string {
	if len(p.Crashes) == 0 && len(p.CtrlDrops) == 0 && !p.chaotic() {
		return "none"
	}
	return fmt.Sprintf("{crashes=%d ctrldrops=%d drop=%.3f dup=%.3f straggle=%.3f seed=%#x}",
		len(p.Crashes), len(p.CtrlDrops), p.DropRate, p.DuplicateRate, p.StragglerRate, p.Seed)
}

// RandomPlan draws a reproducible random fault schedule for a cluster of n
// workers: possibly a couple of worker crashes (superstep- or message-
// triggered) plus message-level chaos at modest rates. The same seed and
// cluster size always produce the same plan, so a randomized chaos sweep
// can be replayed from its seed. The returned plan always passes Validate
// for a cluster of n workers.
func RandomPlan(seed uint64, n int) Plan {
	r := rand.New(rand.NewSource(int64(seed)))
	p := Plan{Seed: seed}
	if n > 1 && r.Float64() < 0.5 {
		for i, k := 0, 1+r.Intn(2); i < k; i++ {
			c := Crash{Worker: r.Intn(n)}
			if r.Float64() < 0.3 {
				c.AfterMessages = int64(10 + r.Intn(190))
			} else {
				c.AtSuperstep = r.Intn(5)
			}
			p.Crashes = append(p.Crashes, c)
		}
	}
	if r.Float64() < 0.25 {
		p.DropRate = 0.01 + r.Float64()*0.05
	}
	if r.Float64() < 0.35 {
		p.DuplicateRate = 0.02 + r.Float64()*0.2
	}
	if r.Float64() < 0.35 {
		p.StragglerRate = 0.02 + r.Float64()*0.15
		p.StragglerDelay = time.Duration(20+r.Intn(200)) * time.Microsecond
	}
	return p
}

// Stats counts what the injector actually did.
type Stats struct {
	CrashesFired int64
	Drops        int64
	Duplicates   int64
	Delays       int64
	CtrlDrops    int64
}

// Injector executes a Plan against one run. Create one per run with
// NewInjector; an Injector must not be shared across runs (its crash
// schedule and message counters are single-use).
type Injector struct {
	plan Plan
	tr   atomic.Value // stores cluster.Transport

	mu       sync.Mutex
	rng      *rand.Rand
	fired    []bool // per Crashes entry
	ctrlLeft []int  // per CtrlDrops entry: losses still to inject

	curStep   atomic.Int64 // superstep last begun; -1 before the run
	delivered atomic.Int64 // data messages delivered cluster-wide

	crashesFired atomic.Int64
	drops        atomic.Int64
	duplicates   atomic.Int64
	delays       atomic.Int64
	ctrlDrops    atomic.Int64
}

// NewInjector builds an injector for the plan. Validate the plan against
// the cluster size with Validate before the run starts.
func NewInjector(p Plan) *Injector {
	in := &Injector{
		plan:     p,
		rng:      rand.New(rand.NewSource(int64(p.Seed))),
		fired:    make([]bool, len(p.Crashes)),
		ctrlLeft: make([]int, len(p.CtrlDrops)),
	}
	for i, c := range p.CtrlDrops {
		in.ctrlLeft[i] = c.Count
	}
	in.curStep.Store(-1)
	return in
}

// Plan returns the schedule the injector was built with.
func (in *Injector) Plan() Plan { return in.plan }

// Validate checks the plan against a cluster of n workers.
func (in *Injector) Validate(n int) error {
	for _, c := range in.plan.Crashes {
		if c.Worker < 0 || c.Worker >= n {
			return fmt.Errorf("fault: crash targets worker %d, cluster has %d", c.Worker, n)
		}
		if c.AfterMessages <= 0 && c.AtSuperstep < 0 {
			return fmt.Errorf("fault: crash for worker %d has no trigger", c.Worker)
		}
	}
	for _, c := range in.plan.CtrlDrops {
		if c.AtSuperstep < 0 {
			return fmt.Errorf("fault: ctrl drop armed at negative superstep %d", c.AtSuperstep)
		}
		if c.Count <= 0 {
			return fmt.Errorf("fault: ctrl drop at superstep %d with count %d", c.AtSuperstep, c.Count)
		}
	}
	for _, r := range []struct {
		name string
		v    float64
	}{{"DropRate", in.plan.DropRate}, {"DuplicateRate", in.plan.DuplicateRate}, {"StragglerRate", in.plan.StragglerRate}} {
		if r.v < 0 || r.v > 1 {
			return fmt.Errorf("fault: %s %v outside [0,1]", r.name, r.v)
		}
	}
	if in.plan.StragglerRate > 0 && in.plan.StragglerDelay <= 0 {
		return fmt.Errorf("fault: StragglerRate set with no StragglerDelay")
	}
	return nil
}

// Attach wires the injector into the transport. The engine calls it after
// creating the transport and before any traffic flows.
func (in *Injector) Attach(tr cluster.Transport) {
	in.tr.Store(tr)
	tr.SetFaultHook(in)
}

// BeginSuperstep fires every unfired superstep-triggered crash scheduled
// for superstep s. The engine's master calls it before dispatching the
// superstep, so the victim is dead for the superstep's whole duration.
func (in *Injector) BeginSuperstep(s int) {
	in.curStep.Store(int64(s))
	tr, _ := in.tr.Load().(cluster.Transport)
	if tr == nil {
		return
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	for i, c := range in.plan.Crashes {
		if in.fired[i] || c.AfterMessages > 0 || c.AtSuperstep != s {
			continue
		}
		in.fired[i] = true
		in.crashesFired.Add(1)
		tr.Kill(cluster.WorkerID(c.Worker))
	}
}

// OnSend implements cluster.FaultHook: it rolls the seeded dice for data
// messages. Decisions are made in send order under a lock, so a fixed
// message schedule replays the exact same drop/duplicate/delay pattern.
func (in *Injector) OnSend(m cluster.Message) cluster.Fate {
	if m.Kind == cluster.Control && len(in.plan.CtrlDrops) > 0 {
		step := int(in.curStep.Load())
		lost := false
		in.mu.Lock()
		for i, c := range in.plan.CtrlDrops {
			if step >= c.AtSuperstep && in.ctrlLeft[i] > 0 {
				in.ctrlLeft[i]--
				lost = true
				break
			}
		}
		in.mu.Unlock()
		if lost {
			in.ctrlDrops.Add(1)
			return cluster.Fate{DropDelivery: true}
		}
	}
	if m.Kind != cluster.Data || !in.plan.chaotic() {
		return cluster.Fate{}
	}
	in.mu.Lock()
	drop := in.plan.DropRate > 0 && in.rng.Float64() < in.plan.DropRate
	dup := in.plan.DuplicateRate > 0 && in.rng.Float64() < in.plan.DuplicateRate
	straggle := in.plan.StragglerRate > 0 && in.rng.Float64() < in.plan.StragglerRate
	in.mu.Unlock()
	var f cluster.Fate
	if drop {
		in.drops.Add(1)
		f.Drop = true
		return f
	}
	if dup {
		in.duplicates.Add(1)
		f.Duplicates = 1
	}
	if straggle {
		in.delays.Add(1)
		f.Delay = in.plan.StragglerDelay
	}
	return f
}

// OnDeliver implements cluster.FaultHook: it advances the delivered-data
// counter and fires any message-triggered crash whose threshold has been
// crossed.
func (in *Injector) OnDeliver(m cluster.Message) {
	if m.Kind != cluster.Data {
		return
	}
	n := in.delivered.Add(1)
	tr, _ := in.tr.Load().(cluster.Transport)
	if tr == nil {
		return
	}
	for i, c := range in.plan.Crashes {
		if c.AfterMessages <= 0 || n < c.AfterMessages {
			continue
		}
		in.mu.Lock()
		hit := !in.fired[i]
		if hit {
			in.fired[i] = true
		}
		in.mu.Unlock()
		if hit {
			in.crashesFired.Add(1)
			tr.Kill(cluster.WorkerID(c.Worker))
		}
	}
}

// Delivered returns the number of data messages delivered so far.
func (in *Injector) Delivered() int64 { return in.delivered.Load() }

// Stats reports what the injector did.
func (in *Injector) Stats() Stats {
	return Stats{
		CrashesFired: in.crashesFired.Load(),
		Drops:        in.drops.Load(),
		Duplicates:   in.duplicates.Load(),
		Delays:       in.delays.Load(),
		CtrlDrops:    in.ctrlDrops.Load(),
	}
}

// Exhausted reports whether every scheduled crash has fired and every
// scheduled control drop has been injected, which chaos tests use to assert
// the schedule actually executed.
func (in *Injector) Exhausted() bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	for _, f := range in.fired {
		if !f {
			return false
		}
	}
	for _, left := range in.ctrlLeft {
		if left > 0 {
			return false
		}
	}
	return true
}

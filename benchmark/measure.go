package main

import (
	"fmt"
	"runtime"
	"syscall"
	"time"

	"serialgraph"
	"serialgraph/internal/metrics"
)

// A run builds its inputs several times and reports the median as setup_s,
// because one build of a small input is too short to time steadily: at least
// minSetupReps times, then until setupShare of the measuring time has gone
// into set-up or maxSetupReps is reached.
const (
	minSetupReps = 5
	maxSetupReps = 40
	setupShare   = 0.15
)

// config is the measurement protocol's few free variables.
type config struct {
	seed    uint64
	seconds float64 // how long the repetitions of one workload are measured
	trace   bool    // traced pass: per-layer metrics instead of end-to-end ones
	tiny    bool    // smoke-test input sizes
}

// metricValue is one reported metric.
type metricValue struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
	summary
}

// report is everything one workload's measurement produced.
type report struct {
	Workload   string        `json:"workload"`
	Why        string        `json:"why"`
	Seed       uint64        `json:"seed"`
	Attempted  int           `json:"attempted"`
	Failed     int           `json:"failed"`
	Failures   []string      `json:"failures,omitempty"`
	Exact      bool          `json:"exact_counts"`
	Executions int64         `json:"executions"`
	Supersteps int           `json:"supersteps"`
	Checksum   string        `json:"checksum"`
	QuietWaitS float64       `json:"quiet_wait_s"` // time held back by the quiet gate (quiet.go)
	EndToEnd   []metricValue `json:"end_to_end,omitempty"`
	PerLayer   []metricValue `json:"per_layer,omitempty"`
}

// rep is one timed repetition that returned a validated answer.
type rep struct {
	wall    time.Duration
	res     serialgraph.Result
	alloc   uint64 // bytes allocated during the call
	mallocs uint64
	gcPause time.Duration
}

// measure runs the protocol on one workload: build the inputs several
// times, one discarded warm-up repetition, then repetitions for
// cfg.seconds, each after a collection made outside the timer. Without the
// collection the wall time of vl_coloring_gas is bimodal (see README.md).
// A repetition that fails or returns a wrong answer is counted and left out
// of the timings. In the traced pass untraced and traced repetitions
// alternate, so that drift does not show up as tracing overhead.
func measure(w workload, cfg config, tr *tracer) (*report, error) {
	tr.setWorkload(w.name)
	out := &report{Workload: w.name, Why: w.why, Seed: cfg.seed}

	var gate quietGate
	defer func() { out.QuietWaitS = gate.waited.Seconds() }()
	var inst *instance
	var setups []float64
	window := time.Duration(cfg.seconds * float64(time.Second))
	// spent is the time since begun that was not spent held back by the gate.
	begun := time.Now()
	spent := func() time.Duration { return time.Since(begun) - gate.waited }
	for len(setups) < minSetupReps || (len(setups) < maxSetupReps && float64(spent()) < setupShare*float64(window)) {
		inst = nil
		runtime.GC()
		gate.wait()
		start := time.Now()
		sp := tr.begin("setup")
		built, err := w.setup(cfg.seed, cfg.tiny, tr)
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		setups = append(setups, time.Since(start).Seconds())
		inst = built
	}
	out.Exact = inst.exact

	var want struct {
		set                    bool
		checksum               uint64
		executions, supersteps int64
	}
	if inst.oracle != nil {
		sum, err := inst.oracle()
		if err != nil {
			return nil, fmt.Errorf("%s: oracle run: %w", w.name, err)
		}
		want.set, want.checksum = true, sum
	}

	var plain, traced []rep
	one := func(detailed bool) {
		runtime.GC()
		gate.wait()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		sp := 0
		if detailed {
			sp = tr.begin("serialgraph.Run")
		}
		start := time.Now()
		res, check, err := inst.run(detailed)
		wall := time.Since(start)
		if detailed {
			tr.end(sp)
			superstepSpans(tr, sp, wall, res)
		}
		runtime.ReadMemStats(&after)
		out.Attempted++
		var sum uint64
		if err == nil {
			sum, err = check()
		}
		if err == nil && inst.exact {
			switch {
			case want.set && sum != want.checksum:
				err = fmt.Errorf("checksum %016x, expected %016x", sum, want.checksum)
			case out.Checksum != "" && (res.Executions != want.executions || int64(res.Supersteps) != want.supersteps):
				err = fmt.Errorf("%d executions in %d supersteps, earlier repetitions made %d in %d",
					res.Executions, res.Supersteps, want.executions, want.supersteps)
			}
		}
		if err != nil {
			out.Failed++
			out.Failures = append(out.Failures, err.Error())
			return
		}
		if out.Checksum == "" {
			want.set, want.checksum = true, sum
			want.executions, want.supersteps = res.Executions, int64(res.Supersteps)
			out.Checksum = fmt.Sprintf("%016x", sum)
			out.Executions, out.Supersteps = res.Executions, res.Supersteps
		}
		r := rep{
			wall: wall, res: res,
			alloc: after.TotalAlloc - before.TotalAlloc, mallocs: after.Mallocs - before.Mallocs,
			gcPause: time.Duration(after.PauseTotalNs - before.PauseTotalNs),
		}
		if detailed {
			traced = append(traced, r)
		} else {
			plain = append(plain, r)
		}
	}

	if _, _, err := inst.run(false); err != nil { // warm-up, discarded
		return nil, fmt.Errorf("%s: warm-up: %w", w.name, err)
	}
	for deadline := spent() + window; out.Attempted == 0 || spent() < deadline; {
		one(false)
		if cfg.trace {
			one(true)
		}
	}
	if len(plain) == 0 || (cfg.trace && len(traced) == 0) {
		return out, nil // every repetition failed: nothing to time
	}

	if !cfg.trace {
		out.EndToEnd = endToEnd(setups, plain)
		return out, nil
	}
	microbench(inst, tr, pick(cfg.tiny, 1, microRounds))
	out.PerLayer = perLayer(inst, tr, plain, traced, gate.waited)
	return out, nil
}

// over summarizes one number taken from each repetition.
func over(reps []rep, f func(rep) float64) summary {
	samples := make([]float64, len(reps))
	for i, r := range reps {
		samples[i] = f(r)
	}
	return summarize(samples)
}

const mib = 1 << 20

func endToEnd(setups []float64, reps []rep) []metricValue {
	return []metricValue{
		{"setup_s", "s", summarize(setups)},
		{"run_wall_s", "s", over(reps, func(r rep) float64 { return r.wall.Seconds() })},
		{"compute_s", "s", over(reps, func(r rep) float64 { return r.res.ComputeTime.Seconds() })},
		{"execs_per_s", "1/s", over(reps, func(r rep) float64 { return float64(r.res.Executions) / r.wall.Seconds() })},
		{"alloc_mb", "MiB", over(reps, func(r rep) float64 { return float64(r.alloc) / mib })},
	}
}

// superstepSpans rebuilds the inside of a Run span from what Run returned:
// the time before the first superstep (partitioning, set-up and, because
// Run reports no boundary for it, teardown) and one span per superstep.
func superstepSpans(tr *tracer, run int, wall time.Duration, res serialgraph.Result) {
	at := tr.spans[run-1].Start
	prep := wall - res.ComputeTime
	tr.child(run, "engine.prep", at, at+prep, nil)
	at += prep
	for i, st := range res.SuperstepStats {
		tr.child(run, "engine.superstep", at, at+st.Duration, map[string]float64{
			"superstep": float64(i), "executions": float64(st.Executions),
			"data_msgs": float64(st.DataMsgs), "ctrl_msgs": float64(st.CtrlMsgs),
			"compute_us":        float64(st.ComputeNs) / 1e3,
			"local_delivery_us": float64(st.LocalDeliveryNs) / 1e3,
			"remote_flush_us":   float64(st.RemoteFlushNs) / 1e3,
			"barrier_wait_us":   float64(st.BarrierWaitNs) / 1e3,
		})
		at += st.Duration
	}
}

// perLayer turns the traced pass into the per-layer metrics: result
// metrics are medians over the traced repetitions of what Run returned,
// micro metrics are medians over the spans of the microbenchmarks.
func perLayer(inst *instance, tr *tracer, plain, traced []rep, quietWait time.Duration) []metricValue {
	var out []metricValue
	add := func(name, unit string, s summary) { out = append(out, metricValue{name, unit, s}) }
	result := func(name, unit string, f func(rep) float64) { add(name, unit, over(traced, f)) }
	counter := func(name string, c metrics.CounterID) {
		result(name, "count", func(r rep) float64 { return float64(r.res.Metrics.Get(c)) })
	}
	counterSeconds := func(name string, c metrics.CounterID) {
		result(name, "s", func(r rep) float64 { return float64(r.res.Metrics.Get(c)) / 1e9 })
	}
	phase := func(name string, p metrics.Phase) {
		result(name, "s", func(r rep) float64 { return r.res.Metrics.Phase(p).Seconds() })
	}
	spanSeconds := func(name, unit, spanName string) {
		var samples []float64
		for _, s := range tr.named(spanName) {
			samples = append(samples, s.dur().Seconds())
		}
		add(name, unit, summarize(samples))
	}
	// perOp is the cost of one operation under the named span, in ns
	// scaled by perUnit (1 for ns, 1e3 for us).
	perOp := func(name, unit, spanName string, perUnit float64) {
		var samples []float64
		for _, s := range tr.named(spanName) {
			samples = append(samples, float64(s.dur())/s.Args["ops"]/perUnit)
		}
		add(name, unit, summarize(samples))
	}
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	workers := float64(inst.opt.Workers)
	vertices := float64(inst.g.NumVertices())

	spanSeconds("generate.build_s", "s", "generate.build")
	perOp("graph.inslot_ns", "ns", "graph.InSlot", 1)

	spanSeconds("partition.build_s", "s", "partition.New")
	spanSeconds("partition.report_s", "s", "partition.Report")
	result("partition.cut_frac", "frac", func(r rep) float64 { return r.res.Partition.CutFraction })
	result("partition.boundary_frac", "frac", func(r rep) float64 { return r.res.Partition.BoundaryFraction })

	result("engine.prep_s", "s", func(r rep) float64 { return (r.wall - r.res.ComputeTime).Seconds() })
	result("engine.supersteps", "count", func(r rep) float64 { return float64(r.res.Supersteps) })
	result("engine.executions", "count", func(r rep) float64 { return float64(r.res.Executions) })
	result("engine.superstep_us", "us", func(r rep) float64 {
		return ratio(float64(r.res.ComputeTime.Microseconds()), float64(r.res.Supersteps))
	})
	phase("engine.phase_compute_s", metrics.PhaseCompute)
	phase("engine.phase_local_delivery_s", metrics.PhaseLocalDelivery)
	phase("engine.phase_remote_flush_s", metrics.PhaseRemoteFlush)
	phase("engine.phase_barrier_wait_s", metrics.PhaseBarrierWait)
	result("engine.phase_gap_frac", "frac", func(r rep) float64 {
		m := r.res.Metrics
		covered := m.Phase(metrics.PhaseCompute) + m.Phase(metrics.PhaseRemoteFlush) + m.Phase(metrics.PhaseBarrierWait)
		if covered == 0 {
			return 0 // the GAS engine keeps no phase timers
		}
		return 1 - covered.Seconds()/(workers*r.res.ComputeTime.Seconds())
	})
	counterSeconds("engine.token_hold_s", metrics.TokenHoldNs)
	counterSeconds("engine.token_idle_s", metrics.TokenIdleNs)
	result("engine.max_concurrency", "count", func(r rep) float64 { return float64(r.res.MaxConcurrency) })

	perOp("msgstore.putbatch_ns_per_entry", "ns", "msgstore.PutBatch/combine", 1)
	perOp("msgstore.put_overwrite_ns_per_entry", "ns", "msgstore.PutBatch/overwrite", 1)
	perOp("msgstore.read_ns_per_vertex", "ns", "msgstore.Read", 1)
	perOp("msgstore.buffer_add_ns_per_entry", "ns", "msgstore.Buffer.AddBatch", 1)
	perOp("msgstore.clear_ns_per_vertex", "ns", "msgstore.Clear", 1)
	counter("msgstore.local_msgs", metrics.LocalMessages)
	counter("msgstore.remote_entries", metrics.RemoteEntries)
	result("msgstore.entries_per_batch", "ratio", func(r rep) float64 {
		m := r.res.Metrics
		return ratio(float64(m.Get(metrics.RemoteEntriesFlushed)), float64(m.Get(metrics.RemoteBatches)))
	})

	perOp("cluster.mem_send_ns_per_batch", "ns", "cluster.Mem.SendData", 1)
	perOp("cluster.mem_ctrl_rtt_us", "us", "cluster.Mem.SendCtrl/roundtrip", 1e3)
	perOp("cluster.flushwait_us", "us", "cluster.Endpoint.FlushWait", 1e3)
	perOp("cluster.tcp_send_ns_per_batch", "ns", "cluster.TCP.SendData", 1)
	perOp("cluster.tcp_ctrl_rtt_us", "us", "cluster.TCP.SendCtrl/roundtrip", 1e3)
	result("cluster.data_batches", "count", func(r rep) float64 { return float64(r.res.Net.DataMessages) })
	result("cluster.data_mb", "MiB", func(r rep) float64 { return float64(r.res.Net.DataBytes) / mib })
	result("cluster.ctrl_msgs", "count", func(r rep) float64 { return float64(r.res.Net.ControlMessages) })
	result("cluster.wire_mb", "MiB", func(r rep) float64 { return float64(r.res.Net.WireBytesSent) / mib })
	counterSeconds("cluster.credit_wait_s", metrics.CreditWaitNs)

	perOp("wire.encode_ns_per_entry", "ns", "wire.EncodePayload", 1)
	perOp("wire.decode_ns_per_entry", "ns", "wire.DecodePayload", 1)
	var bytesPerEntry []float64
	for _, s := range tr.named("wire.EncodePayload") {
		bytesPerEntry = append(bytesPerEntry, s.Args["bytes"]/s.Args["ops"])
	}
	add("wire.bytes_per_entry", "B", summarize(bytesPerEntry))
	phase("wire.phase_encode_s", metrics.PhaseWireEncode)
	phase("wire.phase_decode_s", metrics.PhaseWireDecode)
	phase("wire.phase_flush_s", metrics.PhaseWireFlush)

	perOp("chandy.uncontended_acquire_ns", "ns", "chandy.Acquire/uncontended", 1)
	perOp("chandy.contended_pair_ns", "ns", "chandy.Acquire/contended", 1)
	perOp("chandy.addphil_ns", "ns", "chandy.AddPhil", 1)
	// The GAS engine returns no metrics registry: under vertex locking
	// every execution is one acquisition, and Result.ForkSends is the one
	// fork count both engines return.
	acquires := func(r rep) float64 {
		if inst.opt.Technique == serialgraph.VertexLocking {
			return float64(r.res.Executions)
		}
		return float64(r.res.Metrics.Get(metrics.LockAcquires))
	}
	result("chandy.lock_acquires", "count", acquires)
	result("chandy.fork_grants", "count", func(r rep) float64 { return float64(r.res.ForkSends) })
	counter("chandy.fork_grants_remote", metrics.ForkGrantsRemote)
	counterSeconds("chandy.lock_wait_s", metrics.LockWaitNs)
	result("chandy.forks_per_acquire", "ratio", func(r rep) float64 { return ratio(float64(r.res.ForkSends), acquires(r)) })

	result("gas.reexec_ratio", "ratio", func(r rep) float64 { return float64(r.res.Executions) / vertices })

	spanSeconds("algorithms.ref_s", "s", "algorithms.ref")
	ref := out[len(out)-1].Median
	result("algorithms.speedup_vs_ref", "ratio", func(r rep) float64 { return ratio(ref, r.res.ComputeTime.Seconds()) })

	var usage syscall.Rusage
	rss := 0.0
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &usage); err == nil {
		rss = float64(usage.Maxrss) / 1024 // Linux reports KiB
	}
	add("process.peak_rss_mb", "MiB", summarize([]float64{rss}))
	result("process.gc_pause_ms", "ms", func(r rep) float64 { return float64(r.gcPause) / 1e6 })
	result("process.mallocs_per_rep", "count", func(r rep) float64 { return float64(r.mallocs) })
	wall := func(r rep) float64 { return r.wall.Seconds() }
	add("process.trace_overhead_frac", "frac", summarize([]float64{over(traced, wall).Median/over(plain, wall).Median - 1}))
	add("process.quiet_wait_s", "s", summarize([]float64{quietWait.Seconds()}))
	return out
}

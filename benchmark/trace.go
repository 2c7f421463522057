package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed interval. The benchmark records a span around every
// call it makes into a layer's public functions and around every Run; the
// per-superstep children of a Run span are rebuilt from
// Result.SuperstepStats, because the program itself records no spans yet.
type span struct {
	ID       int
	Parent   int // 0 = root
	Name     string
	Workload string
	Tid      int           // trace thread: one per workload, in run order
	Start    time.Duration // since the tracer's epoch
	End      time.Duration
	Args     map[string]float64
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory until write. The benchmark opens and closes
// spans from one goroutine, so the open spans form a stack. A nil *tracer
// is tracing switched off: every method is a no-op.
type tracer struct {
	epoch    time.Time
	workload string
	tid      int
	spans    []span // span i has ID i+1
	open     []int  // IDs of the spans begun and not yet ended
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// setWorkload names the workload that the spans recorded from now on
// belong to.
func (t *tracer) setWorkload(name string) {
	if t == nil {
		return
	}
	t.workload = name
	t.tid++
}

// begin opens a span under the innermost open span and returns its ID.
func (t *tracer) begin(name string) int {
	if t == nil {
		return 0
	}
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Name: name, Workload: t.workload, Tid: t.tid,
		Start: time.Since(t.epoch),
	})
	id := len(t.spans)
	t.open = append(t.open, id)
	return id
}

// end closes the innermost open span, which must be id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.epoch)
	if n := len(t.open); n == 0 || t.open[n-1] != id {
		panic(fmt.Sprintf("trace: span %d ended out of order (open: %v)", id, t.open))
	}
	t.open = t.open[:len(t.open)-1]
	t.spans[id-1].End = now
}

// setArg attaches a number to a span: a count made at the same boundary,
// so that ratios are measured where the work happens.
func (t *tracer) setArg(id int, key string, v float64) {
	if t == nil {
		return
	}
	s := &t.spans[id-1]
	if s.Args == nil {
		s.Args = make(map[string]float64)
	}
	s.Args[key] = v
}

// child records an already finished interval under parent, clamped to the
// parent's interval so that spans always nest.
func (t *tracer) child(parent int, name string, start, end time.Duration, args map[string]float64) {
	if t == nil {
		return
	}
	p := t.spans[parent-1]
	start = min(max(start, p.Start), p.End)
	end = min(max(end, start), p.End)
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Name: name, Workload: t.workload, Tid: t.tid,
		Start: start, End: end, Args: args,
	})
}

// timed runs body under a span that records ops, the number of operations
// body performs.
func (t *tracer) timed(name string, ops int, body func()) {
	id := t.begin(name)
	body()
	t.end(id)
	t.setArg(id, "ops", float64(ops))
}

// named returns the current workload's spans with the given name.
func (t *tracer) named(name string) []span {
	var out []span
	if t == nil {
		return out
	}
	for _, s := range t.spans {
		if s.Name == name && s.Tid == t.tid {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes returns, per span ID, the span's duration minus the part of
// its interval that its children cover.
func (t *tracer) selfTimes() map[int]time.Duration {
	children := make(map[int][]span)
	for _, s := range t.spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	self := make(map[int]time.Duration, len(t.spans))
	for _, s := range t.spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := time.Duration(0), s.Start
		for _, k := range kids {
			from, to := max(k.Start, edge), min(k.End, s.End)
			if to > from {
				covered += to - from
				edge = to
			}
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}

// traceEvent is one complete ("X") event of the Chrome trace-event format,
// which chrome://tracing and ui.perfetto.dev load directly.
type traceEvent struct {
	Name string             `json:"name"`
	Cat  string             `json:"cat"`
	Ph   string             `json:"ph"`
	Ts   float64            `json:"ts"`  // microseconds since the epoch
	Dur  float64            `json:"dur"` // microseconds
	Pid  int                `json:"pid"`
	Tid  int                `json:"tid"`
	Args map[string]float64 `json:"args"`
}

type traceFile struct {
	TraceEvents     []traceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// write writes the spans to path, one trace thread per workload. Each
// event's args carry the span's id, its parent's id and its self time next
// to the counts recorded on the span.
func (t *tracer) write(path string) error {
	out := traceFile{DisplayTimeUnit: "ms", TraceEvents: []traceEvent{}}
	self := t.selfTimes()
	for _, s := range t.spans {
		args := map[string]float64{
			"id": float64(s.ID), "parent": float64(s.Parent),
			"self_us": float64(self[s.ID]) / float64(time.Microsecond),
		}
		for k, v := range s.Args {
			args[k] = v
		}
		out.TraceEvents = append(out.TraceEvents, traceEvent{
			Name: s.Name, Cat: s.Workload, Ph: "X",
			Ts:  float64(s.Start) / float64(time.Microsecond),
			Dur: float64(s.dur()) / float64(time.Microsecond),
			Pid: 1, Tid: s.Tid, Args: args,
		})
	}
	data, err := json.Marshal(out)
	if err != nil {
		return fmt.Errorf("encode trace: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}

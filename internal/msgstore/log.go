package msgstore

import (
	"slices"
	"sync"
)

// Log is the per-worker superstep message log that makes confined recovery
// possible (the Pregelix insight: logging runtime state between supersteps
// turns failure handling into replay instead of global re-execution). Each
// worker appends a copy of every remote batch it emits, keyed by the
// superstep it was sent in and the destination worker. When a worker
// crashes, healthy workers keep their in-memory state and the engine
// re-injects their logged batches into the recovering workers' stores — the
// healthy side of every superstep since the last checkpoint is replayed
// from the log, not recomputed.
//
// Entries are copied on Append because batch ownership transfers to the
// transport receiver (and recycled batch slices are reused).
//
// The log's coverage window is explicit: Floor is the first superstep whose
// sends are fully retained. TruncateThrough advances it after a checkpoint
// (supersteps at or below the checkpoint will never be replayed); Rewind
// discards a suffix so a recovering worker can re-log the supersteps it is
// about to re-execute; Reset empties the log entirely after a full
// rollback.
type Log[M any] struct {
	mu    sync.Mutex
	steps map[int]map[int][]Entry[M] // superstep -> dest worker -> entries
	floor int
}

// NewLog creates an empty log covering superstep 0 onward.
func NewLog[M any]() *Log[M] {
	return &Log[M]{steps: make(map[int]map[int][]Entry[M])}
}

// Append records a copy of one outgoing remote batch sent during superstep
// step to worker dest. The caller keeps ownership of batch.
func (l *Log[M]) Append(step, dest int, batch []Entry[M]) {
	if len(batch) == 0 {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if step < l.floor {
		return // below the coverage window; will never be replayed
	}
	m := l.steps[step]
	if m == nil {
		m = make(map[int][]Entry[M])
		l.steps[step] = m
	}
	m[dest] = append(m[dest], batch...)
}

// Entries returns a copy of every entry sent to worker dest during
// superstep step, or nil when nothing was logged.
func (l *Log[M]) Entries(step, dest int) []Entry[M] {
	l.mu.Lock()
	defer l.mu.Unlock()
	return slices.Clone(l.steps[step][dest])
}

// Covers reports whether the log retains every superstep from 'from'
// onward, i.e. replay starting at 'from' will see all healthy sends.
func (l *Log[M]) Covers(from int) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return from >= l.floor
}

// Floor returns the first superstep the log fully retains.
func (l *Log[M]) Floor() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.floor
}

// TruncateThrough discards supersteps <= step and advances the coverage
// floor to step+1. The engine calls it after a successful checkpoint at
// step: recovery never replays at or below a checkpoint.
func (l *Log[M]) TruncateThrough(step int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for s := range l.steps {
		if s <= step {
			delete(l.steps, s)
		}
	}
	if step+1 > l.floor {
		l.floor = step + 1
	}
}

// Rewind discards supersteps >= from without moving the coverage floor: a
// recovering worker is about to re-execute those supersteps and will re-log
// its sends as it goes.
func (l *Log[M]) Rewind(from int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for s := range l.steps {
		if s >= from {
			delete(l.steps, s)
		}
	}
}

// Reset empties the log and sets the coverage floor to floor. The engine
// calls it on a full rollback (everything will be re-executed and re-logged
// from the resume superstep).
func (l *Log[M]) Reset(floor int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.steps = make(map[int]map[int][]Entry[M])
	l.floor = floor
}

// Replayable returns the total number of logged entries destined for
// worker dest across supersteps from..to inclusive.
func (l *Log[M]) Replayable(from, to, dest int) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for s := from; s <= to; s++ {
		n += len(l.steps[s][dest])
	}
	return n
}

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
// The log keeps the supersteps from its floor on: TruncateThrough moves the
// floor past a checkpoint (recovery never replays at or below one), and
// Reset empties the log at a rewind, whose supersteps re-log as they re-run.
// The engine moves the floor only to the superstep after its restore point,
// so the log always covers a replay from there.
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

// Reset empties the log and sets its floor: the engine rewinds the worker
// to the superstep before floor and re-executes (and re-logs) from there.
func (l *Log[M]) Reset(floor int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.steps = make(map[int]map[int][]Entry[M])
	l.floor = floor
}

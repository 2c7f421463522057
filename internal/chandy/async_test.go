package chandy

// Tests for the split RequestForks/Collect acquisition API that the
// engine's partition scheduler prefetches forks through. The two
// load-bearing properties:
//
//   - No fork leaks: however many requests are outstanding when a round
//     drains (prefetched partitions that never ran any compute included),
//     collecting and releasing them all restores the quiescent two-sided
//     edge invariant — exactly one side holds the (dirty) fork, exactly
//     one side holds the request token, nobody hungry or eating. A leaked
//     fork here would surface as a cross-worker deadlock at the next
//     superstep's barrier.
//   - Acyclic precedence under concurrency: many philosophers issuing
//     RequestForks simultaneously (the prefetch window) with a delayed
//     Collect must preserve mutual exclusion and starvation-freedom just
//     like the blocking Acquire path — the hygienic rules only ever see
//     hungry philosophers, however they became hungry.

import (
	"math/rand"
	"runtime"
	"testing"
	"time"

	"serialgraph/internal/cluster"
	"serialgraph/internal/metrics"
)

// quiescentInvariant checks the drained-state property on a single-worker
// manager: every philosopher thinking, and each edge's two bytes mirror
// images of each other (one dirty fork, one token, never zero or two).
func quiescentInvariant(t *testing.T, m *Manager, adj [][]PhilID) {
	t.Helper()
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, p := range m.phils {
		if p.state != thinking {
			t.Fatalf("phil %d left %v after drain", p.id, p.state)
		}
		if p.ready != nil {
			t.Fatalf("phil %d still holds a grant channel after drain", p.id)
		}
	}
	for a := range adj {
		for _, b := range adj[a] {
			if PhilID(a) > b {
				continue // each undirected edge once
			}
			pa, pb := m.mustPhil(PhilID(a)), m.mustPhil(b)
			sa, sb := pa.st[pa.edge(b)], pb.st[pb.edge(PhilID(a))]
			if sb != Mirror(sa) {
				t.Fatalf("edge %d-%d not quiescent: %03b / %03b", a, b, sa, sb)
			}
		}
	}
}

// TestPrefetchDrainNoForkLeaks is the fork-leak property test: rounds of
// scheduler-shaped traffic — issue a window of RequestForks, then drain by
// polling for grants (never blocking on one specific philosopher, exactly
// like the engine's partition scheduler), collecting and releasing each.
// None of the granted philosophers runs any compute: these are the
// "prefetched but unused" forks, and every one must be back in a
// one-fork-one-token state before the round (the "barrier") ends.
func TestPrefetchDrainNoForkLeaks(t *testing.T) {
	r := rand.New(rand.NewSource(91))
	const n, rounds = 24, 40
	adj := randomConflictGraph(r, n, 50)
	m := singleWorker()
	for id := 0; id < n; id++ {
		m.AddPhil(PhilID(id), adj[id])
	}
	deadline := time.Now().Add(20 * time.Second)
	for round := 0; round < rounds; round++ {
		// A random prefetch window: between one philosopher and all of them,
		// in random order, so neighbors are routinely hungry simultaneously.
		order := r.Perm(n)[:1+r.Intn(n)]
		type pending struct {
			id PhilID
			ch <-chan struct{}
		}
		var outstanding []pending
		for _, id := range order {
			ch := m.RequestForks(PhilID(id))
			if ch == nil {
				t.Fatal("RequestForks returned nil without an abort")
			}
			outstanding = append(outstanding, pending{PhilID(id), ch})
		}
		for len(outstanding) > 0 {
			if time.Now().After(deadline) {
				t.Fatalf("round %d: drain stalled with %d outstanding", round, len(outstanding))
			}
			progressed := false
			for i := 0; i < len(outstanding); i++ {
				select {
				case <-outstanding[i].ch:
				default:
					continue // not granted yet; never block on one phil
				}
				p := outstanding[i]
				if !m.Collect(p.id, p.ch) {
					t.Fatalf("round %d: Collect(%d) failed without an abort", round, p.id)
				}
				m.Release(p.id)
				outstanding[i] = outstanding[len(outstanding)-1]
				outstanding = outstanding[:len(outstanding)-1]
				progressed = true
				i--
			}
			if !progressed {
				runtime.Gosched()
			}
		}
		quiescentInvariant(t, m, adj)
	}
	if got, want := m.Stats().Meals, int64(0); got == want {
		t.Fatal("no meals happened; the property was tested vacuously")
	}
}

// TestConcurrentRequestForksExclusion is the acyclic-precedence regression
// test: every philosopher of a random conflict graph acquires prefetch-style
// — RequestForks, then a deliberately widened window before Collect — from
// its own goroutine. Exclusion violations or a harness timeout here would
// mean concurrent RequestForks broke the precedence order that Chandy–Misra's
// deadlock/starvation-freedom proof depends on. The registry cross-check
// pins the API contract that makes the wait histogram meaningful: exactly
// one Collect observation per RequestForks.
func TestConcurrentRequestForksExclusion(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	const n, rounds = 20, 30
	adj := randomConflictGraph(r, n, 40)
	m := singleWorker()
	reg := metrics.New()
	m.SetMetrics(reg)
	for id := 0; id < n; id++ {
		m.AddPhil(PhilID(id), adj[id])
	}
	acquire := func(p PhilID) {
		ch := m.RequestForks(p)
		if ch == nil {
			t.Error("RequestForks returned nil without an abort")
			return
		}
		runtime.Gosched() // widen the request→collect window
		if !m.Collect(p, ch) {
			t.Errorf("Collect(%d) failed without an abort", p)
		}
	}
	exclusionHarness(t, n, adj, m, acquire, m.Release, rounds)
	if got, want := m.Stats().Meals, int64(n*rounds); got != want {
		t.Errorf("meals = %d, want %d", got, want)
	}
	snap := reg.Snapshot()
	if got, want := snap.Hist(metrics.HistLockWait).Count, snap.Get(metrics.LockAcquires); got != want {
		t.Errorf("lock_wait hist count = %d, lock_acquires = %d", got, want)
	}
}

// TestDistributedConcurrentRequestForks runs the same prefetch-style
// acquisition over a real simulated transport, so token and fork messages
// from concurrently hungry philosophers interleave with network latency.
func TestDistributedConcurrentRequestForks(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	n, w := 16, 4
	adj := randomConflictGraph(r, n, 30)
	ownerOf := func(p PhilID) int { return int(p) % w }
	mgrs, closeFn := distributed(t, w, adj, ownerOf,
		cluster.LatencyModel{Propagation: 150 * time.Microsecond})
	defer closeFn()
	acquire := func(p PhilID) {
		mgr := mgrs[ownerOf(p)]
		ch := mgr.RequestForks(p)
		if ch == nil {
			t.Error("RequestForks returned nil without an abort")
			return
		}
		time.Sleep(50 * time.Microsecond) // overlap window
		if !mgr.Collect(p, ch) {
			t.Errorf("Collect(%d) failed without an abort", p)
		}
	}
	release := func(p PhilID) { mgrs[ownerOf(p)].Release(p) }
	exclusionHarness(t, n, adj, nil, acquire, release, 20)
}

// TestCollectAfterAbort: an abort while a request is pending closes the
// grant channel without feeding the philosopher; Collect must report false
// and later RequestForks must fail fast with nil until the abort clears.
func TestCollectAfterAbort(t *testing.T) {
	m := singleWorker()
	m.AddPhil(0, []PhilID{1})
	m.AddPhil(1, []PhilID{0})
	if !m.Acquire(1) { // 1 starts with the dirty fork: eats immediately
		t.Fatal("Acquire(1) failed")
	}
	ch := m.RequestForks(0) // blocked behind eating neighbor
	if ch == nil {
		t.Fatal("RequestForks(0) returned nil before any abort")
	}
	m.Abort()
	if m.Collect(0, ch) {
		t.Error("Collect returned true for an aborted request")
	}
	if m.RequestForks(0) != nil {
		t.Error("RequestForks did not fail fast while aborted")
	}
	m.ClearAbort()
	m.Release(1)
	if !m.Acquire(0) {
		t.Error("Acquire(0) failed after ClearAbort")
	}
	m.Release(0)
}

// TestRequestForksWhileHungryPanics pins the double-request guard on the
// async path: a second RequestForks before the first resolves is a caller
// bug, not a queueable state.
func TestRequestForksWhileHungryPanics(t *testing.T) {
	m := singleWorker()
	m.AddPhil(0, []PhilID{1})
	m.AddPhil(1, []PhilID{0})
	if !m.Acquire(1) {
		t.Fatal("Acquire(1) failed")
	}
	if ch := m.RequestForks(0); ch == nil {
		t.Fatal("RequestForks(0) returned nil")
	}
	defer func() {
		if recover() == nil {
			t.Error("RequestForks while hungry did not panic")
		}
		m.Release(1)
	}()
	m.RequestForks(0)
}

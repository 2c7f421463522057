// Package chandy implements the Chandy–Misra hygienic dining philosophers
// algorithm [13], the coordination core of both vertex-based (§4.3) and
// partition-based (§5.4) distributed locking. Philosophers are identified
// by opaque int32 IDs, so the same implementation locks vertices (IDs are
// vertex IDs) or partitions (IDs are partition IDs).
//
// Each worker runs one Manager holding the state of its local philosophers.
// For every pair of neighboring philosophers there is one shared fork, one
// request token, and a clean/dirty bit, packed into one byte per edge as
// §6.3 describes, though in flat arrays, not its dual-layer hash map: a
// philosopher's neighbors are a sorted []PhilID with a parallel []byte and
// a dense index finds the philosopher. Initial placement follows the paper: the
// philosopher with the smaller ID holds the request token, the one with the
// larger ID holds the fork, dirty — making the initial precedence graph
// acyclic, which is what guarantees freedom from deadlock and starvation.
//
// The hygienic rules implemented here:
//
//   - A hungry philosopher missing a fork it holds the token for sends the
//     token to the holder (a request).
//   - A philosopher holding a dirty fork and its request token yields the
//     fork (cleaned) as soon as it is not eating, keeping the token.
//   - Clean forks are never yielded: whoever cleaned the fork has priority
//     until it eats.
//   - A philosopher eats exactly when hungry and holding all its forks;
//     eating dirties all forks.
//
// A philosopher that stops becoming hungry (a halted partition, §5.4's
// skip optimization) still yields its dirty forks on request because yields
// are driven by the manager's message handler, not the philosopher's own
// compute thread.
//
// Every public operation (RequestForks, Release, HandleCtrl, HandleBatch)
// queues its remote tokens and forks per destination worker and sends each
// one batch before unlocking the manager, as GraphLab batches lock requests.
// A batch is a *[]Ctrl that changes hands: the manager sends its outbox
// slice itself, and with recycling on (SetRecycle) a receiving manager
// keeps each batch it has handled as a spare to fill its next outbox from,
// so the control path allocates nothing once the spares are warm.
package chandy

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"serialgraph/internal/metrics"
)

// PhilID identifies a philosopher: a vertex ID under vertex-based locking
// or a partition ID under partition-based locking.
type PhilID int32

// Bits of the per-edge state byte (the values of §6.3's dual-layer hash map).
const (
	bitFork  byte = 1 << 0 // I hold the fork for this edge
	bitDirty byte = 1 << 1 // ... and it is dirty
	bitToken byte = 1 << 2 // I hold the request token for this edge
)

type philState uint8

const (
	thinking philState = iota
	hungry
	eating
)

// CtrlKind distinguishes the two control messages philosophers exchange.
type CtrlKind uint8

const (
	// TokenMsg carries a request token: "From wants the fork it shares
	// with To".
	TokenMsg CtrlKind = iota
	// ForkMsg carries the (cleaned) fork for the edge From–To.
	ForkMsg
)

// Ctrl is a control message between philosophers on different workers.
type Ctrl struct {
	Kind     CtrlKind
	From, To PhilID
}

type phil struct {
	id      PhilID
	state   philState
	nbr     []PhilID      // neighbors, ascending and distinct
	st      []byte        // st[i] is the state byte of edge (id, nbr[i])
	missing int           // forks still missing while hungry
	ready   chan struct{} // closed when all forks acquired
}

// edge returns q's position in p.nbr.
func (p *phil) edge(q PhilID) int {
	i, ok := slices.BinarySearch(p.nbr, q)
	if !ok {
		panic(fmt.Sprintf("chandy: unknown edge %d-%d", p.id, q))
	}
	return i
}

// outbox collects the control messages one operation owes one worker.
type outbox struct {
	q    *[]Ctrl // nil until the operation emits for this worker
	fork bool    // q carries a fork: preHandoff must run before it is sent
}

// maxSpares bounds a manager's spare batches. An operation fills at most
// one batch per destination, so a few per worker keep every send supplied;
// the bound only stops a manager that receives more batches than it sends
// from hoarding them.
const maxSpares = 64

// closedCh is the grant channel of every all-forks-present RequestForks.
var closedCh = func() chan struct{} { ch := make(chan struct{}); close(ch); return ch }()

// Manager coordinates the philosophers owned by one worker.
type Manager struct {
	worker  int
	ownerOf func(PhilID) int
	send    func(toWorker int, batch *[]Ctrl)
	// preHandoff runs before a batch carrying a fork is sent to another
	// worker; the engine uses it to flush pending remote replica updates so
	// that (by per-lane FIFO delivery) condition C1 holds for the requester.
	preHandoff func(toWorker int)

	mu    sync.Mutex
	phils []phil  // in registration order
	index []int32 // index[id]-1 is id's position in phils; 0: not local
	// phils' nbr and st are carved from these, which grow in lockstep.
	nbrArena []PhilID
	stArena  []byte
	scratch  []PhilID // AddPhil's deduplication buffer
	out      []outbox // by destination worker
	// spares are handled batches nobody reads any more, which the next
	// outboxes start from; HandleBatch adds to them only when recycle is
	// set, because a duplicated delivery would still read a batch it kept.
	spares  []*[]Ctrl
	recycle bool
	reg     *metrics.Registry
	// op accrues the opCounters of the public operation holding mu;
	// flushUnlock adds them to reg once per operation, not once per fork
	// or token (vertex locking moves ≈ 30 of each per acquire).
	op      [len(opCounters)]int64
	aborted bool
}

// NewBatchManager creates the manager for worker. ownerOf maps any
// philosopher to its worker; send transmits one batch to a remote worker's
// manager (delivered via HandleBatch, exactly once unless recycling is
// off). The batch changes hands: neither send nor this manager may touch
// it once it has been handed on, and the receiving manager may refill it.
// preHandoff (optional) runs before a batch with a fork in it leaves.
func NewBatchManager(worker int, ownerOf func(PhilID) int, send func(toWorker int, batch *[]Ctrl), preHandoff func(toWorker int)) *Manager {
	return &Manager{worker: worker, ownerOf: ownerOf, send: send, preHandoff: preHandoff}
}

// NewManager is NewBatchManager over a sender of single Ctrls (HandleCtrl's).
// The sender is done with a batch when it returns, so the batch becomes a
// spare at once.
func NewManager(worker int, ownerOf func(PhilID) int, sendCtrl func(toWorker int, c Ctrl), preHandoff func(toWorker int)) *Manager {
	m := &Manager{worker: worker, ownerOf: ownerOf, preHandoff: preHandoff}
	m.send = func(to int, batch *[]Ctrl) {
		for _, c := range *batch {
			sendCtrl(to, c)
		}
		m.keepLocked(batch) // send runs in flushUnlock, under mu
	}
	return m
}

// SetRecycle makes HandleBatch keep every batch it has handled as a spare,
// which is safe only when each batch is delivered exactly once: a
// transport that may duplicate a delivery (fault injection) would hand
// this manager a batch it has already refilled. Call before any traffic.
func (m *Manager) SetRecycle(on bool) { m.recycle = on }

// BatchOf returns the batch a control payload carries: the *[]Ctrl a
// manager sent through an in-process transport, or the []Ctrl a wire
// codec decoded.
func BatchOf(payload any) *[]Ctrl {
	if b, ok := payload.(*[]Ctrl); ok {
		return b
	}
	b := payload.([]Ctrl)
	return &b
}

// arenaChunk is the size of a fresh nbrArena (and stArena).
const arenaChunk = 4096

// Reserve sizes the manager for phils philosophers with IDs below ids, so
// that registering them does not regrow its tables. Call it before AddPhil.
func (m *Manager) Reserve(phils, ids int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if cap(m.phils)-len(m.phils) < phils {
		m.phils = append(make([]phil, 0, len(m.phils)+phils), m.phils...)
	}
	if cap(m.index) < ids {
		m.index = append(make([]int32, 0, ids), m.index...)
	}
}

// AddPhil registers a local philosopher and its neighbors, local or remote,
// in any order (repeats and id itself are dropped; the slice is not kept).
// Call it for all local philosophers before any Acquire, consistently on every worker.
func (m *Manager) AddPhil(id PhilID, neighbors []PhilID) {
	if m.ownerOf(id) != m.worker {
		panic(fmt.Sprintf("chandy: philosopher %d belongs to worker %d, not %d", id, m.ownerOf(id), m.worker))
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if n := int(id) + 1; n > len(m.index) {
		old := len(m.index)
		m.index = slices.Grow(m.index, n-old)[:n]
		clear(m.index[old:])
	}
	if m.index[id] != 0 {
		panic(fmt.Sprintf("chandy: philosopher %d registered twice", id))
	}
	// Deduplicate first, so that the arena is sized by the neighbours kept,
	// not the list passed (the GAS engine passes out- and in-lists).
	m.scratch = append(m.scratch[:0], neighbors...)
	slices.Sort(m.scratch)
	nbrs := slices.Compact(m.scratch)
	if i, ok := slices.BinarySearch(nbrs, id); ok {
		nbrs = slices.Delete(nbrs, i, i+1)
	}
	if cap(m.nbrArena)-len(m.nbrArena) < len(nbrs) {
		m.nbrArena = make([]PhilID, 0, max(len(nbrs), arenaChunk))
		m.stArena = make([]byte, 0, cap(m.nbrArena))
	}
	lo := len(m.nbrArena)
	m.nbrArena = append(m.nbrArena, nbrs...)
	hi := len(m.nbrArena)
	m.stArena = m.stArena[:hi]
	p := phil{id: id, state: thinking, nbr: m.nbrArena[lo:hi:hi], st: m.stArena[lo:hi:hi]}
	for i, q := range p.nbr {
		if id < q {
			p.st[i] = bitToken // smaller ID: request token
		} else {
			p.st[i] = bitFork | bitDirty // larger ID: dirty fork
		}
	}
	m.phils = append(m.phils, p)
	m.index[id] = int32(len(m.phils))
}

// SetMetrics attaches a metrics registry: Acquire counts lock_acquires
// and its blocked time (lock_wait_ns counter + histogram; fast-path
// acquires observe 0), and the yield/request rules count fork_grants and
// token_sends with their remote variants. The counts of an operation reach
// the registry when it returns. Call before any Acquire.
func (m *Manager) SetMetrics(reg *metrics.Registry) { m.reg = reg }

// Acquire blocks until philosopher id holds all its forks and is eating,
// returning true. It returns false without acquiring anything when the
// manager has been aborted (the engine's liveness watchdog declared the
// superstep stalled): callers must then skip the critical section and must
// NOT call Release. Callers must pair every true return with exactly one
// Release.
func (m *Manager) Acquire(id PhilID) bool {
	ch := m.RequestForks(id)
	if ch == nil {
		return false
	}
	return m.Collect(id, ch)
}

// RequestForks is the asynchronous half of Acquire: it makes philosopher id
// hungry, sends its fork requests, and returns immediately with a channel
// that is closed once all forks are in hand (possibly already closed, on
// the all-forks-present fast path). The caller owes exactly one Collect per
// non-nil channel — that pairing is what keeps the lock-wait histogram's
// count equal to lock_acquires. A nil return means the manager is aborted;
// nothing was requested or counted, and no Collect (or Release) may follow.
//
// The engine's partition scheduler uses this to prefetch forks for
// boundary partitions while compute threads are still busy elsewhere: the
// fork-grant latency runs concurrently with useful work instead of blocking
// a thread. Note that once the channel closes the philosopher is eating —
// it holds all its forks and excludes its neighbors until Release — so
// callers should bound how many requests they keep outstanding and collect
// granted philosophers promptly.
func (m *Manager) RequestForks(id PhilID) <-chan struct{} {
	m.mu.Lock()
	defer m.flushUnlock()
	if m.aborted {
		// Not counted as a lock acquire: nothing was requested or waited
		// for, so skipping the counters keeps the wait histogram's count
		// equal to lock_acquires.
		return nil
	}
	m.op[opAcquires]++
	p := m.mustPhil(id)
	if p.state != thinking {
		panic(fmt.Sprintf("chandy: RequestForks(%d) while %v", id, p.state))
	}
	p.state = hungry
	// Count every missing fork before sending any request: a local request
	// can yield a fork back synchronously, and the resulting missing-fork
	// countdown must start from the complete total.
	p.missing = 0
	for _, st := range p.st {
		if st&bitFork == 0 {
			p.missing++
		}
	}
	if p.missing == 0 {
		m.startEatingLocked(p)
		return closedCh
	}
	ch := make(chan struct{})
	p.ready = ch
	for i := range p.st {
		// A missing fork without the token is already requested (we sent the
		// token earlier, or the holder will yield after eating): just wait.
		if p.st[i]&(bitFork|bitToken) == bitToken {
			m.sendTokenLocked(p, i)
		}
	}
	return ch
}

// Collect completes a RequestForks: it waits (if needed) for the grant
// channel to close and reports whether the philosopher is eating. A false
// return means the wait was cut short by Abort; the caller must skip the
// critical section and must NOT call Release. A grant that arrived before
// Collect — the fast path, and every successful prefetch — observes zero
// wait, exactly like Acquire's all-forks-present fast path: the wait was
// hidden, not paid.
func (m *Manager) Collect(id PhilID, ch <-chan struct{}) bool {
	select {
	case <-ch:
		if m.reg != nil {
			m.reg.Observe(metrics.HistLockWait, 0)
		}
	default:
		if m.reg == nil {
			<-ch
		} else {
			t0 := time.Now()
			<-ch
			wait := int64(time.Since(t0))
			m.reg.Add(metrics.LockWaitNs, wait)
			m.reg.Observe(metrics.HistLockWait, wait)
		}
	}
	// An abort wakes hungry philosophers without feeding them: distinguish
	// a real meal from an aborted wait by the state the wake left us in.
	m.mu.Lock()
	ok := m.mustPhil(id).state == eating
	m.mu.Unlock()
	return ok
}

// Abort wakes every hungry philosopher without granting its forks and makes
// all future Acquire calls fail fast until ClearAbort or Import. The
// engine's liveness watchdog uses it to unwedge compute threads blocked on
// a fork that will never arrive (e.g. a lost control message under fault
// injection) so the superstep can reach its barrier and recovery can run.
// Eating philosophers are untouched — their threads are not stuck and will
// Release normally. Fork and token bits are left as they are; recovery
// re-establishes a consistent quiescent state via Import before the next
// superstep runs.
func (m *Manager) Abort() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.aborted = true
	for i := range m.phils {
		p := &m.phils[i]
		if p.state != hungry {
			continue
		}
		p.state = thinking
		p.missing = 0
		if p.ready != nil {
			close(p.ready)
			p.ready = nil
		}
	}
}

// ClearAbort re-arms an aborted manager. Recovery calls it (directly or via
// Import) once a consistent fork state has been restored.
func (m *Manager) ClearAbort() {
	m.mu.Lock()
	m.aborted = false
	m.mu.Unlock()
}

// Release ends philosopher id's meal and services deferred requests.
func (m *Manager) Release(id PhilID) {
	m.mu.Lock()
	defer m.flushUnlock()
	p := m.mustPhil(id)
	if p.state != eating {
		panic(fmt.Sprintf("chandy: Release(%d) while %v", id, p.state))
	}
	p.state = thinking
	for i := range p.st {
		m.maybeYieldLocked(p, i)
	}
}

// Eating reports whether philosopher id is currently eating (for tests and
// invariant checks).
func (m *Manager) Eating(id PhilID) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.mustPhil(id).state == eating
}

// HandleCtrl processes one control message from another worker's manager.
func (m *Manager) HandleCtrl(c Ctrl) {
	m.mu.Lock()
	defer m.flushUnlock()
	m.handleLocked(c)
}

// HandleBatch processes a batch from another worker's manager in order under
// one lock acquisition; its replies leave as one batch per destination.
// With recycling on the manager keeps the batch: the caller must not touch
// it again.
func (m *Manager) HandleBatch(batch *[]Ctrl) {
	m.mu.Lock()
	defer m.flushUnlock()
	for _, c := range *batch {
		m.handleLocked(c)
	}
	if m.recycle {
		m.keepLocked(batch)
	}
}

func (m *Manager) handleLocked(c Ctrl) {
	switch c.Kind {
	case TokenMsg:
		m.tokenArrivesLocked(c.To, c.From)
	case ForkMsg:
		m.forkArrivesLocked(c.To, c.From)
	default:
		panic(fmt.Sprintf("chandy: bad ctrl kind %d", c.Kind))
	}
}

// keepLocked makes batch, which nobody reads any more, a spare. It is
// emptied at once, so a stray second reader sees nothing rather than the
// manager's next batch.
func (m *Manager) keepLocked(batch *[]Ctrl) {
	if len(m.spares) < maxSpares {
		*batch = (*batch)[:0]
		m.spares = append(m.spares, batch)
	}
}

func (m *Manager) mustPhil(id PhilID) *phil {
	if uint(id) >= uint(len(m.index)) || m.index[id] == 0 {
		panic(fmt.Sprintf("chandy: unknown philosopher %d on worker %d", id, m.worker))
	}
	return &m.phils[m.index[id]-1]
}

// opCounters are the counters a public operation accrues in Manager.op,
// indexed by the op* constants.
var opCounters = [...]metrics.CounterID{metrics.LockAcquires, metrics.TokenSends, metrics.TokenSendsRemote, metrics.ForkGrants, metrics.ForkGrantsRemote}

const (
	opAcquires = iota
	opTokens
	opTokensRemote
	opForks
	opForksRemote
)

// emitLocked queues c for the worker owning c.To, or reports false when that
// is this worker and c is to be applied directly.
func (m *Manager) emitLocked(c Ctrl) bool {
	dest := m.ownerOf(c.To)
	if dest == m.worker {
		return false
	}
	if dest >= len(m.out) {
		m.out = append(m.out, make([]outbox, dest+1-len(m.out))...)
	}
	o := &m.out[dest]
	if o.q == nil {
		if n := len(m.spares); n > 0 {
			o.q, m.spares = m.spares[n-1], m.spares[:n-1]
		} else {
			q := make([]Ctrl, 0, 8)
			o.q = &q
		}
	}
	*o.q = append(*o.q, c)
	o.fork = o.fork || c.Kind == ForkMsg
	return true
}

// flushUnlock ends a public operation: each destination it queued messages
// for is sent its outbox batch itself — after preHandoff when a fork is in
// it, so replica updates precede the fork on the same FIFO lane (C1) —
// before the manager unlocks, so batches reach a lane in the order their
// operations ran. The next batch for that destination starts from a spare.
// The operation's counts go to the registry here too.
func (m *Manager) flushUnlock() {
	for dest := range m.out {
		o := &m.out[dest]
		if o.q == nil {
			continue
		}
		if o.fork && m.preHandoff != nil {
			m.preHandoff(dest)
		}
		batch := o.q
		o.q, o.fork = nil, false
		m.send(dest, batch)
	}
	for i, n := range m.op {
		if n != 0 && m.reg != nil {
			m.reg.Add(opCounters[i], n)
		}
	}
	m.op = [len(opCounters)]int64{}
	m.mu.Unlock()
}

// sendTokenLocked moves p's request token for edge i to its neighbor.
func (m *Manager) sendTokenLocked(p *phil, i int) {
	p.st[i] &^= bitToken
	m.op[opTokens]++
	if m.emitLocked(Ctrl{Kind: TokenMsg, From: p.id, To: p.nbr[i]}) {
		m.op[opTokensRemote]++
		return
	}
	m.tokenArrivesLocked(p.nbr[i], p.id)
}

// tokenArrivesLocked records a request token at philosopher 'at' for the
// fork shared with 'from', then applies the yield rule.
func (m *Manager) tokenArrivesLocked(at, from PhilID) {
	p := m.mustPhil(at)
	i := p.edge(from)
	p.st[i] |= bitToken
	m.maybeYieldLocked(p, i)
}

// maybeYieldLocked applies the hygienic release rule for p's edge i: a
// philosopher that is not eating and holds a dirty fork whose request token
// is present must clean the fork and send it over, keeping the token. If p
// is hungry it immediately re-requests the fork it just gave up.
func (m *Manager) maybeYieldLocked(p *phil, i int) {
	if p.state == eating || p.st[i] != bitFork|bitDirty|bitToken {
		return
	}
	p.st[i] = bitToken
	if p.state == hungry {
		// Yielding while hungry: this fork is missing again and must be
		// re-counted before the re-request below.
		p.missing++
	}
	m.op[opForks]++
	if m.emitLocked(Ctrl{Kind: ForkMsg, From: p.id, To: p.nbr[i]}) {
		m.op[opForksRemote]++
	} else {
		m.forkArrivesLocked(p.nbr[i], p.id)
	}
	if p.state == hungry {
		// We still hold the token, lack the fork, and are hungry: request.
		m.sendTokenLocked(p, i)
	}
}

// forkArrivesLocked records the (clean) fork at philosopher 'at' for the
// edge shared with 'from' and starts the meal if it was the last fork.
func (m *Manager) forkArrivesLocked(at, from PhilID) {
	p := m.mustPhil(at)
	i := p.edge(from)
	if p.st[i]&bitFork != 0 {
		panic(fmt.Sprintf("chandy: duplicate fork on edge %d-%d", at, from))
	}
	p.st[i] |= bitFork // clean
	if p.state != hungry {
		return
	}
	p.missing--
	if p.missing == 0 {
		m.startEatingLocked(p)
		if p.ready != nil {
			close(p.ready)
			p.ready = nil
		}
	}
}

// startEatingLocked transitions a hungry philosopher holding all forks to
// eating and dirties every fork.
func (m *Manager) startEatingLocked(p *phil) {
	p.state = eating
	for i, st := range p.st {
		if st&bitFork == 0 {
			panic(fmt.Sprintf("chandy: %d eating without fork %d-%d", p.id, p.id, p.nbr[i]))
		}
		p.st[i] |= bitDirty
	}
}

func (s philState) String() string {
	switch s {
	case thinking:
		return "thinking"
	case hungry:
		return "hungry"
	case eating:
		return "eating"
	}
	return "invalid"
}

// Export snapshots all fork/token/dirty state for checkpointing (§6.4): one
// byte per (philosopher, neighbor) edge, philosophers in registration order
// and each one's neighbors ascending — the order Edges lists them in.
// Call only while the cluster is quiescent: no philosopher eating or
// hungry, no control messages in flight.
func (m *Manager) Export() []byte {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []byte
	for _, p := range m.phils {
		out = append(out, p.st...)
	}
	return out
}

// Edges lists every (philosopher, neighbor) edge in Export's order.
func (m *Manager) Edges() [][2]PhilID {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out [][2]PhilID
	for _, p := range m.phils {
		for _, q := range p.nbr {
			out = append(out, [2]PhilID{p.id, q})
		}
	}
	return out
}

// EdgeState returns local philosopher p's state byte for its edge to q.
func (m *Manager) EdgeState(p, q PhilID) byte {
	m.mu.Lock()
	defer m.mu.Unlock()
	ph := m.mustPhil(p)
	return ph.st[ph.edge(q)]
}

// Mirror derives one side's quiescent edge byte from its peer's: each
// fork and each request token lives on exactly one side of an edge, so a
// peer byte lacking the fork bit means we hold the fork (dirty — at a
// quiescent barrier every held fork has been dirtied by its last meal),
// and a peer byte lacking the token bit means we hold the token. Confined
// recovery uses it to rebuild a crashed worker's edge state toward healthy
// neighbors from the healthy side's live EdgeState.
func Mirror(peer byte) byte {
	var st byte
	if peer&bitFork == 0 {
		st = bitFork | bitDirty
	}
	if peer&bitToken == 0 {
		st |= bitToken
	}
	return st
}

// Import restores state captured by Export (or assembled via Mirror) into a
// manager with the same philosophers and neighbors, registered in the same
// order; a state of any other length panics. Importing also clears any
// pending abort: the restored state is quiescent and consistent, so the
// manager is safe to use again.
func (m *Manager) Import(state []byte) {
	m.mu.Lock()
	defer m.mu.Unlock()
	edges := 0
	for _, p := range m.phils {
		edges += len(p.st)
	}
	if len(state) != edges {
		panic(fmt.Sprintf("chandy: Import of %d edge states into worker %d's %d edges", len(state), m.worker, edges))
	}
	m.aborted = false
	for _, p := range m.phils {
		state = state[copy(p.st, state):]
	}
}

package cluster

import (
	"sync"
)

// Simulated wire sizes (bytes). Data batches additionally count their
// entries' payload bytes.
const (
	CtrlBytes        = 64 // a control message carrying one fork, token, ...
	CtrlEntryBytes   = 16 // each further fork or token batched into it
	AckBytes         = 16
	FlushMarkerBytes = 16
	BatchHeaderBytes = 32
	EntryHeaderBytes = 8 // per vertex-message destination ID
)

// FlushMarker is the control payload of the flush-with-ack protocol: a
// worker that wants proof its earlier data messages have been applied
// sends one and waits for the matching AckMsg. Exported so wire codecs
// can encode it; engines interact with it only through FlushWait.
type FlushMarker struct{ Seq uint64 }

// AckMsg acknowledges the FlushMarker with the same sequence number.
type AckMsg struct{ Seq uint64 }

// BarrierMarker is the payload of a peer transport's barrier frame: the
// sender's barrier count (see TCP.Barrier).
type BarrierMarker struct{ Seq uint64 }

// Endpoint is a worker's connection to the transport. It dispatches
// incoming traffic to data/control callbacks and implements the
// flush-with-ack protocol used before token handoffs: because lanes are
// FIFO, an acked flush marker guarantees every earlier data message to that
// worker has been delivered and applied.
type Endpoint struct {
	t       Transport
	windows func() *Flow // the transport's credit windows: both backends embed core
	id      WorkerID

	onData func(from WorkerID, payload any)
	onCtrl func(from WorkerID, payload any)

	mu      sync.Mutex
	nextSeq uint64
	acks    map[uint64]chan struct{}
	abortCh chan struct{} // closed by Abort; replaced by ResetAbort
	aborted bool
}

// NewEndpoint registers worker id on t. onData receives Data payloads,
// onCtrl receives Control payloads; both run on transport delivery
// goroutines and must not block indefinitely.
func NewEndpoint(t Transport, id WorkerID, onData, onCtrl func(from WorkerID, payload any)) *Endpoint {
	e := &Endpoint{t: t, windows: t.(interface{ windows() *Flow }).windows, id: id,
		onData: onData, onCtrl: onCtrl, acks: make(map[uint64]chan struct{}), abortCh: make(chan struct{})}
	t.RegisterHandler(id, e.handle)
	return e
}

// ID returns the worker ID of this endpoint.
func (e *Endpoint) ID() WorkerID { return e.id }

// Transport returns the underlying transport.
func (e *Endpoint) Transport() Transport { return e.t }

func (e *Endpoint) handle(m Message) {
	switch p := m.Payload.(type) {
	case FlushMarker:
		e.t.Send(Message{From: e.id, To: m.From, Kind: Ack, Bytes: AckBytes, Payload: AckMsg{p.Seq}})
	case AckMsg:
		e.mu.Lock()
		ch := e.acks[p.Seq]
		delete(e.acks, p.Seq)
		e.mu.Unlock()
		if ch != nil {
			close(ch)
		}
	default:
		switch m.Kind {
		case Data:
			if e.onData != nil {
				e.onData(m.From, m.Payload)
			}
		default:
			if e.onCtrl != nil {
				e.onCtrl(m.From, m.Payload)
			}
		}
	}
}

// SendData sends a data payload (a batch of vertex messages) of the given
// simulated size. Once the transport's SetFlow has armed credit windows it
// blocks until the (e.id, to) window admits the batch. Control traffic is
// never subject to flow control (it must keep moving so credit and acks
// can flow back).
func (e *Endpoint) SendData(to WorkerID, payload any, bytes int) {
	e.windows().Acquire(e.id, to, bytes)
	e.t.Send(Message{From: e.id, To: to, Kind: Data, Bytes: bytes, Payload: payload})
}

// SendCtrl sends a control payload (fork, token, barrier vote...).
func (e *Endpoint) SendCtrl(to WorkerID, payload any) { e.SendCtrlBatch(to, payload, 1) }

// SendCtrlBatch sends a control payload of n >= 1 entries (a lock manager's
// []chandy.Ctrl) as one message and returns its simulated size, which grows
// with the forks and tokens moved however they were packed.
func (e *Endpoint) SendCtrlBatch(to WorkerID, payload any, n int) int {
	bytes := CtrlBytes + (n-1)*CtrlEntryBytes
	e.t.Send(Message{From: e.id, To: to, Kind: Control, Bytes: bytes, Payload: payload})
	return bytes
}

// FlushWait sends a flush marker to each worker in targets and blocks until
// every one has acknowledged it, guaranteeing (by lane FIFO order) that all
// data previously sent to those workers has been delivered. It returns the
// number of markers sent (targets minus self), so callers can account the
// control traffic they generated.
func (e *Endpoint) FlushWait(targets []WorkerID) int {
	e.mu.Lock()
	abortCh := e.abortCh
	e.mu.Unlock()
	chans := make([]chan struct{}, 0, len(targets))
	for _, to := range targets {
		if to == e.id {
			continue
		}
		e.mu.Lock()
		e.nextSeq++
		seq := e.nextSeq
		ch := make(chan struct{})
		e.acks[seq] = ch
		e.mu.Unlock()
		e.t.Send(Message{From: e.id, To: to, Kind: Control, Bytes: FlushMarkerBytes, Payload: FlushMarker{seq}})
		chans = append(chans, ch)
	}
	for _, ch := range chans {
		select {
		case <-ch:
		case <-abortCh:
			// The watchdog declared the run stalled: stop waiting for acks
			// that may never come. Leftover ack registrations are swept by
			// ResetAbort during recovery.
			return len(chans)
		}
	}
	return len(chans)
}

// Abort makes any current or future FlushWait stop blocking on missing
// acks. The engine's liveness watchdog calls it when a superstep stalls
// (e.g. a flush marker or its ack was lost) so the waiting worker can reach
// the barrier and recovery can run.
func (e *Endpoint) Abort() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.aborted {
		e.aborted = true
		close(e.abortCh)
	}
}

// ResetAbort re-arms an aborted endpoint and drops any ack registrations
// left over from aborted flushes. Recovery calls it at the barrier (no
// flush can be in flight) before resuming.
func (e *Endpoint) ResetAbort() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.aborted {
		e.aborted = false
		e.abortCh = make(chan struct{})
	}
	for seq := range e.acks {
		delete(e.acks, seq)
	}
}

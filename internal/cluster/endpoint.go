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
// can encode it; only FlushWait sends one.
type FlushMarker struct{ Seq uint64 }

// AckMsg acknowledges the FlushMarker with the same sequence number.
type AckMsg struct{ Seq uint64 }

// BarrierMarker is the payload of a peer transport's barrier frame: the
// sender's barrier count (see TCP.Barrier).
type BarrierMarker struct{ Seq uint64 }

// Endpoint is a worker's connection to the transport. It dispatches
// incoming traffic to data/control callbacks and answers flush markers
// (see FlushWait).
type Endpoint struct {
	t  Transport
	id WorkerID

	onData func(from WorkerID, payload any)
	onCtrl func(from WorkerID, payload any)

	mu      sync.Mutex
	nextSeq uint64
	acks    map[uint64]chan struct{}
}

// NewEndpoint registers worker id on t. onData receives Data payloads,
// onCtrl receives Control payloads; both run on transport delivery
// goroutines and must not block indefinitely.
func NewEndpoint(t Transport, id WorkerID, onData, onCtrl func(from WorkerID, payload any)) *Endpoint {
	e := &Endpoint{t: t, id: id, onData: onData, onCtrl: onCtrl, acks: make(map[uint64]chan struct{})}
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
// simulated size. Like every Send it never blocks.
func (e *Endpoint) SendData(to WorkerID, payload any, bytes int) {
	e.t.Send(Message{From: e.id, To: to, Kind: Data, Bytes: bytes, Payload: payload})
}

// SendCtrl sends a control payload (fork, token, barrier vote...).
func (e *Endpoint) SendCtrl(to WorkerID, payload any) { e.SendCtrlBatch(to, payload, 1) }

// SendCtrlBatch sends a control payload of n >= 1 entries (a lock manager's
// *[]chandy.Ctrl, a pointer so that no interface box is allocated per send)
// as one message and returns its simulated size, which grows with the
// forks and tokens moved however they were packed.
func (e *Endpoint) SendCtrlBatch(to WorkerID, payload any, n int) int {
	bytes := CtrlBytes + (n-1)*CtrlEntryBytes
	e.t.Send(Message{From: e.id, To: to, Kind: Control, Bytes: bytes, Payload: payload})
	return bytes
}

// FlushWait sends a flush marker to each worker in targets and blocks until
// every one has acknowledged it, guaranteeing (by lane FIFO order) that all
// data previously sent to those workers has been delivered. It returns the
// number of markers sent (targets minus self). No engine calls it: a token
// moves only at a barrier, and the barrier waits for the transport to go
// idle (DESIGN.md §4). Its last caller is the benchmark's
// cluster.flushwait_us row; the change that drops that row deletes
// FlushWait, the marker and ack payloads and their wire frames with it.
func (e *Endpoint) FlushWait(targets []WorkerID) int {
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
		<-ch
	}
	return len(chans)
}

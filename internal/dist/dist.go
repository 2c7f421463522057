// Package dist deploys an engine run across processes: a coordinator and
// N worker processes, each hosting one engine worker (engine.Peer) over a
// peer TCP transport. It is only bring-up and the control plane (Hello,
// Job, StepStart, StepDone, Finish, Values; DESIGN.md §11); the
// coordinator folds StepDone reports with engine.Master, the master half
// of the barrier engine.Run uses, so it stops where an in-process run
// would.
package dist

import (
	"fmt"
	"net"
	"time"

	"serialgraph/internal/cluster"
	"serialgraph/internal/engine"
	"serialgraph/internal/generate"
	"serialgraph/internal/graph"
	"serialgraph/internal/model"
	"serialgraph/internal/wire"
)

// Job aliases the wire-level job spec; the coordinator fills it once and
// every worker deterministically derives the same run from it.
type Job = wire.Job

// DialTimeout bounds connection establishment: processes retry-dial the
// coordinator and each other inside it, so start order does not matter.
const DialTimeout = 10 * time.Second

// BuildGraph deterministically reconstructs the job's graph: a saved
// graph file when GraphPath is set, else a generator family. Every
// process builds the identical graph, which is what lets the partition
// map be derived locally instead of shipped.
func BuildGraph(job Job) (g *graph.Graph, err error) {
	switch {
	case job.GraphPath != "":
		g, err = graph.LoadFile(job.GraphPath)
	case job.Family != "":
		g = generate.Family(job.Family, int(job.N), int64(job.Seed))
	default:
		err = fmt.Errorf("dist: job has neither GraphPath nor Family")
	}
	if err == nil && job.Undirected {
		g = graph.Symmetrize(g)
	}
	return g, err
}

// conn is one control-plane connection.
type conn struct {
	c   net.Conn
	fr  *cluster.FrameReader
	buf []byte
}

func newConn(c net.Conn) *conn { return &conn{c: c, fr: cluster.NewFrameReader(c)} }

func (c *conn) send(ftype byte, payload []byte) error {
	c.buf = cluster.AppendFrame(c.buf[:0], &cluster.Frame{Type: ftype, Payload: payload})
	_, err := c.c.Write(c.buf)
	return err
}

// expect reads c's next frame, which must be of type ftype, and decodes
// its payload.
func expect[T any](c *conn, ftype byte, decode func([]byte) (T, error)) (T, error) {
	f, _, err := c.fr.Read()
	if err == nil && f.Type != ftype {
		err = fmt.Errorf("dist: expected frame 0x%02x, got 0x%02x", ftype, f.Type)
	}
	if err != nil {
		var zero T
		return zero, err
	}
	return decode(f.Payload)
}

// gather expects one frame of type ftype from every worker, in order.
func gather[T any](conns []*conn, ftype byte, decode func([]byte) (T, error)) ([]T, error) {
	out := make([]T, len(conns))
	for i, c := range conns {
		var err error
		if out[i], err = expect(c, ftype, decode); err != nil {
			return nil, fmt.Errorf("dist: worker %d: %w", i, err)
		}
	}
	return out, nil
}

func broadcast(conns []*conn, ftype byte, payload []byte) error {
	for i, c := range conns {
		if err := c.send(ftype, payload); err != nil {
			return fmt.Errorf("dist: worker %d: %w", i, err)
		}
	}
	return nil
}

// Coordinate runs the master side of a distributed job: accept the
// worker processes, hand each its job spec, drive the superstep loop, and
// collect the final vertex values of prog, run on numVertices vertices
// under cfg (engine.JobConfig(job)). ln must already be listening, and
// job.Workers processes must eventually dial it. Worker IDs follow accept
// order, which does not affect the results: every process derives the
// same partition map, and reports merge in worker order.
//
// The Result carries what the workers' StepDone reports ship: Converged,
// Supersteps, ComputeTime (the coordinator's superstep loop), Executions,
// and in Net the data and control ledger and the wire bytes sent.
func Coordinate[V, M any](ln net.Listener, job Job, prog model.Program[V, M], cfg engine.Config, numVertices int) ([]V, engine.Result, error) {
	var res engine.Result
	conns := make([]*conn, 0, job.Workers)
	defer func() {
		for _, c := range conns {
			c.c.Close()
		}
	}()
	for range job.Workers {
		c, err := ln.Accept()
		if err != nil {
			return nil, res, err
		}
		conns = append(conns, newConn(c))
	}
	hellos, err := gather(conns, cluster.FrameHello, wire.DecodeHello)
	if err != nil {
		return nil, res, err
	}
	job.Peers = make([]string, len(hellos))
	for i, h := range hellos {
		if h.Version != cluster.ProtocolVersion {
			return nil, res, fmt.Errorf("dist: worker %d speaks protocol %d, want %d", i, h.Version, cluster.ProtocolVersion)
		}
		job.Peers[i] = h.Addr
	}
	for i, c := range conns {
		job.You = int32(i)
		if err := c.send(cluster.FrameJob, wire.AppendJob(nil, job)); err != nil {
			return nil, res, err
		}
	}

	master := engine.NewMaster(prog, cfg)
	reports := make([]engine.StepReport, len(conns))
	var dones []wire.StepDone
	var aggs map[string]float64
	start := time.Now()
	for s := 0; s < int(job.MaxSupersteps) && !res.Converged; s++ {
		if err := broadcast(conns, cluster.FrameStepStart, wire.AppendStepStart(nil, wire.StepStart{Superstep: int32(s), Aggs: aggs})); err != nil {
			return nil, res, err
		}
		dones, err = gather(conns, cluster.FrameStepDone, func(b []byte) (wire.StepDone, error) {
			d, err := wire.DecodeStepDone(b)
			if err == nil && int(d.Superstep) != s {
				err = fmt.Errorf("superstep %d reported during %d", d.Superstep, s)
			}
			return d, err
		})
		if err != nil {
			return nil, res, err
		}
		for i, d := range dones {
			reports[i] = engine.StepReport{Unhalted: d.Unhalted, Pending: d.Pending, Aggs: d.Aggs}
		}
		res.Supersteps = s + 1
		aggs, res.Converged = master.Fold(s, reports)
	}
	res.ComputeTime = time.Since(start)
	for _, d := range dones { // each worker's counters are cumulative
		res.Executions += d.Executions
		res.Net.DataMessages += d.SentBatches
		res.Net.DataBytes += d.SentBytes
		res.Net.ControlMessages += d.CtrlMessages
		res.Net.WireBytesSent += d.WireBytes
	}

	// Finish, then each worker ships its owned (vertex, value) pairs.
	fin := wire.Finish{Converged: res.Converged, Supersteps: int32(res.Supersteps)}
	if err := broadcast(conns, cluster.FrameFinish, wire.AppendFinish(nil, fin)); err != nil {
		return nil, res, err
	}
	codec := wire.AutoMsgCodec[V]()
	owned, err := gather(conns, cluster.FrameValues, func(b []byte) ([]wire.ValueEntry[V], error) {
		return wire.DecodeValues(codec, b)
	})
	if err != nil {
		return nil, res, err
	}
	values := make([]V, numVertices)
	for _, pairs := range owned {
		for _, e := range pairs {
			if int(e.ID) < 0 || int(e.ID) >= numVertices {
				return nil, res, fmt.Errorf("dist: a worker reported out-of-range vertex %d", e.ID)
			}
			values[e.ID] = e.Val
		}
	}
	return values, res, nil
}

// Session is a worker process's end of a run: its control connection,
// its lane listener and the job the coordinator handed it.
type Session struct {
	Job  Job
	ctrl *conn
	ln   net.Listener
}

// Work joins a coordinator as one worker process: dial, introduce
// ourselves, receive the job, and hand it to serve, which runs it with
// Serve. It blocks until the run finishes and returns the first error
// that broke it.
func Work(joinAddr string, serve func(*Session) error) error {
	// The lane listener must exist before Hello so its address can ride
	// along.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close()
	c, err := cluster.DialRetry(joinAddr, DialTimeout)
	if err != nil {
		return err
	}
	defer c.Close()
	ctrl := newConn(c)
	hello := wire.Hello{Version: cluster.ProtocolVersion, Addr: ln.Addr().String()}
	if err := ctrl.send(cluster.FrameHello, wire.AppendHello(nil, hello)); err != nil {
		return err
	}
	job, err := expect(ctrl, cluster.FrameJob, wire.DecodeJob)
	if err != nil {
		return err
	}
	return serve(&Session{Job: job, ctrl: ctrl, ln: ln})
}

// Serve runs worker s.Job.You of prog on g under cfg
// (engine.JobConfig(s.Job)) as an engine.Peer, one superstep per
// StepStart, until Finish, and ships its values back.
func Serve[V, M any](s *Session, g *graph.Graph, prog model.Program[V, M], cfg engine.Config) (err error) {
	ctrl := s.ctrl
	peer, err := engine.NewPeer(g, prog, cfg, int(s.Job.You), s.ln, s.Job.Peers, DialTimeout)
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			// Peer.Close waits for the other workers' lanes: failing the
			// coordinator first makes it release them.
			ctrl.c.Close()
		}
		peer.Close()
	}()
	for {
		f, _, err := ctrl.fr.Read()
		if err != nil {
			return err
		}
		if f.Type == cluster.FrameFinish {
			return ctrl.send(cluster.FrameValues, wire.AppendValues(nil, wire.AutoMsgCodec[V](), peer.Values()))
		}
		if f.Type != cluster.FrameStepStart {
			return fmt.Errorf("dist: unexpected control frame 0x%02x", f.Type)
		}
		ss, err := wire.DecodeStepStart(f.Payload)
		if err != nil {
			return err
		}
		rep, err := peer.Step(int(ss.Superstep), ss.Aggs)
		if err != nil {
			return err
		}
		n := peer.Net()
		done := wire.StepDone{
			Superstep: ss.Superstep, Unhalted: rep.Unhalted, Pending: rep.Pending, Aggs: rep.Aggs,
			Executions: peer.Executions(), SentBatches: n.DataMessages, SentBytes: n.DataBytes,
			CtrlMessages: n.ControlMessages, WireBytes: n.WireBytesSent,
		}
		if err := ctrl.send(cluster.FrameStepDone, wire.AppendStepDone(nil, done)); err != nil {
			return err
		}
	}
}

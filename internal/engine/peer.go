package engine

// peer.go runs one worker of a multi-process run: the worker, partition
// pass, message stores and lock manager Run uses, over a peer TCP
// transport (cluster.NewTCPPeer) whose Barrier stands in for WaitIdle.
// internal/dist drives it from its coordinator's control frames.

import (
	"fmt"
	"net"
	"time"

	"serialgraph/internal/cluster"
	"serialgraph/internal/graph"
	"serialgraph/internal/metrics"
	"serialgraph/internal/model"
	"serialgraph/internal/wire"
)

// Peer is worker me of a run whose other workers run in other processes.
type Peer[V, M any] struct {
	r   *runner[V, M]
	w   *worker[V, M]
	tcp *cluster.TCP
}

// NewPeer builds worker me of a run of prog over g under cfg, which must
// pass ValidatePeer, and connects it to the other workers: they dial it on
// ln, which it takes over, and it dials them at addrs, indexed by worker.
// It returns once every worker has been built, so no frame reaches a
// process before its handler is registered.
func NewPeer[V, M any](g *graph.Graph, prog model.Program[V, M], cfg Config, me int, ln net.Listener, addrs []string, timeout time.Duration) (*Peer[V, M], error) {
	if err := cfg.ValidatePeer(); err != nil {
		return nil, err
	}
	r := newRunner(g, prog, cfg.withDefaults())
	tcp, err := cluster.NewTCPPeer(r.cfg.Workers, me, ln, addrs, r.codec(), timeout)
	if err != nil {
		return nil, err
	}
	tcp.SetMetrics(r.reg)
	r.attach(tcp)
	r.addWorkers(me, me+1, false)
	p := &Peer[V, M]{r: r, w: r.workers[0], tcp: tcp}
	if err := tcp.Barrier(); err != nil {
		p.Close()
		return nil, err
	}
	return p, nil
}

// Step runs superstep s, reading the aggregates the master merged from
// superstep s-1, then the lane barrier and this worker's half of the
// superstep barrier.
func (p *Peer[V, M]) Step(s int, aggPrev map[string]float64) (StepReport, error) {
	w := p.w
	w.aggPrev = aggPrev
	w.runSuperstep(s)
	if err := p.tcp.Barrier(); err != nil {
		return StepReport{}, err
	}
	if len(w.mutAdds) > 0 || len(w.mutRemoves) > 0 {
		return StepReport{}, fmt.Errorf("engine: multi-process runs do not support topology mutations")
	}
	return w.commitStep(s)
}

// Executions totals the worker's vertex executions so far.
func (p *Peer[V, M]) Executions() int64 { return p.r.reg.Get(metrics.Executions) }

// Net returns the worker's traffic so far: what it sent, and the wire
// bytes both ways.
func (p *Peer[V, M]) Net() cluster.Snapshot { return p.tcp.Stats().Load() }

// Values returns the worker's vertices with their values.
func (p *Peer[V, M]) Values() []wire.ValueEntry[V] {
	vals := make([]wire.ValueEntry[V], len(p.w.owned))
	for i, v := range p.w.owned {
		vals[i] = wire.ValueEntry[V]{ID: int32(v), Val: p.r.values[v]}
	}
	return vals
}

// Close stops the worker and its transport, which returns once every other
// worker has closed its lanes too.
func (p *Peer[V, M]) Close() {
	p.r.shutdownWorkers()
	p.tcp.Close()
}

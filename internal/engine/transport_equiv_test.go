package engine

// Cross-transport equivalence matrix: every synchronization technique ×
// {SSSP, PageRank, coloring}, each run twice — once on the in-process
// simulated transport and once over real TCP loopback sockets — with the
// results compared and both runs' counters conservation-reconciled.
//
// What "equal results" means per cell follows what the execution model
// actually promises:
//
//   - BSP is schedule-deterministic: final values depend only on the
//     graph and the partitioning (min-combining makes SSSP fold-order
//     independent; Overwrite semantics give PageRank and coloring a slot
//     per in-neighbor, folded in fixed slot order). So BSP cells demand
//     bitwise-identical values across transports, converged or not.
//   - SSSP has a unique fixed point under every technique, so its
//     converged values must be identical on every cell.
//   - Async PageRank and coloring are schedule-dependent (two in-process
//     runs already differ), so those cells assert the algorithm-level
//     contract on each transport: a proper coloring under serializable
//     techniques, the residual bound for PageRank — exactly the oracles
//     the torture harness uses.
//
// Counter reconciliation runs on every cell and both transports: the
// control ledger matches the transport exactly, fault-free data batches
// and bytes match exactly, and on TCP the true wire ledger balances
// (bytes received == bytes sent, nonzero whenever traffic flowed).

import (
	"net"
	"serialgraph/internal/cluster"
	"testing"

	"serialgraph/internal/algorithms"
	"serialgraph/internal/generate"
	"serialgraph/internal/graph"
	"serialgraph/internal/metrics"
)

func equivRequireLoopback(t *testing.T) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback TCP unavailable: %v", err)
	}
	ln.Close()
}

// equivGraph is a fixed ~80-vertex power-law graph; coloring and the
// neighborhood-reading oracles get the symmetrized version.
func equivGraph(undirected bool) *graph.Graph {
	g := generate.PowerLaw(generate.PowerLawConfig{N: 80, AvgDegree: 5, Exponent: 2.2, Seed: 41})
	if !undirected {
		return g
	}
	b := graph.NewBuilder(g.NumVertices())
	for u := graph.VertexID(0); int(u) < g.NumVertices(); u++ {
		for _, v := range g.OutNeighbors(u) {
			b.AddEdge(u, v)
		}
	}
	return b.BuildUndirected()
}

func equivConfig(mode Mode, sync Sync, kind TransportKind) Config {
	return Config{
		Workers: 3, PartitionsPerWorker: 2, ThreadsPerWorker: 2,
		Mode: mode, Sync: sync, Seed: 1131, MaxSupersteps: 200,
		Transport: kind, Metrics: metrics.New(),
	}
}

// reconcile asserts the conservation contracts that must hold on any
// transport, plus the wire-byte balance on TCP runs.
func reconcile(t *testing.T, label string, kind TransportKind, res Result) {
	t.Helper()
	m := res.Metrics
	if got, want := m.Get(metrics.CtrlMessages), res.Net.ControlMessages; got != want {
		t.Errorf("%s: ctrl_messages = %d, transport ControlMessages = %d", label, got, want)
	}
	if got, want := m.Get(metrics.CtrlBytes), res.Net.ControlBytes; got != want {
		t.Errorf("%s: ctrl_bytes = %d, transport ControlBytes = %d", label, got, want)
	}
	// Control bytes decompose exactly: every lock message's framing, every
	// fork and token entry inside one.
	entries := m.Get(metrics.ForkGrantsRemote) + m.Get(metrics.TokenSendsRemote)
	lockMsgs := m.Get(metrics.CtrlMessages)
	if want := lockMsgs*(cluster.CtrlBytes-cluster.CtrlEntryBytes) + entries*cluster.CtrlEntryBytes; m.Get(metrics.CtrlBytes) != want {
		t.Errorf("%s: ctrl_bytes = %d, want %d for %d lock messages, %d entries",
			label, m.Get(metrics.CtrlBytes), want, lockMsgs, entries)
	}
	if lockMsgs > entries {
		t.Errorf("%s: %d lock messages carry only %d forks and tokens", label, lockMsgs, entries)
	}
	if got, want := m.Get(metrics.RemoteBatches), res.Net.DataMessages; got != want {
		t.Errorf("%s: remote_batches = %d, transport DataMessages = %d", label, got, want)
	}
	if got, want := m.Get(metrics.RemoteBatchBytes), res.Net.DataBytes; got != want {
		t.Errorf("%s: remote_batch_bytes = %d, transport DataBytes = %d", label, got, want)
	}
	if got, want := m.Get(metrics.RemoteEntriesDelivered), m.Get(metrics.RemoteEntriesFlushed); got != want {
		t.Errorf("%s: remote_entries_delivered = %d, flushed = %d", label, got, want)
	}
	if drops := res.Net.DroppedMessages; drops != 0 {
		t.Errorf("%s: %d messages dropped on a fault-free run", label, drops)
	}
	switch kind {
	case TransportInProc:
		if res.Net.WireBytesSent != 0 || res.Net.WireBytesReceived != 0 {
			t.Errorf("%s: in-process run reported wire bytes %d/%d",
				label, res.Net.WireBytesSent, res.Net.WireBytesReceived)
		}
	case TransportTCP:
		if res.Net.WireBytesSent != res.Net.WireBytesReceived {
			t.Errorf("%s: wire bytes sent %d != received %d",
				label, res.Net.WireBytesSent, res.Net.WireBytesReceived)
		}
		if res.Net.TotalMessages() > 0 && res.Net.WireBytesSent == 0 {
			t.Errorf("%s: %d messages moved but zero wire bytes",
				label, res.Net.TotalMessages())
		}
		if res.Net.WireBytesSent < res.Net.DataBytes/8 {
			// The simulated ledger charges per-entry header bytes; real
			// frames are varint-packed but can't be absurdly smaller.
			t.Errorf("%s: wire bytes %d implausibly small vs simulated %d",
				label, res.Net.WireBytesSent, res.Net.DataBytes)
		}
	}
}

func TestTransportEquivalenceMatrix(t *testing.T) {
	equivRequireLoopback(t)
	cells := []struct {
		name string
		mode Mode
		sync Sync
	}{
		{"bsp/none", BSP, SyncNone},
		{"async/none", Async, SyncNone},
		{"async/token-single", Async, TokenSingle},
		{"async/token-dual", Async, TokenDual},
		{"async/partition-lock", Async, PartitionLock},
		{"async/vertex-lock-giraph", Async, VertexLockGiraph},
	}
	for _, cell := range cells {
		cell := cell
		t.Run("sssp/"+cell.name, func(t *testing.T) {
			t.Parallel()
			g := equivGraph(false)
			want := algorithms.ShortestPaths(g, 0)
			var got [2][]float64
			for i, kind := range []TransportKind{TransportInProc, TransportTCP} {
				label := "sssp/" + cell.name + "/" + kind.String()
				dist, res, _, err := Run(g, algorithms.SSSP(0), equivConfig(cell.mode, cell.sync, kind))
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if !res.Converged {
					t.Fatalf("%s: did not converge", label)
				}
				reconcile(t, label, kind, res)
				for v := range want {
					if dist[v] != want[v] {
						t.Fatalf("%s: dist[%d] = %v, want %v", label, v, dist[v], want[v])
					}
				}
				got[i] = dist
			}
			for v := range got[0] {
				if got[0][v] != got[1][v] {
					t.Fatalf("sssp/%s: transports disagree at %d: inproc %v, tcp %v",
						cell.name, v, got[0][v], got[1][v])
				}
			}
		})
		t.Run("pagerank/"+cell.name, func(t *testing.T) {
			t.Parallel()
			g := equivGraph(false)
			const eps = 0.05
			aggregated := cell.mode == BSP
			var got [2][]float64
			var steps [2]int
			for i, kind := range []TransportKind{TransportInProc, TransportTCP} {
				label := "pagerank/" + cell.name + "/" + kind.String()
				prog := algorithms.PageRank(eps)
				if aggregated {
					prog = algorithms.PageRankAggregated(eps)
				}
				pr, res, _, err := Run(g, prog, equivConfig(cell.mode, cell.sync, kind))
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if !res.Converged {
					t.Fatalf("%s: did not converge", label)
				}
				reconcile(t, label, kind, res)
				got[i], steps[i] = pr, res.Supersteps
			}
			if cell.mode == BSP {
				// Schedule-deterministic: demand bitwise equality.
				if steps[0] != steps[1] {
					t.Fatalf("pagerank/%s: inproc took %d supersteps, tcp %d",
						cell.name, steps[0], steps[1])
				}
				for v := range got[0] {
					if got[0][v] != got[1][v] {
						t.Fatalf("pagerank/%s: transports disagree at %d: inproc %v, tcp %v",
							cell.name, v, got[0][v], got[1][v])
					}
				}
			}
			// Schedule-dependent cells: each transport must satisfy the
			// residual bound on its own (the torture harness's oracle).
			maxIn := 0
			for v := 0; v < g.NumVertices(); v++ {
				if d := g.InDegree(graph.VertexID(v)); d > maxIn {
					maxIn = d
				}
			}
			bound := eps * float64(1+maxIn)
			if !aggregated {
				bound *= 4
			}
			for i, kind := range []TransportKind{TransportInProc, TransportTCP} {
				if r := equivPagerankResidual(g, got[i], !aggregated); r > bound {
					t.Errorf("pagerank/%s/%s: residual %v exceeds bound %v",
						cell.name, kind, r, bound)
				}
			}
		})
		t.Run("coloring/"+cell.name, func(t *testing.T) {
			t.Parallel()
			g := equivGraph(true)
			var got [2][]int32
			var converged [2]bool
			for i, kind := range []TransportKind{TransportInProc, TransportTCP} {
				label := "coloring/" + cell.name + "/" + kind.String()
				cfg := equivConfig(cell.mode, cell.sync, kind)
				if cell.mode == BSP {
					// BSP coloring oscillates (Figure 2); bound it and
					// compare the deterministic non-converged state.
					cfg.MaxSupersteps = 30
				}
				colors, res, _, err := Run(g, algorithms.Coloring(), cfg)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				reconcile(t, label, kind, res)
				got[i], converged[i] = colors, res.Converged
				if cell.mode != BSP && !res.Converged {
					t.Fatalf("%s: did not converge", label)
				}
				if res.Converged && cell.sync.Serializable() {
					if err := algorithms.ValidateColoring(g, colors); err != nil {
						t.Errorf("%s: %v", label, err)
					}
				}
			}
			if cell.mode == BSP {
				if converged[0] != converged[1] {
					t.Fatalf("coloring/%s: convergence differs across transports", cell.name)
				}
				for v := range got[0] {
					if got[0][v] != got[1][v] {
						t.Fatalf("coloring/%s: transports disagree at %d: inproc %d, tcp %d",
							cell.name, v, got[0][v], got[1][v])
					}
				}
			}
		})
	}
}

// equivPagerankResidual mirrors the torture harness's residual: how far
// each vertex's rank sits from what its in-neighbors' current ranks
// imply. skipNoIn excludes in-degree-0 vertices (the eps variant never
// re-executes them).
func equivPagerankResidual(g *graph.Graph, pr []float64, skipNoIn bool) float64 {
	worst := 0.0
	for v := 0; v < g.NumVertices(); v++ {
		ins := g.InNeighbors(graph.VertexID(v))
		if skipNoIn && len(ins) == 0 {
			continue
		}
		sum := 0.0
		for _, u := range ins {
			if d := g.OutDegree(u); d > 0 {
				sum += pr[u] / float64(d)
			}
		}
		want := 0.15 + 0.85*sum
		if r := want - pr[v]; r > worst {
			worst = r
		} else if r := pr[v] - want; r > worst {
			worst = r
		}
	}
	return worst
}

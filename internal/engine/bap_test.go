package engine

import (
	"net"
	"reflect"
	"testing"
	"time"

	"serialgraph/internal/algorithms"
	"serialgraph/internal/cluster"
	"serialgraph/internal/generate"
	"serialgraph/internal/history"
	"serialgraph/internal/model"
)

// bapLatency keeps messages on the wire while their senders go idle, so a
// termination detector that stops counting a message before its handler has
// run (or loses an idle worker's wake-up) ends the run with work left.
var bapLatency = cluster.LatencyModel{Propagation: 200 * time.Microsecond}

func TestBAPSSSPMatchesReference(t *testing.T) {
	g := testGraph(t)
	want := algorithms.ShortestPaths(g, 0)
	for _, c := range []struct {
		name string
		sync Sync
		lat  cluster.LatencyModel
	}{
		{"none", SyncNone, cluster.LatencyModel{}},
		{"partition-lock", PartitionLock, cluster.LatencyModel{}},
		{"none-latency", SyncNone, bapLatency},
	} {
		t.Run(c.name, func(t *testing.T) {
			dist, res, _, err := Run(g, algorithms.SSSP(0), Config{
				Workers: 4, Mode: BAP, Sync: c.sync, Seed: 5, Latency: c.lat,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Converged {
				t.Fatal("did not quiesce")
			}
			for v := range want {
				if dist[v] != want[v] {
					t.Fatalf("dist[%d] = %v, want %v", v, dist[v], want[v])
				}
			}
		})
	}
}

func TestBAPColoringSerializable(t *testing.T) {
	g := undirected(testGraph(t))
	colors, res, _, err := Run(g, algorithms.Coloring(), Config{
		Workers: 4, Mode: BAP, Sync: PartitionLock, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("did not quiesce")
	}
	if err := algorithms.ValidateColoring(g, colors); err != nil {
		t.Fatal(err)
	}
}

func TestBAPHistoryClean(t *testing.T) {
	g := undirected(generate.PowerLaw(generate.PowerLawConfig{N: 200, AvgDegree: 5, Exponent: 2.2, Seed: 67}))
	_, _, rec, err := Run(g, algorithms.Coloring(), Config{
		Workers: 4, Mode: BAP, Sync: PartitionLock, Seed: 2, TrackHistory: true,
		Latency: cluster.LatencyModel{Propagation: 50 * time.Microsecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Len() == 0 {
		t.Fatal("no history")
	}
	if v := history.CheckAll(rec.Txns(), g); v != nil {
		t.Fatalf("violations under BAP partition locking: %v", v[:min(3, len(v))])
	}
}

func TestBAPWCC(t *testing.T) {
	g := undirected(testGraph(t))
	want := algorithms.Components(g)
	for _, lat := range []cluster.LatencyModel{{}, bapLatency} {
		labels, res, _, err := Run(g, algorithms.WCC(), Config{
			Workers: 3, Mode: BAP, Sync: PartitionLock, Seed: 7, Latency: lat,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatalf("latency %v: did not quiesce", lat.Propagation)
		}
		for v := range want {
			if labels[v] != want[v] {
				t.Fatalf("latency %v: label[%d] = %d, want %d", lat.Propagation, v, labels[v], want[v])
			}
		}
	}
}

// TestBAPMaxSuperstepsGuard: a program that never halts, and keeps messages
// on the wire, must end at MaxSupersteps unconverged on both transports —
// the guard stops the steps and the in-flight count drains — and must leave
// nothing running that could still move the registry after Run returns.
func TestBAPMaxSuperstepsGuard(t *testing.T) {
	prog := model.Program[int32, int32]{
		Name: "never-halt", Semantics: model.Queue, MsgBytes: 4,
		Compute: func(ctx model.Context[int32, int32], msgs []int32) {
			ctx.SendToAllOut(1)
		},
	}
	kinds := []TransportKind{TransportInProc}
	if ln, err := net.Listen("tcp", "127.0.0.1:0"); err == nil {
		ln.Close()
		kinds = append(kinds, TransportTCP)
	}
	for _, kind := range kinds {
		cfg := equivConfig(BAP, SyncNone, kind)
		cfg.MaxSupersteps, cfg.Latency = 20, bapLatency
		_, res, _, err := Run(equivGraph(false), prog, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Converged {
			t.Errorf("%v: a program that never halts converged", kind)
		}
		if res.Supersteps != cfg.MaxSupersteps {
			t.Errorf("%v: stopped after %d logical supersteps, want %d", kind, res.Supersteps, cfg.MaxSupersteps)
		}
		time.Sleep(time.Millisecond)
		if !reflect.DeepEqual(cfg.Metrics.Snapshot(), res.Metrics) {
			t.Errorf("%v: the registry changed after Run returned", kind)
		}
	}
}

func TestBAPRejectsTokensAndCheckpoints(t *testing.T) {
	g := testGraph(t)
	for _, sync := range []Sync{TokenSingle, TokenDual} {
		if _, _, _, err := Run(g, algorithms.SSSP(0), Config{Workers: 2, Mode: BAP, Sync: sync}); err == nil {
			t.Errorf("BAP accepted %v", sync)
		}
	}
	if _, _, _, err := Run(g, algorithms.SSSP(0), Config{
		Workers: 2, Mode: BAP, CheckpointEvery: 1, CheckpointDir: t.TempDir(),
	}); err == nil {
		t.Error("BAP accepted checkpointing")
	}
}

func TestBAPFewerBarrierRoundsThanAsync(t *testing.T) {
	// BAP workers advance independently; Result.Supersteps reports the
	// maximum per-worker logical superstep count, typically close to the
	// barriered engine's count but with no rendezvous cost. Sanity-check
	// both converge and report plausible counts.
	g := generate.PowerLaw(generate.PowerLawConfig{N: 2000, AvgDegree: 6, Exponent: 2.1, Seed: 69})
	_, bap, _, err := Run(g, algorithms.SSSP(0), Config{
		Workers: 4, Mode: BAP, Sync: PartitionLock, Seed: 1,
		Latency: cluster.LatencyModel{Propagation: 100 * time.Microsecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	_, ap, _, err := Run(g, algorithms.SSSP(0), Config{
		Workers: 4, Mode: Async, Sync: PartitionLock, Seed: 1,
		Latency: cluster.LatencyModel{Propagation: 100 * time.Microsecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bap.Converged || !ap.Converged {
		t.Fatal("a run did not converge")
	}
	if bap.Supersteps == 0 {
		t.Error("BAP reported zero supersteps")
	}
}

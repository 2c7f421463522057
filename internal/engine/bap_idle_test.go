//go:build unix

package engine

import (
	"syscall"
	"testing"
	"time"

	"serialgraph/internal/cluster"
	"serialgraph/internal/generate"
	"serialgraph/internal/model"
)

// TestBAPIdleRunBurnsNoCPU: a BAP run in which nothing is on the wire — one
// vertex blocks in Compute, nobody sends — must leave the transport's wire
// clock parked. A clock kept spinning (by a termination test waiting on it
// at a sub-spinHorizon period, say) shows up as a full core of CPU for the
// length of the run. Not parallel: rusage is process-wide.
func TestBAPIdleRunBurnsNoCPU(t *testing.T) {
	const block = 100 * time.Millisecond
	prog := model.Program[int32, int32]{
		Name: "block-once", Semantics: model.Queue, MsgBytes: 4,
		Compute: func(ctx model.Context[int32, int32], msgs []int32) {
			if ctx.ID() == 0 {
				time.Sleep(block)
			}
			ctx.VoteToHalt()
		},
	}
	cpu := func() time.Duration {
		var ru syscall.Rusage
		if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
			t.Fatal(err)
		}
		return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	before := cpu()
	_, res, _, err := Run(generate.Ring(64), prog, Config{
		Workers: 2, Mode: BAP, Seed: 1,
		Latency: cluster.LatencyModel{Propagation: 50 * time.Microsecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.ComputeTime < block {
		t.Fatalf("converged=%v after %v: the run did not sit out the %v block", res.Converged, res.ComputeTime, block)
	}
	if burned := cpu() - before; burned > block/2 {
		t.Errorf("an idle %v BAP run burned %v of CPU: something is spinning", res.ComputeTime, burned)
	}
}

package engine

// Table-driven coverage of Config.validate: every invalid mode × sync ×
// checkpoint × fault combination must be rejected with a telling error
// before any worker starts, and every legal combination must run. The
// torture harness samples only legal configurations by construction, so
// this table is what keeps the two notions of "legal" aligned. Rows named
// peer-* hold ValidatePeer, the multi-process check, to the same standard:
// each refusal names the option.

import (
	"strings"
	"testing"
	"time"

	"serialgraph/internal/algorithms"
	"serialgraph/internal/fault"
	"serialgraph/internal/generate"
)

func TestConfigValidationTable(t *testing.T) {
	g := generate.Ring(10)
	dir := t.TempDir()

	cases := []struct {
		name    string
		cfg     Config
		wantErr string // substring; "" means the config must be accepted
	}{
		// BSP cannot provide serializability: no eager local replicas (§4.1).
		{"bsp+token-single", Config{Workers: 2, Mode: BSP, Sync: TokenSingle}, "requires the Async mode"},
		{"bsp+token-dual", Config{Workers: 2, Mode: BSP, Sync: TokenDual}, "requires the Async mode"},
		{"bsp+partition-lock", Config{Workers: 2, Mode: BSP, Sync: PartitionLock}, "requires the Async mode"},
		{"bsp+vertex-lock", Config{Workers: 2, Mode: BSP, Sync: VertexLockGiraph}, "requires the Async mode"},

		// BAP composes with SyncNone and PartitionLock only.
		{"bap+token-single", Config{Workers: 2, Mode: BAP, Sync: TokenSingle}, "no global supersteps"},
		{"bap+token-dual", Config{Workers: 2, Mode: BAP, Sync: TokenDual}, "no global supersteps"},
		{"bap+vertex-lock", Config{Workers: 2, Mode: BAP, Sync: VertexLockGiraph}, "SyncNone and PartitionLock only"},

		// BAP has no barriers: nothing to checkpoint at, no failure
		// detection, nothing for the watchdog to time or recovery to act at.
		{"bap+checkpoint", Config{Workers: 2, Mode: BAP, CheckpointEvery: 1, CheckpointDir: dir}, "BAP has none"},
		{"bap+restore", Config{Workers: 2, Mode: BAP, RestoreFrom: dir + "/checkpoint-000001.gob"}, "BAP has none"},
		{"bap+fault", Config{Workers: 2, Mode: BAP, Fault: fault.NewInjector(fault.Plan{})}, "no barriers"},
		{"bap+watchdog", Config{Workers: 2, Mode: BAP, WatchdogTimeout: time.Second}, "BAP has none"},
		{"bap+confined", Config{Workers: 2, Mode: BAP, Recovery: RecoverConfined}, "BAP has none"},

		// Checkpointing needs a destination.
		{"checkpoint-without-dir", Config{Workers: 2, Mode: Async, CheckpointEvery: 2}, "no CheckpointDir"},

		// Fault plans are validated against the cluster.
		{"crash-out-of-range", Config{Workers: 2, Mode: Async,
			Fault: fault.NewInjector(fault.Plan{Crashes: []fault.Crash{{Worker: 5, AtSuperstep: 0}}})},
			"cluster has 2"},
		{"crash-without-trigger", Config{Workers: 2, Mode: Async,
			Fault: fault.NewInjector(fault.Plan{Crashes: []fault.Crash{{Worker: 1, AtSuperstep: -1}}})},
			"no trigger"},
		{"drop-rate-above-one", Config{Workers: 2, Mode: Async,
			Fault: fault.NewInjector(fault.Plan{DropRate: 1.5})}, "outside [0,1]"},
		{"duplicate-rate-negative", Config{Workers: 2, Mode: Async,
			Fault: fault.NewInjector(fault.Plan{DuplicateRate: -0.1})}, "outside [0,1]"},
		{"straggler-rate-above-one", Config{Workers: 2, Mode: Async,
			Fault: fault.NewInjector(fault.Plan{StragglerRate: 2, StragglerDelay: 1})}, "outside [0,1]"},
		{"straggler-without-delay", Config{Workers: 2, Mode: Async,
			Fault: fault.NewInjector(fault.Plan{StragglerRate: 0.1})}, "no StragglerDelay"},

		// The legal cube: BSP plain, Async under every technique, BAP under
		// its two, and faults/checkpoints on barriered modes.
		{"bsp-plain", Config{Workers: 2, Mode: BSP}, ""},
		{"async-none", Config{Workers: 2, Mode: Async, Sync: SyncNone}, ""},
		{"async-token-single", Config{Workers: 2, Mode: Async, Sync: TokenSingle}, ""},
		{"async-token-dual", Config{Workers: 2, Mode: Async, Sync: TokenDual}, ""},
		{"async-partition-lock", Config{Workers: 2, Mode: Async, Sync: PartitionLock}, ""},
		{"async-vertex-lock", Config{Workers: 2, Mode: Async, Sync: VertexLockGiraph}, ""},
		{"bap-none", Config{Workers: 2, Mode: BAP, Sync: SyncNone}, ""},
		{"bap-partition-lock", Config{Workers: 2, Mode: BAP, Sync: PartitionLock}, ""},
		{"bsp-fault-checkpoint", Config{Workers: 2, Mode: BSP,
			CheckpointEvery: 1, CheckpointDir: t.TempDir(),
			Fault: fault.NewInjector(fault.Plan{Crashes: []fault.Crash{{Worker: 1, AtSuperstep: 1}}})}, ""},
		{"async-fault-no-checkpoint", Config{Workers: 2, Mode: Async,
			Fault: fault.NewInjector(fault.Plan{DuplicateRate: 0.1})}, ""},

		// Multi-process runs: BSP and Async under none and partition-lock;
		// everything that needs the cluster in one process is refused.
		{"peer-bsp-none", Config{Workers: 2, Mode: BSP}, ""},
		{"peer-async-partition-lock", Config{Workers: 2, Mode: Async, Sync: PartitionLock}, ""},
		{"peer-bsp+partition-lock", Config{Workers: 2, Mode: BSP, Sync: PartitionLock}, "requires the Async mode"},
		{"peer-bap", Config{Workers: 2, Mode: BAP}, "the BAP mode"},
		{"peer-token-single", Config{Workers: 2, Mode: Async, Sync: TokenSingle}, "the token-single technique"},
		{"peer-token-dual", Config{Workers: 2, Mode: Async, Sync: TokenDual}, "the token-dual technique"},
		{"peer-vertex-lock", Config{Workers: 2, Mode: Async, Sync: VertexLockGiraph}, "the vertex-lock-giraph technique"},
		{"peer-fault", Config{Workers: 2, Mode: Async, Fault: fault.NewInjector(fault.Plan{DuplicateRate: 0.1})}, "fault injection"},
		{"peer-checkpoint", Config{Workers: 2, Mode: BSP, CheckpointEvery: 1, CheckpointDir: dir}, "checkpoints"},
		{"peer-restore", Config{Workers: 2, Mode: BSP, RestoreFrom: dir + "/checkpoint-000001.gob"}, "checkpoints"},
		{"peer-confined-recovery", Config{Workers: 2, Mode: BSP, Recovery: RecoverConfined}, "confined recovery"},
		{"peer-watchdog", Config{Workers: 2, Mode: Async, WatchdogTimeout: 1}, "liveness watchdog"},
		{"peer-history", Config{Workers: 2, Mode: Async, Sync: PartitionLock, TrackHistory: true}, "TrackHistory"},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var err error
			if strings.HasPrefix(tc.name, "peer-") {
				err = tc.cfg.ValidatePeer()
			} else {
				_, _, _, err = Run(g, algorithms.SSSP(0), tc.cfg)
			}
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("legal config rejected: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("invalid config accepted, want error containing %q", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("err = %v, want substring %q", err, tc.wantErr)
			}
		})
	}
}

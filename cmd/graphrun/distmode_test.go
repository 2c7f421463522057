package main

import (
	"strings"
	"testing"

	"serialgraph/internal/engine"
)

// A -listen coordinator refuses, by name, every flag and every -model or
// -technique multi-process mode does not implement, and carries the ones
// it does into the job; no process or socket is involved.
func TestCoordinatorRefusesUnsupported(t *testing.T) {
	if err := refuseFlags([]string{"listen", "workers-remote", "alg", "model", "technique", "o"}); err != nil {
		t.Fatalf("supported flags refused: %v", err)
	}
	err := refuseFlags([]string{"listen", "check", "alg", "checkpoint-every", "transport"})
	for _, want := range []string{"-check", "-checkpoint-every", "-transport"} {
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("refuseFlags error %v does not name %s", err, want)
		}
	}

	base := coordinatorConfig{alg: "coloring", family: "powerlaw", familyN: 50, workers: 2,
		model: "async", technique: "partition-locking"}
	job, err := base.job()
	if err != nil {
		t.Fatalf("async partition-locking refused: %v", err)
	}
	if engine.Mode(job.Mode) != engine.Async || engine.Sync(job.Sync) != engine.PartitionLock || !job.Undirected {
		t.Errorf("job carries mode %d, sync %d, undirected %v", job.Mode, job.Sync, job.Undirected)
	}
	for _, tc := range []struct{ model, technique, want string }{
		{"bap", "none", "-model bap"},
		{"async", "dual-token", "token-dual"},
		{"async", "single-token", "token-single"},
		{"async", "vertex-locking", "-technique vertex-locking"},
		{"bsp", "partition-locking", "requires the Async mode"},
	} {
		cfg := base
		cfg.model, cfg.technique = tc.model, tc.technique
		if _, err := cfg.job(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("-model %s -technique %s: err = %v, want %q", tc.model, tc.technique, err, tc.want)
		}
	}
}

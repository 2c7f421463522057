package msgstore

// Duplicate-delivery semantics: the fault injector can deliver a data
// message twice, and the torture harness's conservation oracle relies on
// each semantics class reacting predictably. These tests pin that down:
// min-combining and per-source overwrite absorb duplicates, sum-combining
// visibly does not (which is why duplicate injection pairs with
// idempotent workloads), and queues append every copy.

import (
	"testing"

	"serialgraph/internal/model"
)

func TestCombineMinAbsorbsDuplicates(t *testing.T) {
	g := lineGraph()
	min := func(a, b int) int {
		if a < b {
			return a
		}
		return b
	}
	s := New[int](g, all(4), model.Combine, min)
	s.Put(2, 0, 7, 0)
	s.Put(2, 0, 7, 0) // duplicate delivery
	s.Put(2, 1, 9, 0)
	s.Put(2, 1, 9, 0)
	var r Reader[int]
	if !s.Read(2, &r) || len(r.Msgs) != 1 || r.Msgs[0] != 7 {
		t.Fatalf("min-combined read = %v, want [7]", r.Msgs)
	}
}

func TestCombineSumIsNotIdempotent(t *testing.T) {
	// Documenting the hazard, not a bug: a sum combiner counts duplicated
	// deliveries twice. Fault plans with DuplicateRate > 0 must therefore
	// only be asserted exact against idempotent (min/max-style) combiners.
	g := lineGraph()
	sum := func(a, b int) int { return a + b }
	s := New[int](g, all(4), model.Combine, sum)
	s.Put(2, 0, 5, 0)
	s.Put(2, 0, 5, 0) // duplicate delivery inflates the sum
	var r Reader[int]
	if !s.Read(2, &r) || len(r.Msgs) != 1 {
		t.Fatalf("combined read = %v", r.Msgs)
	}
	if r.Msgs[0] != 10 {
		t.Fatalf("sum after duplicate = %d, want 10 (duplicates are visible to sum combiners)", r.Msgs[0])
	}
}

func TestOverwriteDuplicateSameVersionHarmless(t *testing.T) {
	// A duplicated overwrite delivery re-writes the same (src, version)
	// slot: same payload, same version, so replica freshness (C1) and the
	// read sum are unaffected.
	g := lineGraph()
	s := New[int](g, all(4), model.Overwrite, nil)
	s.Put(2, 0, 42, 3)
	s.Put(2, 0, 42, 3) // duplicate delivery
	s.Put(2, 1, 17, 1)
	r := Reader[int]{Sources: true}
	if !s.Read(2, &r) || len(r.Msgs) != 2 {
		t.Fatalf("overwrite read = %v, want 2 slots", r.Msgs)
	}
	for i, src := range r.Srcs {
		switch src {
		case 0:
			if r.Msgs[i] != 42 || r.Vers[i] != 3 {
				t.Errorf("slot from v0 = (%d, ver %d), want (42, ver 3)", r.Msgs[i], r.Vers[i])
			}
		case 1:
			if r.Msgs[i] != 17 || r.Vers[i] != 1 {
				t.Errorf("slot from v1 = (%d, ver %d), want (17, ver 1)", r.Msgs[i], r.Vers[i])
			}
		default:
			t.Errorf("unexpected source v%d", src)
		}
	}
}

func TestOverwriteStaleDuplicateAfterNewerWrite(t *testing.T) {
	// A duplicate that arrives after the source has already written a newer
	// version must not resurrect the old value: the slot keeps whatever was
	// written last, and the version travels with the payload that wrote it.
	g := lineGraph()
	s := New[int](g, all(4), model.Overwrite, nil)
	s.Put(2, 0, 10, 1)
	s.Put(2, 0, 20, 2) // newer write from the same source
	s.Put(2, 0, 10, 1) // straggling duplicate of the old delivery
	r := Reader[int]{Sources: true}
	if !s.Read(2, &r) || len(r.Msgs) != 1 {
		t.Fatalf("overwrite read = %v, want 1 slot", r.Msgs)
	}
	// The store is last-writer-wins per slot; the recorded version lets the
	// C1 check catch exactly this reordering if it matters to a run.
	if r.Msgs[0] != 10 || r.Vers[0] != 1 {
		t.Fatalf("slot = (%d, ver %d); last delivery wins and carries its own version, want (10, ver 1)", r.Msgs[0], r.Vers[0])
	}
}

func TestQueueKeepsEveryDuplicate(t *testing.T) {
	g := lineGraph()
	s := New[int](g, all(4), model.Queue, nil)
	s.Put(2, 0, 5, 0)
	s.Put(2, 0, 5, 0)
	s.Put(2, 0, 5, 0)
	var r Reader[int]
	if !s.Read(2, &r) || len(r.Msgs) != 3 {
		t.Fatalf("queue read = %v, want 3 copies", r.Msgs)
	}
}

package checkpoint

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"serialgraph/internal/msgstore"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	snap := &Snapshot[float64, float64]{
		Superstep: 7,
		Values:    []float64{1.5, 2.5},
		Halted:    []bool{true, false},
		AggPrev:   map[string]float64{"err": 0.25},
		Stores: [][]msgstore.DumpEntry[float64]{
			{{Dst: 0, Src: 1, Msg: 3.5, Ver: 2, IsNew: true}},
			nil,
		},
		Forks: [][]byte{{1, 6, 3}, nil},
	}
	path := Path(dir, 7)
	if err := Save(path, snap); err != nil {
		t.Fatal(err)
	}
	got, err := Load[float64, float64](path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Superstep != 7 || got.Values[1] != 2.5 || !got.Halted[0] ||
		got.AggPrev["err"] != 0.25 || got.Stores[0][0].Msg != 3.5 ||
		!bytes.Equal(got.Forks[0], snap.Forks[0]) || len(got.Forks[1]) != 0 {
		t.Errorf("round trip mismatch: %+v", got)
	}
}

// TestLoadRejectsSGC1: a generation of the previous format — fork state as
// nested maps — is refused at the header, checksum intact or not, so it is
// never decoded into the flat fork shape; LoadChain falls back past it.
func TestLoadRejectsSGC1(t *testing.T) {
	dir := t.TempDir()
	writeGen(t, dir, 1, -1, 2, []float64{1, 2}, nil, nil)
	writeGen(t, dir, 2, -1, 2, []float64{3, 4}, nil, nil)
	data, err := os.ReadFile(Path(dir, 2))
	if err != nil {
		t.Fatal(err)
	}
	copy(data, "SGC1")
	if err := os.WriteFile(Path(dir, 2), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load[float64, float64](Path(dir, 2)); err == nil || !strings.Contains(err.Error(), "bad header") {
		t.Fatalf("Load of an SGC1 generation: %v, want a bad header error", err)
	}
	snap, skipped, err := LoadChain[float64, float64](dir)
	if err != nil {
		t.Fatal(err)
	}
	if snap == nil || snap.Superstep != 1 || skipped != 1 {
		t.Fatalf("LoadChain = %+v skipping %d, want superstep 1 skipping the SGC1 file", snap, skipped)
	}
}

func TestLatest(t *testing.T) {
	dir := t.TempDir()
	if p, err := Latest(dir); err != nil || p != "" {
		t.Fatalf("empty dir: %q, %v", p, err)
	}
	for _, s := range []int{2, 10, 6} {
		if err := Save(Path(dir, s), &Snapshot[int32, int32]{Superstep: s}); err != nil {
			t.Fatal(err)
		}
	}
	p, err := Latest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(p) != "checkpoint-000010.gob" {
		t.Errorf("Latest = %s", p)
	}
}

func TestSaveIsAtomic(t *testing.T) {
	dir := t.TempDir()
	path := Path(dir, 1)
	if err := Save(path, &Snapshot[int32, int32]{Superstep: 1}); err != nil {
		t.Fatal(err)
	}
	// No temp droppings.
	entries, _ := os.ReadDir(dir)
	if len(entries) != 1 {
		t.Errorf("dir has %d entries, want 1", len(entries))
	}
}

func TestLoadMissing(t *testing.T) {
	if _, err := Load[int32, int32](filepath.Join(t.TempDir(), "nope.gob")); err == nil {
		t.Error("missing file did not error")
	}
}

func TestLoadGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "checkpoint-000001.gob")
	if err := os.WriteFile(path, []byte("this is not a gob stream"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Load[int32, int32](path)
	if err == nil {
		t.Fatal("garbage file did not error")
	}
	if want := "bad header"; !strings.Contains(err.Error(), want) {
		t.Errorf("error %q does not mention %q", err, want)
	}
}

func TestLoadTruncated(t *testing.T) {
	dir := t.TempDir()
	path := Path(dir, 3)
	snap := &Snapshot[float64, float64]{
		Superstep: 3,
		Values:    make([]float64, 1000),
		Halted:    make([]bool, 1000),
	}
	if err := Save(path, snap); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Chop the stream at several points; every cut must produce a clean
	// error, never a panic or a silently short snapshot.
	for _, frac := range []float64{0.1, 0.5, 0.9} {
		cut := int(float64(len(data)) * frac)
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Load[float64, float64](path); err == nil {
			t.Errorf("truncated at %d/%d bytes: no error", cut, len(data))
		}
	}
}

func TestLatestIgnoresTempFiles(t *testing.T) {
	dir := t.TempDir()
	if err := Save(Path(dir, 4), &Snapshot[int32, int32]{Superstep: 4}); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-Save at a later superstep: the temp file exists
	// but was never renamed. Latest must not pick it up.
	tmp := Path(dir, 9) + ".tmp"
	if err := os.WriteFile(tmp, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	p, err := Latest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(p) != "checkpoint-000004.gob" {
		t.Errorf("Latest = %s, want the completed checkpoint, not the .tmp", p)
	}
}

// writeGen saves a generation; vals==nil with base>=0 makes it a delta
// carrying ids/dvals against that base.
func writeGen(t *testing.T, dir string, s, base int, n int, vals []float64, ids []int32, dvals []float64) {
	t.Helper()
	snap := &Snapshot[float64, float64]{
		Superstep: s, Base: base, NumVertices: n,
		Halted: make([]bool, n),
	}
	if base < 0 {
		snap.Values = vals
	} else {
		snap.DeltaIDs, snap.DeltaValues = ids, dvals
	}
	if err := Save(Path(dir, s), snap); err != nil {
		t.Fatal(err)
	}
}

func TestMaterializeDeltaChain(t *testing.T) {
	dir := t.TempDir()
	// Full at 1, deltas at 3 and 5: vertex 0 dirtied twice, vertex 2 once.
	writeGen(t, dir, 1, -1, 3, []float64{10, 20, 30}, nil, nil)
	writeGen(t, dir, 3, 1, 3, nil, []int32{0}, []float64{11})
	writeGen(t, dir, 5, 3, 3, nil, []int32{0, 2}, []float64{12, 33})
	snap, err := Materialize[float64, float64](Path(dir, 5))
	if err != nil {
		t.Fatal(err)
	}
	if snap.IsDelta() {
		t.Error("materialized snapshot still reports IsDelta")
	}
	if snap.Superstep != 5 {
		t.Errorf("Superstep = %d, want 5", snap.Superstep)
	}
	want := []float64{12, 20, 33}
	for i, v := range want {
		if snap.Values[i] != v {
			t.Errorf("Values[%d] = %v, want %v", i, snap.Values[i], v)
		}
	}
}

func TestMaterializeFailsOnCorruptBase(t *testing.T) {
	dir := t.TempDir()
	writeGen(t, dir, 1, -1, 2, []float64{1, 2}, nil, nil)
	writeGen(t, dir, 3, 1, 2, nil, []int32{1}, []float64{9})
	if err := os.WriteFile(Path(dir, 1), []byte("SGC2 corrupted base"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Materialize[float64, float64](Path(dir, 3)); err == nil {
		t.Error("Materialize over a corrupt base did not error")
	}
}

func TestLoadChainSkipsCorruptNewest(t *testing.T) {
	dir := t.TempDir()
	writeGen(t, dir, 2, -1, 2, []float64{1, 2}, nil, nil)
	writeGen(t, dir, 4, -1, 2, []float64{3, 4}, nil, nil)
	// Torn write of the newest generation.
	if err := os.WriteFile(Path(dir, 4), []byte("SGC2 torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	snap, skipped, err := LoadChain[float64, float64](dir)
	if err != nil {
		t.Fatal(err)
	}
	if snap == nil || snap.Superstep != 2 {
		t.Fatalf("LoadChain fell back to %+v, want superstep 2", snap)
	}
	if skipped != 1 {
		t.Errorf("skipped = %d, want 1", skipped)
	}
	if snap.Values[1] != 2 {
		t.Errorf("Values[1] = %v, want 2", snap.Values[1])
	}
}

func TestLoadChainSkipsDeltaOnCorruptBase(t *testing.T) {
	dir := t.TempDir()
	// Full at 1 (will be corrupted), delta at 3 chained to it, and an older
	// intact full at 0: the delta's whole chain must be skipped.
	writeGen(t, dir, 0, -1, 2, []float64{7, 8}, nil, nil)
	writeGen(t, dir, 1, -1, 2, []float64{1, 2}, nil, nil)
	writeGen(t, dir, 3, 1, 2, nil, []int32{0}, []float64{5})
	if err := os.WriteFile(Path(dir, 1), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	snap, skipped, err := LoadChain[float64, float64](dir)
	if err != nil {
		t.Fatal(err)
	}
	if snap == nil || snap.Superstep != 0 {
		t.Fatalf("LoadChain = %+v, want fallback to superstep 0", snap)
	}
	if skipped < 2 {
		t.Errorf("skipped = %d, want >= 2 (delta head and its corrupt base)", skipped)
	}
	if snap.Values[0] != 7 {
		t.Errorf("Values[0] = %v, want 7", snap.Values[0])
	}
}

func TestLoadChainAllCorrupt(t *testing.T) {
	dir := t.TempDir()
	writeGen(t, dir, 2, -1, 1, []float64{1}, nil, nil)
	if err := os.WriteFile(Path(dir, 2), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	snap, skipped, err := LoadChain[float64, float64](dir)
	if err != nil {
		t.Fatal(err)
	}
	if snap != nil {
		t.Errorf("LoadChain = %+v, want nil (no usable generation)", snap)
	}
	if skipped != 1 {
		t.Errorf("skipped = %d, want 1", skipped)
	}
}

func TestLoadChainEmptyDir(t *testing.T) {
	snap, skipped, err := LoadChain[float64, float64](t.TempDir())
	if err != nil || snap != nil || skipped != 0 {
		t.Errorf("LoadChain on empty dir = (%v, %d, %v), want (nil, 0, nil)", snap, skipped, err)
	}
}

// TestLoadChainMaxIgnoresNewer pins the reused-directory guard: a
// recovering run restores the newest generation it has itself written,
// never a (possibly foreign) newer one left behind by another process —
// and the ignored generation does not count as skipped.
func TestLoadChainMaxIgnoresNewer(t *testing.T) {
	dir := t.TempDir()
	writeGen(t, dir, 1, -1, 2, []float64{1, 2}, nil, nil)
	writeGen(t, dir, 4, -1, 2, []float64{9, 9}, nil, nil)
	snap, skipped, err := LoadChainMax[float64, float64](dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	if snap == nil || snap.Superstep != 1 {
		t.Fatalf("snap = %+v, want the superstep-1 generation", snap)
	}
	if snap.Values[0] != 1 || snap.Values[1] != 2 {
		t.Errorf("Values = %v, want [1 2]", snap.Values)
	}
	if skipped != 0 {
		t.Errorf("skipped = %d, want 0 (the newer generation is foreign, not corrupt)", skipped)
	}
}

// TestLoadChainMaxTornNewerInvisible: a torn file beyond the bound is
// never even read — recovery falls straight to the bounded generation.
func TestLoadChainMaxTornNewerInvisible(t *testing.T) {
	dir := t.TempDir()
	writeGen(t, dir, 2, -1, 2, []float64{5, 6}, nil, nil)
	if err := os.WriteFile(Path(dir, 3), []byte("SGC2 torn mid-write"), 0o644); err != nil {
		t.Fatal(err)
	}
	snap, skipped, err := LoadChainMax[float64, float64](dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	if snap == nil || snap.Superstep != 2 {
		t.Fatalf("snap = %+v, want the superstep-2 generation", snap)
	}
	if skipped != 0 {
		t.Errorf("skipped = %d, want 0", skipped)
	}
}

// TestLoadChainMaxNoneEligible: every generation is newer than the bound
// (the run never checkpointed), so recovery must fall back to the initial
// state rather than restore foreign files.
func TestLoadChainMaxNoneEligible(t *testing.T) {
	dir := t.TempDir()
	writeGen(t, dir, 3, -1, 2, []float64{7, 8}, nil, nil)
	snap, skipped, err := LoadChainMax[float64, float64](dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	if snap != nil {
		t.Fatalf("snap = %+v, want nil", snap)
	}
	if skipped != 0 {
		t.Errorf("skipped = %d, want 0", skipped)
	}
}

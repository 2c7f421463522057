// Package checkpoint implements the fault-tolerance mechanism of §6.4:
// synchronous checkpoints taken at global barriers. A checkpoint captures a
// consistent state — no vertices executing and no in-flight messages — so
// it includes vertex values, halt flags, the full message stores, the
// aggregator state, and the synchronization technique's data structures
// (the Chandy–Misra fork/token edge bytes). Token positions need no explicit
// record here because the token schedule is a pure function of the
// superstep number.
//
// # Generations, deltas, and the fallback chain
//
// Each checkpoint file is one *generation*. A generation is either full
// (self-contained) or a *delta*: it records only the vertices dirtied
// since the previous generation (plus the always-wholesale parts — halt
// flags, aggregators, message stores, and fork state, which turn over
// completely between checkpoints anyway) and names that previous
// generation as its Base. Restoring a delta chains back through bases
// until a full generation grounds the chain, then replays the deltas
// newest-last.
//
// Every generation carries a CRC32 checksum over its encoded payload, and
// writes are atomic and durable: encode to a temp file, fsync it, rename
// into place, fsync the directory. A crash mid-write therefore leaves at
// worst a stray .tmp file, never a torn generation — and if a generation
// *is* corrupted (bit rot, truncation), LoadChain walks older generations
// until it finds a usable one, reporting how many it skipped so the
// engine can surface the fallback in metrics.
//
// Recovery scope is the engine's concern, not this package's: full
// rollback restores every partition from the materialized snapshot, while
// confined recovery copies out only the crashed workers' slices.
package checkpoint

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"serialgraph/internal/msgstore"
)

// Snapshot is the serialized state of a run at a superstep barrier.
//
// Exactly one of two shapes is valid: a full snapshot (Base == -1, Values
// and optionally Versions populated, Delta* empty) or a delta snapshot
// (Base >= 0 naming the previous generation's superstep, DeltaIDs /
// DeltaValues / optionally DeltaVersions populated, Values and Versions
// empty). Halted, AggPrev, Stores, and Forks are recorded in full either
// way — they change wholesale every superstep, so delta-encoding them
// would save nothing.
type Snapshot[V, M any] struct {
	// Superstep is the last completed superstep; recovery resumes at
	// Superstep+1.
	Superstep int
	// Base is the superstep of the generation this delta chains to, or -1
	// for a full snapshot.
	Base int
	// NumVertices is the vertex count, recorded on deltas so a chain whose
	// base disagrees is rejected instead of silently mis-applied.
	NumVertices int
	Values      []V
	Halted      []bool
	AggPrev     map[string]float64
	// Stores holds each worker's message store contents, indexed by
	// worker.
	Stores [][]msgstore.DumpEntry[M]
	// Forks holds each worker's Chandy–Misra state as chandy.Manager.Export
	// returns it (fork-based techniques only; nil otherwise).
	Forks [][]byte
	// Versions holds per-vertex write versions, recorded only when the
	// run tracks history: restoring them with the values keeps the
	// post-rollback transaction log's version arithmetic consistent.
	Versions []uint32
	// DeltaIDs lists the vertices dirtied since Base (delta snapshots
	// only); DeltaValues and DeltaVersions are parallel to it.
	DeltaIDs      []int32
	DeltaValues   []V
	DeltaVersions []uint32
}

// IsDelta reports whether the snapshot chains to a base generation.
func (s *Snapshot[V, M]) IsDelta() bool { return s.Base >= 0 }

// Path returns the checkpoint file path for a superstep under dir.
func Path(dir string, superstep int) string {
	return filepath.Join(dir, fmt.Sprintf("checkpoint-%06d.gob", superstep))
}

// Latest returns the newest checkpoint file in dir, or "" if none exist.
// It does not verify the file; use LoadChain to restore with corruption
// fallback.
func Latest(dir string) (string, error) {
	gens, err := Generations(dir)
	if err != nil || len(gens) == 0 {
		return "", err
	}
	return gens[0], nil
}

// Generations returns every checkpoint file in dir, newest first (the
// zero-padded superstep in the name makes lexical order chronological).
func Generations(dir string) ([]string, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "checkpoint-*.gob"))
	if err != nil {
		return nil, err
	}
	// Insertion sort descending; generation counts are tiny.
	for i := 1; i < len(matches); i++ {
		for j := i; j > 0 && matches[j] > matches[j-1]; j-- {
			matches[j], matches[j-1] = matches[j-1], matches[j]
		}
	}
	return matches, nil
}

// genSuperstep parses the superstep out of a generation filename, the
// inverse of Path. Reports false for names not produced by Path.
func genSuperstep(p string) (int, bool) {
	var s int
	if _, err := fmt.Sscanf(filepath.Base(p), "checkpoint-%d.gob", &s); err != nil {
		return 0, false
	}
	return s, true
}

// magic brands the checksummed generation format; bumping it invalidates
// old files loudly instead of feeding the gob decoder garbage. SGC2: fork
// state became flat edge bytes.
var magic = [4]byte{'S', 'G', 'C', '2'}

// Save writes the snapshot atomically and durably: gob-encode to a buffer,
// prefix a magic + CRC32 header, write a temp file, fsync it, rename into
// place, and fsync the directory so the rename itself survives a crash.
func Save[V, M any](path string, s *Snapshot[V, M]) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(s); err != nil {
		return fmt.Errorf("checkpoint: encode: %w", err)
	}
	payload := buf.Bytes()
	var hdr [8]byte
	copy(hdr[:4], magic[:])
	sum := crc32.ChecksumIEEE(payload)
	hdr[4] = byte(sum)
	hdr[5] = byte(sum >> 8)
	hdr[6] = byte(sum >> 16)
	hdr[7] = byte(sum >> 24)
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	if _, err := f.Write(hdr[:]); err == nil {
		_, err = f.Write(payload)
		if err == nil {
			err = f.Sync()
		}
	} else {
		err = fmt.Errorf("checkpoint: %w", err)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("checkpoint: %w", err)
	}
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}

// Load reads and verifies one generation written by Save. A bad magic,
// checksum mismatch, or decode failure returns an error — callers wanting
// automatic fallback to older generations should use LoadChain.
func Load[V, M any](path string) (*Snapshot[V, M], error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	if len(data) < 8 || !bytes.Equal(data[:4], magic[:]) {
		return nil, fmt.Errorf("checkpoint: %s: bad header", path)
	}
	want := uint32(data[4]) | uint32(data[5])<<8 | uint32(data[6])<<16 | uint32(data[7])<<24
	payload := data[8:]
	if got := crc32.ChecksumIEEE(payload); got != want {
		return nil, fmt.Errorf("checkpoint: %s: checksum mismatch (got %08x want %08x)", path, got, want)
	}
	var s Snapshot[V, M]
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&s); err != nil {
		return nil, fmt.Errorf("checkpoint: decode: %w", err)
	}
	if s.IsDelta() && len(s.DeltaIDs) != len(s.DeltaValues) {
		return nil, fmt.Errorf("checkpoint: %s: delta shape mismatch (%d ids, %d values)", path, len(s.DeltaIDs), len(s.DeltaValues))
	}
	return &s, nil
}

// LoadChain restores the newest usable state from dir: it walks
// generations newest-first, skipping any that fail verification (or whose
// delta chain is grounded on a corrupt base), materializes the first
// usable one into a full snapshot, and reports how many generations were
// skipped on the way. A (nil, skipped, nil) return means no usable
// generation exists.
func LoadChain[V, M any](dir string) (*Snapshot[V, M], int, error) {
	return LoadChainMax[V, M](dir, int(^uint(0)>>1))
}

// LoadChainMax is LoadChain restricted to generations at or below the
// given superstep. A recovering run passes the newest superstep it has
// itself checkpointed: generations beyond that are foreign — left in a
// reused directory by an earlier process — and restoring one would jump
// the run forward past supersteps it never executed. Foreign generations
// are ignored silently; only corrupt ones count as skipped.
func LoadChainMax[V, M any](dir string, max int) (*Snapshot[V, M], int, error) {
	gens, err := Generations(dir)
	if err != nil {
		return nil, 0, err
	}
	kept := gens[:0]
	for _, p := range gens {
		if s, ok := genSuperstep(p); ok && s > max {
			continue
		}
		kept = append(kept, p)
	}
	gens = kept
	loaded := make(map[string]*Snapshot[V, M]) // nil value = known corrupt
	load := func(p string) *Snapshot[V, M] {
		if s, ok := loaded[p]; ok {
			return s
		}
		s, err := Load[V, M](p)
		if err != nil {
			s = nil
		}
		loaded[p] = s
		return s
	}
	skipped := make(map[string]bool)
	for _, p := range gens {
		if skipped[p] {
			continue
		}
		head := load(p)
		if head == nil {
			skipped[p] = true
			continue
		}
		chain := []*Snapshot[V, M]{head}
		usable := true
		for chain[len(chain)-1].IsDelta() {
			bp := Path(dir, chain[len(chain)-1].Base)
			base := load(bp)
			if base == nil {
				skipped[bp] = true
				usable = false
				break
			}
			chain = append(chain, base)
		}
		if usable {
			if snap, ok := materialize(chain); ok {
				return snap, len(skipped), nil
			}
		}
		skipped[p] = true
	}
	return nil, len(skipped), nil
}

// Materialize loads one named generation and, if it is a delta, resolves
// its base chain from the same directory, returning a self-contained
// snapshot. Unlike LoadChain it targets a specific generation (the
// engine's RestoreFrom) and fails on any corruption instead of falling
// back.
func Materialize[V, M any](path string) (*Snapshot[V, M], error) {
	head, err := Load[V, M](path)
	if err != nil {
		return nil, err
	}
	dir := filepath.Dir(path)
	chain := []*Snapshot[V, M]{head}
	for chain[len(chain)-1].IsDelta() {
		base, err := Load[V, M](Path(dir, chain[len(chain)-1].Base))
		if err != nil {
			return nil, err
		}
		chain = append(chain, base)
	}
	snap, ok := materialize(chain)
	if !ok {
		return nil, fmt.Errorf("checkpoint: %s: inconsistent delta chain", path)
	}
	return snap, nil
}

// materialize flattens a chain [newest, ..., full base] into one full
// snapshot: base values first, then each delta's dirtied vertices applied
// oldest-to-newest. The newest generation supplies everything recorded
// wholesale. Returns false when the chain is structurally inconsistent
// (vertex-count mismatch, out-of-range delta IDs).
func materialize[V, M any](chain []*Snapshot[V, M]) (*Snapshot[V, M], bool) {
	base := chain[len(chain)-1]
	n := len(base.Values)
	values := make([]V, n)
	copy(values, base.Values)
	var versions []uint32
	if base.Versions != nil {
		versions = make([]uint32, len(base.Versions))
		copy(versions, base.Versions)
	}
	for i := len(chain) - 2; i >= 0; i-- {
		d := chain[i]
		if d.NumVertices != n {
			return nil, false
		}
		for j, id := range d.DeltaIDs {
			if int(id) < 0 || int(id) >= n {
				return nil, false
			}
			values[id] = d.DeltaValues[j]
			if versions != nil && j < len(d.DeltaVersions) {
				versions[id] = d.DeltaVersions[j]
			}
		}
	}
	head := chain[0]
	return &Snapshot[V, M]{
		Superstep:   head.Superstep,
		Base:        -1,
		NumVertices: n,
		Values:      values,
		Halted:      head.Halted,
		AggPrev:     head.AggPrev,
		Stores:      head.Stores,
		Forks:       head.Forks,
		Versions:    versions,
	}, true
}

package partition

// kind.go is the named-partitioner registry: one string-keyed
// constructor shared by every configuration surface (engine defaults,
// serialgraph.Options, graphrun -partitioner, dist wire jobs, the
// torture harness), so a coordinator and its worker processes derive
// bit-identical partition maps from the same (kind, seed) pair.

import (
	"fmt"

	"serialgraph/internal/graph"
)

// Partitioner kind names accepted by New.
const (
	KindHash   = "hash"
	KindRange  = "range"
	KindLDG    = "ldg"
	KindFennel = "fennel"
)

// Kinds lists the partitioner names New accepts, in a stable order.
func Kinds() []string {
	return []string{KindHash, KindRange, KindLDG, KindFennel}
}

// ValidKind reports whether name is a known partitioner kind. The empty
// string is valid and means the default (hash).
func ValidKind(name string) bool {
	if name == "" {
		return true
	}
	for _, k := range Kinds() {
		if k == name {
			return true
		}
	}
	return false
}

// New builds a partition map by kind name. The empty string selects the
// default (hash), keeping zero-valued configs bit-identical to the
// pre-registry behavior. The seed feeds hash placement and the
// streaming partitioners' tie-breaking; range ignores it.
func New(kind string, g *graph.Graph, p, w int, seed uint64) (*Map, error) {
	switch kind {
	case "", KindHash:
		return NewHash(g, p, w, seed), nil
	case KindRange:
		return NewRange(g, p, w), nil
	case KindLDG:
		return NewLDGOpts(g, p, w, StreamOptions{Seed: seed}), nil
	case KindFennel:
		return NewFennel(g, p, w, seed), nil
	}
	return nil, fmt.Errorf("partition: unknown partitioner %q (want one of %v)", kind, Kinds())
}

// Placer returns New's placement of kind under seed as a function of the
// graph and the partition and worker counts, the form engine.Config's
// Partitioner takes; it fails on an unknown kind.
func Placer(kind string, seed uint64) (func(g *graph.Graph, p, w int) *Map, error) {
	if !ValidKind(kind) {
		return nil, fmt.Errorf("partition: unknown partitioner %q (want one of %v)", kind, Kinds())
	}
	return func(g *graph.Graph, p, w int) *Map {
		m, _ := New(kind, g, p, w, seed) // kind is valid
		return m
	}, nil
}

package partition

import (
	"slices"
	"testing"

	"serialgraph/internal/graph"
)

// TestLayout checks the one layout every partitioner's map lays out: a
// worker's vertices are its partitions' vertices in ascending partition
// order, each partition is one contiguous run inside its worker's, and pos
// inverts order. The explicit map places partitions on workers out of
// round-robin order and leaves one worker and one partition empty.
func TestLayout(t *testing.T) {
	g := community(6, 9)
	n := g.NumVertices()
	vp := make([]ID, n)
	for v := range vp {
		vp[v] = ID((v * 7) % 5) // partition 5 stays empty
	}
	maps := map[string]*Map{
		"hash":     NewHash(g, 12, 4, 3),
		"range":    NewRange(g, 8, 3),
		"ldg":      NewLDG(g, 6, 2),
		"fennel":   NewFennel(g, 9, 3, 5),
		"explicit": NewExplicit(g, vp, []int32{2, 0, 2, 0, 0, 2}, 4),
	}
	for name, m := range maps {
		t.Run(name, func(t *testing.T) {
			if len(m.order) != n || len(m.pos) != n {
				t.Fatalf("layout has %d/%d entries, want %d", len(m.order), len(m.pos), n)
			}
			for i, v := range m.order {
				if m.pos[v] != int32(i) {
					t.Fatalf("pos[%d] = %d, want %d", v, m.pos[v], i)
				}
			}
			seen := 0
			for w := range m.W {
				var want []graph.VertexID
				base, end := m.Base(w), m.Base(w)+int32(len(m.Owned(w)))
				for _, p := range m.PartitionsOfWorker(w) {
					vs := m.Vertices(p)
					lo, hi := m.Span(p)
					if lo < base || hi > end || !slices.Equal(m.order[lo:hi], vs) {
						t.Errorf("worker %d partition %d: span [%d,%d) outside [%d,%d) or not its vertices", w, p, lo, hi, base, end)
					}
					if want != nil && lo != base+int32(len(want)) {
						t.Errorf("worker %d partition %d starts at %d, want %d", w, p, lo, base+int32(len(want)))
					}
					if !slices.IsSorted(vs) {
						t.Errorf("partition %d not ascending: %v", p, vs)
					}
					for _, v := range vs {
						if m.PartitionOf(v) != p || m.WorkerOf(v) != w {
							t.Errorf("vertex %d in partition %d of worker %d, map says %d/%d", v, p, w, m.PartitionOf(v), m.WorkerOf(v))
						}
					}
					want = append(want, vs...)
				}
				if got := m.Owned(w); !slices.Equal(got, want) {
					t.Errorf("Owned(%d) = %v, want %v", w, got, want)
				}
				if base != int32(seen) {
					t.Errorf("Base(%d) = %d, want %d", w, base, seen)
				}
				seen += len(want)
			}
			if seen != n {
				t.Errorf("workers own %d vertices, want %d", seen, n)
			}
		})
	}
}

// TestLayoutSlicesAreCapped: appending to a returned run must not write
// over the next one.
func TestLayoutSlicesAreCapped(t *testing.T) {
	m := NewHash(ring(40), 4, 2, 1)
	if s := m.Owned(0); cap(s) != len(s) {
		t.Errorf("Owned(0): cap %d > len %d", cap(s), len(s))
	}
	if s := m.Vertices(0); cap(s) != len(s) {
		t.Errorf("Vertices(0): cap %d > len %d", cap(s), len(s))
	}
}

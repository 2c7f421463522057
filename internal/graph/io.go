package graph

import (
	"bufio"
	"encoding/gob"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"
)

// ReadEdgeList parses a SNAP-style text edge list: one "src dst [weight]"
// per line, '#' comments and blank lines ignored. External IDs may be
// arbitrary non-negative integers; they are remapped to dense IDs in first-
// appearance order. The returned mapping gives dense -> external ID.
func ReadEdgeList(r io.Reader) (*Graph, []int64, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)

	remap := make(map[int64]VertexID)
	var ext []int64
	dense := func(id int64) VertexID {
		if v, ok := remap[id]; ok {
			return v
		}
		v := VertexID(len(ext))
		remap[id] = v
		ext = append(ext, id)
		return v
	}

	// The builder's vertex count is known only at the end; dense IDs are
	// in range by construction.
	var b Builder
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 2 {
			return nil, nil, fmt.Errorf("graph: line %d: want 'src dst [weight]', got %q", lineNo, line)
		}
		s, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return nil, nil, fmt.Errorf("graph: line %d: bad src: %v", lineNo, err)
		}
		d, err := strconv.ParseInt(f[1], 10, 64)
		if err != nil {
			return nil, nil, fmt.Errorf("graph: line %d: bad dst: %v", lineNo, err)
		}
		src, dst := dense(s), dense(d)
		if len(f) >= 3 {
			w, err := strconv.ParseFloat(f[2], 64)
			if err != nil {
				return nil, nil, fmt.Errorf("graph: line %d: bad weight: %v", lineNo, err)
			}
			b.add(src, dst, w, true)
		} else {
			b.add(src, dst, 1, false)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, nil, fmt.Errorf("graph: scan: %w", err)
	}
	b.n = int32(len(ext))
	return b.Build(), ext, nil
}

// WriteEdgeList writes the graph as a text edge list with dense IDs.
func WriteEdgeList(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	for u := VertexID(0); int(u) < g.NumVertices(); u++ {
		nb := g.OutNeighbors(u)
		ws := g.OutWeights(u)
		for i, v := range nb {
			var err error
			if ws != nil {
				_, err = fmt.Fprintf(bw, "%d %d %g\n", u, v, ws[i])
			} else {
				_, err = fmt.Fprintf(bw, "%d %d\n", u, v)
			}
			if err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// gobGraph is the on-disk representation for the binary format.
type gobGraph struct {
	N          int32
	OutOff     []int32
	OutDst     []VertexID
	OutW       []float64
	InOff      []int32
	InSrc      []VertexID
	Undirected bool
}

// WriteBinary writes the graph in a fast gob-encoded binary format.
func WriteBinary(w io.Writer, g *Graph) error {
	return gob.NewEncoder(w).Encode(gobGraph{
		N: g.n, OutOff: g.outOff, OutDst: g.outDst, OutW: g.outW,
		InOff: g.inOff, InSrc: g.inSrc, Undirected: g.undirected,
	})
}

// ReadBinary reads a graph written by WriteBinary, validating the CSR
// structure so that a corrupt or truncated file returns an error instead
// of a graph that panics later.
func ReadBinary(r io.Reader) (*Graph, error) {
	var gg gobGraph
	if err := gob.NewDecoder(r).Decode(&gg); err != nil {
		return nil, fmt.Errorf("graph: decode binary: %w", err)
	}
	if err := gg.validate(); err != nil {
		return nil, fmt.Errorf("graph: corrupt binary: %w", err)
	}
	g := &Graph{
		n: gg.N, outOff: gg.OutOff, outDst: gg.OutDst, outW: gg.OutW,
		inOff: gg.InOff, inSrc: gg.InSrc, undirected: gg.Undirected,
	}
	if g.undirected {
		g.inOff, g.inSrc = g.outOff, g.outDst
	}
	return g, nil
}

func (gg *gobGraph) validate() error {
	n := int(gg.N)
	if n < 0 {
		return fmt.Errorf("negative vertex count %d", n)
	}
	m := len(gg.OutDst)
	if len(gg.InSrc) != m {
		return fmt.Errorf("out/in edge counts differ: %d vs %d", m, len(gg.InSrc))
	}
	if gg.OutW != nil && len(gg.OutW) != m {
		return fmt.Errorf("weights length %d for %d edges", len(gg.OutW), m)
	}
	check := func(name string, off []int32, targets []VertexID) error {
		if len(off) != n+1 {
			return fmt.Errorf("%s offsets length %d, want %d", name, len(off), n+1)
		}
		if n >= 0 && len(off) > 0 {
			if off[0] != 0 || int(off[n]) != m {
				return fmt.Errorf("%s offsets endpoints [%d, %d], want [0, %d]", name, off[0], off[n], m)
			}
		}
		for i := 0; i < n; i++ {
			if off[i] > off[i+1] {
				return fmt.Errorf("%s offsets not monotone at %d", name, i)
			}
		}
		for _, t := range targets {
			if t < 0 || int(t) >= n {
				return fmt.Errorf("%s target %d out of range [0, %d)", name, t, n)
			}
		}
		for i := 0; i < n; i++ {
			if !slices.IsSorted(targets[off[i]:off[i+1]]) {
				return fmt.Errorf("%s list of vertex %d not ascending", name, i)
			}
		}
		return nil
	}
	if err := check("out", gg.OutOff, gg.OutDst); err != nil {
		return err
	}
	if err := check("in", gg.InOff, gg.InSrc); err != nil {
		return err
	}
	if gg.Undirected && (!slices.Equal(gg.InOff, gg.OutOff) || !slices.Equal(gg.InSrc, gg.OutDst)) {
		return fmt.Errorf("undirected graph's in-CSR differs from its out-CSR")
	}
	// The in-CSR must be the out-CSR's transpose. Both are ascending, so
	// walking the sources in order, each out-edge u->v must be the next
	// unread entry of v's in-list; the edge counts match, so that reads
	// every in-list to its end.
	pos := slices.Clone(gg.InOff[:n])
	for u := 0; u < n; u++ {
		for _, v := range gg.OutDst[gg.OutOff[u]:gg.OutOff[u+1]] {
			if pos[v] == gg.InOff[v+1] || gg.InSrc[pos[v]] != VertexID(u) {
				return fmt.Errorf("in-CSR is not the transpose of the out-CSR at edge %d->%d", u, v)
			}
			pos[v]++
		}
	}
	return nil
}

// LoadFile loads a graph from path, choosing the format by extension:
// ".bin" or ".gob" selects the binary format, anything else the text edge
// list. Text loading discards the external ID mapping.
func LoadFile(path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if strings.HasSuffix(path, ".bin") || strings.HasSuffix(path, ".gob") {
		return ReadBinary(f)
	}
	g, _, err := ReadEdgeList(f)
	return g, err
}

// SaveFile writes a graph to path, choosing the format by extension as in
// LoadFile.
func SaveFile(path string, g *Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if strings.HasSuffix(path, ".bin") || strings.HasSuffix(path, ".gob") {
		return WriteBinary(f, g)
	}
	return WriteEdgeList(f, g)
}

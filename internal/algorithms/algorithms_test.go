package algorithms

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"serialgraph/internal/generate"
	"serialgraph/internal/graph"
	"serialgraph/internal/model"
)

func TestSmallestFree(t *testing.T) {
	cases := []struct {
		used []int32
		want int32
	}{
		{nil, 0},
		{[]int32{0}, 1},
		{[]int32{1}, 0},
		{[]int32{0, 1, 2}, 3},
		{[]int32{0, 2}, 1},
		{[]int32{2, 0, 2, 0}, 1},
		{[]int32{NoColor, 0}, 1}, // uncolored neighbors don't conflict
		{[]int32{5}, 0},
	}
	for _, c := range cases {
		if got := smallestFree(c.used); got != c.want {
			t.Errorf("smallestFree(%v) = %d, want %d", c.used, got, c.want)
		}
	}
}

// mexRef is the map-based mex smallestFree replaced, kept as the
// reference it must agree with.
func mexRef(used []int32) int32 {
	seen := make(map[int32]struct{}, len(used))
	for _, c := range used {
		if c >= 0 {
			seen[c] = struct{}{}
		}
	}
	for c := int32(0); ; c++ {
		if _, taken := seen[c]; !taken {
			return c
		}
	}
}

func TestSmallestFreeProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		// Short lists, lists around the stack bitmap's 4 095 limit, and long
		// ones on the heap path.
		n := r.Intn(30)
		switch r.Intn(4) {
		case 0:
			n = 4090 + r.Intn(12)
		case 1:
			n = 4096 + r.Intn(5000)
		}
		used := make([]int32, n)
		for i := range used {
			switch k := r.Intn(10); {
			case k == 0:
				used[i] = NoColor
			case k == 1:
				used[i] = int32(n + r.Intn(100)) // above len(used): cannot matter
			case k < 4 && i > 0:
				used[i] = used[r.Intn(i)] // duplicate
			default:
				used[i] = int32(r.Intn(n + 2))
			}
		}
		// Fill a prefix densely now and then, so the answer can be large.
		if r.Intn(3) == 0 {
			for i := 0; i < n*9/10; i++ {
				used[i] = int32(i)
			}
			r.Shuffle(n, func(i, j int) { used[i], used[j] = used[j], used[i] })
		}
		return smallestFree(used) == mexRef(used)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestSmallestFreeNoAlloc pins the stack bitmap: the largest list it
// covers, a proper prefix 0..4094, allocates nothing.
func TestSmallestFreeNoAlloc(t *testing.T) {
	used := make([]int32, 4095)
	for i := range used {
		used[i] = int32(i)
	}
	var got int32
	if a := testing.AllocsPerRun(100, func() { got = smallestFree(used) }); a != 0 {
		t.Errorf("smallestFree over 4 095 colors allocates %v times, want 0", a)
	}
	if got != 4095 {
		t.Errorf("smallestFree(0..4094) = %d, want 4095", got)
	}
}

func TestValidateColoring(t *testing.T) {
	b := graph.NewBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	g := b.BuildUndirected()
	if err := ValidateColoring(g, []int32{0, 1, 0}); err != nil {
		t.Errorf("valid coloring rejected: %v", err)
	}
	if err := ValidateColoring(g, []int32{0, 0, 1}); err == nil {
		t.Error("conflicting coloring accepted")
	}
	if err := ValidateColoring(g, []int32{0, NoColor, 1}); err == nil {
		t.Error("incomplete coloring accepted")
	}
	if err := ValidateColoring(g, []int32{0, 1}); err == nil {
		t.Error("wrong-length coloring accepted")
	}
}

func TestColorsUsed(t *testing.T) {
	if got := ColorsUsed([]int32{0, 1, 0, 2, NoColor}); got != 3 {
		t.Errorf("ColorsUsed = %d, want 3", got)
	}
}

func TestShortestPathsOnKnownGraph(t *testing.T) {
	// 0 -> 1 -> 2 -> 3 with a shortcut 0 -> 3 of weight 5 (longer).
	b := graph.NewBuilder(5)
	b.AddWeightedEdge(0, 1, 1)
	b.AddWeightedEdge(1, 2, 1)
	b.AddWeightedEdge(2, 3, 1)
	b.AddWeightedEdge(0, 3, 5)
	g := b.Build()
	d := ShortestPaths(g, 0)
	want := []float64{0, 1, 2, 3, Infinity}
	for v := range want {
		if d[v] != want[v] {
			t.Errorf("d[%d] = %v, want %v", v, d[v], want[v])
		}
	}
}

func TestComponentsOnKnownGraph(t *testing.T) {
	b := graph.NewBuilder(6)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(4, 3) // second component {3,4}; vertex 5 isolated
	g := b.Build()
	c := Components(g)
	want := []int32{0, 0, 0, 3, 3, 5}
	for v := range want {
		if c[v] != want[v] {
			t.Errorf("c[%d] = %d, want %d", v, c[v], want[v])
		}
	}
}

func TestPageRankReferenceAndResidual(t *testing.T) {
	g := generate.PowerLaw(generate.PowerLawConfig{N: 200, AvgDegree: 5, Exponent: 2.2, Seed: 4})
	pr := PageRankReference(g, 100)
	if r := PageRankResidual(g, pr); r > 1e-6 {
		t.Errorf("reference residual %.2e not converged", r)
	}
	sum := 0.0
	for _, x := range pr {
		sum += x
	}
	if math.IsNaN(sum) || sum <= 0 {
		t.Errorf("bad rank sum %v", sum)
	}
}

// gatherAll folds p's gathers over in-neighbours with the given values
// as the GAS engine does — from the first contribution, or with Reset from
// the emptied spare, which it then replaces — and applies the result to an
// unknown vertex.
func gatherAll(p model.GASProgram[int32, []int32], vals []int32, spare *[]int32) (acc []int32, v int32) {
	folding := p.Reset != nil
	if folding {
		acc = p.Reset(*spare)
	}
	for i, x := range vals {
		m := p.Gather(0, graph.VertexID(i+1), x, 1)
		if i > 0 || folding {
			acc = p.Sum(acc, m)
		} else {
			acc = m
		}
	}
	v, _ = p.Apply(0, p.Init(0, nil), acc, len(vals) > 0)
	if folding {
		*spare = acc
	}
	return acc, v
}

// TestColoringGASAllocs: a colouring gather allocates at most its
// accumulator — one allocation for 64 coloured in-neighbours, where a
// slice per neighbour and Sum's regrowth cost ≈ 70 — and nothing once it
// restarts from the previous one; a greedy MIS gather allocates nothing.
// Both still gather what they did.
func TestColoringGASAllocs(t *testing.T) {
	cg, mg := ColoringGAS(), MISGreedyGAS()
	colors := make([]int32, 64)
	for i := range colors {
		colors[i] = int32(i * 7 % 64) // every colour below 64 once
	}
	if n := testing.AllocsPerRun(100, func() {
		var fresh []int32
		gatherAll(cg, colors, &fresh)
	}); n > 1 {
		t.Errorf("gathering 64 coloured in-neighbours allocates %v objects, want at most 1", n)
	}
	var spare []int32
	if n := testing.AllocsPerRun(100, func() { gatherAll(cg, colors, &spare) }); n != 0 {
		t.Errorf("gathering into the previous accumulator allocates %v objects, want 0", n)
	}
	if acc, v := gatherAll(cg, colors, &spare); !reflect.DeepEqual(acc, colors) || v != 64 {
		t.Errorf("gathered %v and picked %d, want %v and 64", acc, v, colors)
	}
	// Uncoloured neighbours contribute nothing; colours past the table and
	// past the accumulator's first capacity still gather in order, fresh
	// or into a spare.
	var mixed, want []int32
	for i := 0; i < 300; i++ {
		c := int32(i * 11 % 2000)
		if i%3 == 0 {
			c = NoColor
		} else {
			want = append(want, c)
		}
		mixed = append(mixed, c)
	}
	for range 2 {
		if acc, _ := gatherAll(cg, mixed, &spare); !reflect.DeepEqual(acc, want) {
			t.Errorf("gathered %v, want %v", acc, want)
		}
	}
	if acc, v := gatherAll(cg, []int32{NoColor, 0, NoColor}, &spare); !reflect.DeepEqual(acc, []int32{0}) || v != 1 {
		t.Errorf("gathered %v and picked %d, want [0] and 1", acc, v)
	}
	in := []int32{MISOut, MISUnknown, MISIn, MISOut, MISIn}
	if n := testing.AllocsPerRun(100, func() { gatherAll(mg, in, nil) }); n != 0 {
		t.Errorf("greedy MIS gather allocates %v objects, want 0", n)
	}
	if _, v := gatherAll(mg, in, nil); v != MISOut {
		t.Errorf("vertex with an In neighbour became %d, want Out", v)
	}
	if _, v := gatherAll(mg, []int32{MISOut, MISUnknown}, nil); v != MISIn {
		t.Errorf("vertex without an In neighbour became %d, want In", v)
	}
}

func TestGASProgramShapes(t *testing.T) {
	g := generate.Ring(4)
	// ColoringGAS gathers only colored neighbors.
	cg := ColoringGAS()
	if got := cg.Gather(0, 1, NoColor, 1); got != nil {
		t.Errorf("gather of uncolored = %v", got)
	}
	if got := cg.Gather(0, 1, 3, 1); len(got) != 1 || got[0] != 3 {
		t.Errorf("gather of color 3 = %v", got)
	}
	v, act := cg.Apply(0, NoColor, []int32{0, 1}, true)
	if v != 2 || !act {
		t.Errorf("apply = %d,%v want 2,true", v, act)
	}
	// Keeping a non-conflicting color must not activate.
	v, act = cg.Apply(0, 5, []int32{0, 1}, true)
	if v != 5 || act {
		t.Errorf("apply kept = %d,%v want 5,false", v, act)
	}

	// SSSPGAS improves and scatters.
	sg := SSSPGAS(0)
	if d, act := sg.Apply(1, Infinity, 3, true); d != 3 || !act {
		t.Errorf("sssp apply = %v,%v", d, act)
	}
	if d, act := sg.Apply(1, 2, 3, true); d != 2 || act {
		t.Errorf("sssp no-improve = %v,%v", d, act)
	}

	// PageRankGAS uses out-degrees from the closed-over graph.
	pg := PageRankGAS(g, 0.01)
	if got := pg.Gather(0, 3, 2.0, 1); got != 2.0 {
		t.Errorf("pr gather = %v, want 2.0 (ring degree 1)", got)
	}

	// WCCGAS keeps minima.
	wg := WCCGAS()
	if v, act := wg.Apply(5, 5, 2, true); v != 2 || !act {
		t.Errorf("wcc apply = %v,%v", v, act)
	}
	if v, act := wg.Apply(5, 1, 2, true); v != 1 || act {
		t.Errorf("wcc keep = %v,%v", v, act)
	}
}

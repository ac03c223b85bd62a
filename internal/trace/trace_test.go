package trace

import (
	"testing"
	"testing/quick"

	"dstore/internal/memsys"
	"dstore/internal/sim"
)

func TestSequentialLinesCoverage(t *testing.T) {
	lines := SequentialLines(0x1000, 1000) // 1000B from aligned base: 8 lines
	if len(lines) != 8 {
		t.Fatalf("got %d lines, want 8", len(lines))
	}
	for i, a := range lines {
		if a != memsys.Addr(0x1000)+memsys.Addr(i)*memsys.LineSize {
			t.Fatalf("line %d = %#x", i, uint64(a))
		}
	}
}

func TestSequentialLinesUnalignedBase(t *testing.T) {
	lines := SequentialLines(0x1010, memsys.LineSize) // straddles 2 lines
	if len(lines) != 2 || lines[0] != 0x1000 {
		t.Errorf("unaligned coverage wrong: %v", lines)
	}
}

func TestStridedLinesVisitsAllOnce(t *testing.T) {
	lines := StridedLines(0, 10*memsys.LineSize, 3)
	if len(lines) != 10 {
		t.Fatalf("got %d lines, want 10", len(lines))
	}
	seen := map[memsys.Addr]bool{}
	for _, a := range lines {
		if seen[a] {
			t.Fatalf("line %#x visited twice", uint64(a))
		}
		seen[a] = true
	}
	// First pass strides by 3 lines.
	if lines[1]-lines[0] != 3*memsys.LineSize {
		t.Error("stride not honoured")
	}
}

func TestStridedPanicsOnBadStride(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero stride did not panic")
		}
	}()
	StridedLines(0, 1024, 0)
}

func TestTiledLinesCoalescesWithinLine(t *testing.T) {
	// 4x4 matrix of 4B elements = 64B: single line, visited once.
	lines := TiledLines(0, 4, 4, 4, 2, 2)
	if len(lines) != 1 {
		t.Errorf("tiny matrix produced %d line touches, want 1", len(lines))
	}
}

func TestTiledLinesTouchesWholeMatrix(t *testing.T) {
	// 64x64 of 4B = 16KB = 128 lines; every line must appear.
	lines := TiledLines(0, 64, 64, 4, 16, 16)
	seen := map[memsys.Addr]bool{}
	for _, a := range lines {
		seen[a] = true
	}
	if len(seen) != 128 {
		t.Errorf("tiled walk covered %d distinct lines, want 128", len(seen))
	}
}

// tiledLines is TiledLines grown by append, the reference for the
// counted, allocated-once walk.
func tiledLines(base memsys.Addr, rows, cols, elemSize, tileRows, tileCols int) []memsys.Addr {
	var out []memsys.Addr
	for tr := 0; tr < rows; tr += tileRows {
		for tc := 0; tc < cols; tc += tileCols {
			for r := tr; r < tr+tileRows && r < rows; r++ {
				for c := tc; c < tc+tileCols && c < cols; c++ {
					a := memsys.LineAlign(base + memsys.Addr((r*cols+c)*elemSize))
					if n := len(out); n == 0 || out[n-1] != a {
						out = append(out, a)
					}
				}
			}
		}
	}
	return out
}

// TestTiledLinesSizedOnce: the walk is allocated at its exact length
// and unchanged on uneven geometries — rows and columns that are not
// multiples of the tile, elements of 48 bytes that straddle lines, and
// elements as large as a line or larger, which skip lines.
func TestTiledLinesSizedOnce(t *testing.T) {
	for _, c := range []struct {
		base                                 memsys.Addr
		rows, cols, elem, tileRows, tileCols int
	}{
		{0, 64, 64, 4, 16, 16},
		{0, 37, 53, 4, 16, 16},
		{0x1010, 37, 53, 4, 16, 16},
		{0, 5, 7, 48, 2, 3},
		{0, 17, 9, int(memsys.LineSize), 4, 4},
		{0x40, 10, 13, 100, 3, 5},
		{0, 3, 3, 2 * int(memsys.LineSize), 16, 16},
		{0, 1, 1, 4, 16, 16},
		{0, 1272, 1272, 4, 16, 16}, // MM big
	} {
		got := TiledLines(c.base, c.rows, c.cols, c.elem, c.tileRows, c.tileCols)
		want := tiledLines(c.base, c.rows, c.cols, c.elem, c.tileRows, c.tileCols)
		if len(got) != cap(got) {
			t.Errorf("%+v: len %d != cap %d", c, len(got), cap(got))
		}
		if len(got) != len(want) {
			t.Fatalf("%+v: %d lines, want %d", c, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%+v: line %d = %#x, want %#x", c, i, uint64(got[i]), uint64(want[i]))
			}
		}
	}
}

func TestRandomLinesInRegion(t *testing.T) {
	rng := sim.NewRand(1)
	base := memsys.Addr(0x4000)
	lines := RandomLines(base, 64*memsys.LineSize, 1000, rng)
	if len(lines) != 1000 {
		t.Fatal("count wrong")
	}
	for _, a := range lines {
		if a < base || a >= base+64*memsys.LineSize {
			t.Fatalf("line %#x outside region", uint64(a))
		}
		if memsys.LineOffset(a) != 0 {
			t.Fatal("unaligned line")
		}
	}
}

func TestRandomLinesDeterministic(t *testing.T) {
	a := RandomLines(0, 1<<20, 100, sim.NewRand(7))
	b := RandomLines(0, 1<<20, 100, sim.NewRand(7))
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed diverged")
		}
	}
}

func TestGraphShape(t *testing.T) {
	g := NewGraph(100, 8, 0x10000, 0x20000, sim.NewRand(3))
	if g.Nodes != 100 {
		t.Fatal("node count wrong")
	}
	if g.Edges() <= 0 {
		t.Fatal("no edges")
	}
	var total int64
	for i := 0; i < g.Nodes; i++ {
		adj := g.neighbours(i)
		if len(adj) == 0 {
			t.Fatal("zero-degree node")
		}
		total += int64(len(adj))
		for _, nb := range adj {
			if nb < 0 || int(nb) >= g.Nodes {
				t.Fatalf("neighbour %d out of range", nb)
			}
		}
	}
	if total != g.Edges() {
		t.Errorf("edge sum %d != Edges() %d", total, g.Edges())
	}
}

func TestGraphDeterministic(t *testing.T) {
	a := NewGraph(50, 4, 0, 0x10000, sim.NewRand(9))
	b := NewGraph(50, 4, 0, 0x10000, sim.NewRand(9))
	if a.Edges() != b.Edges() {
		t.Fatal("same-seed graphs differ")
	}
}

// traverseLines is the graph walk with every touch written out: for
// each node, its CSR row followed by each neighbour's node data.
// WalkLines must equal dedup(traverseLines(g)).
func traverseLines(g *Graph) []memsys.Addr {
	var out []memsys.Addr
	for i := 0; i < g.Nodes; i++ {
		out = append(out, g.EdgeAddr(g.edgeOffsets[i]))
		for _, nb := range g.neighbours(i) {
			out = append(out, g.NodeAddr(int(nb)))
		}
	}
	return out
}

// dedup returns lines with consecutive duplicates collapsed.
func dedup(lines []memsys.Addr) []memsys.Addr {
	var out []memsys.Addr
	for i, a := range lines {
		if i == 0 || a != lines[i-1] {
			out = append(out, a)
		}
	}
	return out
}

// newGraphAdj is NewGraph's construction with one slice per node: the
// flat adjacency must hold the same neighbours after the same draws.
func newGraphAdj(nodes, avgDegree int, rng *sim.Rand) [][]int32 {
	adj := make([][]int32, nodes)
	for i := range adj {
		deg := 1 + rng.Intn(avgDegree)
		if rng.Bool(0.05) {
			deg += avgDegree * 3
		}
		adj[i] = make([]int32, deg)
		for j := range adj[i] {
			adj[i][j] = int32(rng.Intn(nodes))
		}
	}
	return adj
}

func TestGraphTraverseLines(t *testing.T) {
	g := NewGraph(20, 3, 0x10000, 0x20000, sim.NewRand(5))
	lines := traverseLines(g)
	// One CSR-row touch per node plus one per edge.
	want := int64(g.Nodes) + g.Edges()
	if int64(len(lines)) != want {
		t.Errorf("traversal touched %d lines, want %d", len(lines), want)
	}
	if walk := g.WalkLines(); int64(cap(walk)) != want {
		t.Errorf("WalkLines allocated %d lines, want the bound %d", cap(walk), want)
	}
}

// TestGraphMatchesPerNodeConstruction: the flat adjacency holds the
// neighbours a slice per node would, after the same draws in the same
// order, and the fused walk equals the written-out traversal with its
// consecutive repeats collapsed. The 16-node graph keeps all node data
// in one line, so nearly every touch repeats; the degree-24 graph has
// hubs of degree 73 and more.
func TestGraphMatchesPerNodeConstruction(t *testing.T) {
	for _, c := range []struct {
		nodes, deg int
		seed       uint64
	}{
		{1, 1, 1}, {16, 4, 2}, {20, 3, 5}, {100, 8, 3}, {300, 24, 11},
		{4096, 6, 0xbadc0de ^ 4096}, {32768, 6, 0xbadc0de ^ 32768},
	} {
		rng, ref := sim.NewRand(c.seed), sim.NewRand(c.seed)
		g := NewGraph(c.nodes, c.deg, 0x10000, 0x400000, rng)
		adj := newGraphAdj(c.nodes, c.deg, ref)
		if rng.State() != ref.State() {
			t.Fatalf("%+v: NewGraph left the rng at %#x, per-node construction at %#x", c, rng.State(), ref.State())
		}
		hubs := 0
		for i := range adj {
			got := g.neighbours(i)
			if len(got) != len(adj[i]) {
				t.Fatalf("%+v: node %d has %d neighbours, want %d", c, i, len(got), len(adj[i]))
			}
			for j := range got {
				if got[j] != adj[i][j] {
					t.Fatalf("%+v: node %d neighbour %d = %d, want %d", c, i, j, got[j], adj[i][j])
				}
			}
			if len(got) > 3*c.deg {
				hubs++
			}
		}
		if c.deg == 24 && hubs == 0 {
			t.Fatalf("%+v: no hub nodes", c)
		}
		want := dedup(traverseLines(g))
		got := g.WalkLines()
		if len(got) != len(want) {
			t.Fatalf("%+v: walk has %d lines, want %d", c, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%+v: walk line %d = %#x, want %#x", c, i, uint64(got[i]), uint64(want[i]))
			}
		}
	}
}

func TestDedup(t *testing.T) {
	in := []memsys.Addr{0, 0, 128, 128, 128, 0, 256}
	out := dedup(in)
	want := []memsys.Addr{0, 128, 0, 256}
	if len(out) != len(want) {
		t.Fatalf("dedup %v", out)
	}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("dedup %v, want %v", out, want)
		}
	}
	if dedup(nil) != nil {
		t.Error("dedup of nil not nil")
	}
}

func TestChunkPartition(t *testing.T) {
	lines := SequentialLines(0, 10*memsys.LineSize)
	chunks := Chunk(lines, 3)
	if len(chunks) != 3 {
		t.Fatal("chunk count wrong")
	}
	var total int
	for _, c := range chunks {
		total += len(c)
	}
	if total != 10 {
		t.Errorf("chunks lost lines: %d", total)
	}
}

func TestChunkMoreChunksThanLines(t *testing.T) {
	chunks := Chunk(SequentialLines(0, 2*memsys.LineSize), 5)
	var total int
	for _, c := range chunks {
		total += len(c)
	}
	if total != 2 {
		t.Errorf("over-chunking lost lines: %d", total)
	}
}

// Property: strided visits exactly the sequential set, in a different
// order.
func TestPropertyStridedIsPermutation(t *testing.T) {
	f := func(nRaw, strideRaw uint8) bool {
		n := int(nRaw%100) + 1
		stride := int(strideRaw%10) + 1
		seq := SequentialLines(0, uint64(n)*memsys.LineSize)
		str := StridedLines(0, uint64(n)*memsys.LineSize, stride)
		if len(seq) != len(str) {
			return false
		}
		seen := map[memsys.Addr]int{}
		for _, a := range str {
			seen[a]++
		}
		for _, a := range seq {
			if seen[a] != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: chunking conserves order and content.
func TestPropertyChunkConserves(t *testing.T) {
	f := func(nRaw, kRaw uint8) bool {
		n := int(nRaw % 200)
		k := int(kRaw%8) + 1
		lines := SequentialLines(0, uint64(n)*memsys.LineSize)
		var flat []memsys.Addr
		for _, c := range Chunk(lines, k) {
			flat = append(flat, c...)
		}
		if len(flat) != len(lines) {
			return false
		}
		for i := range flat {
			if flat[i] != lines[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

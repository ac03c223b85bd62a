// Package trace generates line-granular memory access patterns: the
// building blocks the benchmark models (internal/bench) compose into
// CPU op streams and GPU kernels. Patterns are deterministic for a
// given seed — experiment reproducibility end to end.
package trace

import (
	"fmt"

	"dstore/internal/memsys"
	"dstore/internal/sim"
)

// SequentialLines returns every line address covering [base, base+bytes),
// in ascending order — the streaming produce/consume pattern.
func SequentialLines(base memsys.Addr, bytes uint64) []memsys.Addr {
	return AppendSequentialLines(make([]memsys.Addr, 0, memsys.LinesCovering(base, bytes)), base, bytes)
}

// AppendSequentialLines appends SequentialLines(base, bytes) to out, so
// a pass over several regions can fill one slice sized for all of them.
func AppendSequentialLines(out []memsys.Addr, base memsys.Addr, bytes uint64) []memsys.Addr {
	a := memsys.LineAlign(base)
	for n := memsys.LinesCovering(base, bytes); n > 0; n-- {
		out = append(out, a)
		a += memsys.LineSize
	}
	return out
}

// StridedLines returns lines covering the region visited with a stride
// of strideLines, wrapping through all residues so every line is
// visited exactly once (a column-major sweep).
func StridedLines(base memsys.Addr, bytes uint64, strideLines int) []memsys.Addr {
	if strideLines <= 0 {
		panic(fmt.Sprintf("trace: non-positive stride %d", strideLines))
	}
	n := int(memsys.LinesCovering(base, bytes))
	start := memsys.LineAlign(base)
	out := make([]memsys.Addr, 0, n)
	for off := 0; off < strideLines; off++ {
		for i := off; i < n; i += strideLines {
			out = append(out, start+memsys.Addr(i)*memsys.LineSize)
		}
	}
	return out
}

// TiledLines returns the line sequence of a tiled 2D walk over a
// rows×cols matrix of elemSize-byte elements: tiles of tileRows×tileCols
// elements are visited left-to-right, top-to-bottom, row-major inside
// each tile — the matmul/LU blocking pattern. The walk runs twice, once
// to count the lines and once to write them, so the result is
// allocated once at its exact length.
func TiledLines(base memsys.Addr, rows, cols, elemSize, tileRows, tileCols int) []memsys.Addr {
	if rows <= 0 || cols <= 0 || elemSize <= 0 || tileRows <= 0 || tileCols <= 0 {
		panic("trace: non-positive tiling geometry")
	}
	out := make([]memsys.Addr, tiledWalk(nil, base, rows, cols, elemSize, tileRows, tileCols))
	tiledWalk(out, base, rows, cols, elemSize, tileRows, tileCols)
	return out
}

// tiledWalk visits TiledLines' lines in order, coalescing consecutive
// touches of one line, and returns their number. A nil out only counts
// them; otherwise out receives them. It steps by line, not by element:
// elements narrower than a line touch every line of their row segment,
// and each element at least a line wide touches a line of its own.
func tiledWalk(out []memsys.Addr, base memsys.Addr, rows, cols, elemSize, tileRows, tileCols int) int {
	n := 0
	var last memsys.Addr
	emit := func(a memsys.Addr) {
		if n > 0 && a == last {
			return
		}
		if out != nil {
			out[n] = a
		}
		n++
		last = a
	}
	for tr := 0; tr < rows; tr += tileRows {
		for tc := 0; tc < cols; tc += tileCols {
			width := min(tileCols, cols-tc)
			for r := tr; r < tr+tileRows && r < rows; r++ {
				first := base + memsys.Addr((r*cols+tc)*elemSize)
				if elemSize < memsys.LineSize {
					end := memsys.LineAlign(first + memsys.Addr((width-1)*elemSize))
					for a := memsys.LineAlign(first); a <= end; a += memsys.LineSize {
						emit(a)
					}
					continue
				}
				for c := 0; c < width; c++ {
					emit(memsys.LineAlign(first + memsys.Addr(c*elemSize)))
				}
			}
		}
	}
	return n
}

// RandomLines returns count uniform-random line addresses within the
// region (with repetition) — the irregular pointer-chasing flavour.
func RandomLines(base memsys.Addr, bytes uint64, count int, rng *sim.Rand) []memsys.Addr {
	if count < 0 {
		panic("trace: negative count")
	}
	n := memsys.LinesCovering(base, bytes)
	if n == 0 {
		panic("trace: empty region")
	}
	start := memsys.LineAlign(base)
	out := make([]memsys.Addr, count)
	for i := range out {
		out[i] = start + memsys.Addr(rng.Uint64n(n))*memsys.LineSize
	}
	return out
}

// Graph is a synthetic CSR graph over a base region: node data lives at
// NodeBase, edge/neighbour data at EdgeBase. Pannotia-style irregular
// workloads traverse it.
type Graph struct {
	Nodes    int
	NodeBase memsys.Addr
	EdgeBase memsys.Addr
	// adj holds every node's neighbour indices back to back; node i's
	// are adj[edgeOffsets[i]:edgeOffsets[i+1]].
	adj []int32
	// edgeOffsets[i] is node i's first edge slot (prefix sums of
	// degree).
	edgeOffsets []int64
}

// NewGraph builds a power-law-flavoured random graph: node degrees are
// skewed (a few hubs, many leaves), matching the Pannotia inputs'
// irregularity. Deterministic per seed.
func NewGraph(nodes, avgDegree int, nodeBase, edgeBase memsys.Addr, rng *sim.Rand) *Graph {
	if nodes <= 0 || avgDegree <= 0 {
		panic("trace: non-positive graph geometry")
	}
	g := &Graph{Nodes: nodes, NodeBase: nodeBase, EdgeBase: edgeBase}
	// The mean degree is (avgDegree+1)/2 plus 0.05 × 3·avgDegree for
	// hubs; about 10% above that leaves room for the spread, so the
	// adjacency is allocated once.
	g.adj = make([]int32, 0, nodes*(avgDegree+1)*7/10)
	g.edgeOffsets = make([]int64, nodes+1)
	for i := 0; i < nodes; i++ {
		// Skewed degree: most nodes near avg/2, a few near 4*avg.
		deg := 1 + rng.Intn(avgDegree)
		if rng.Bool(0.05) {
			deg += avgDegree * 3
		}
		g.edgeOffsets[i] = int64(len(g.adj))
		for j := 0; j < deg; j++ {
			g.adj = append(g.adj, int32(rng.Intn(nodes)))
		}
	}
	g.edgeOffsets[nodes] = int64(len(g.adj))
	return g
}

// Edges returns the total edge count.
func (g *Graph) Edges() int64 { return g.edgeOffsets[g.Nodes] }

// neighbours returns node i's neighbour indices. The slice aliases the
// graph and must not be modified.
func (g *Graph) neighbours(i int) []int32 {
	return g.adj[g.edgeOffsets[i]:g.edgeOffsets[i+1]]
}

// NodeAddr returns the line address of node i's data (4 bytes/node).
func (g *Graph) NodeAddr(i int) memsys.Addr {
	return memsys.LineAlign(g.NodeBase + memsys.Addr(i*4))
}

// EdgeAddr returns the line address of edge slot e (4 bytes/edge).
func (g *Graph) EdgeAddr(e int64) memsys.Addr {
	return memsys.LineAlign(g.EdgeBase + memsys.Addr(e*4))
}

// WalkLines returns the line sequence of one full traversal: for each
// node, its CSR row followed by each neighbour's node data — the
// scattered reads that make graph workloads cache-hostile. Consecutive
// touches of one line are collapsed, as intra-warp coalescing of a
// sorted access run would. The walk touches at most Nodes + Edges()
// lines, so the result is allocated once at that bound.
func (g *Graph) WalkLines() []memsys.Addr {
	out := make([]memsys.Addr, 0, g.Nodes+len(g.adj))
	emit := func(a memsys.Addr) {
		if n := len(out); n == 0 || out[n-1] != a {
			out = append(out, a)
		}
	}
	for i := 0; i < g.Nodes; i++ {
		emit(g.EdgeAddr(g.edgeOffsets[i]))
		for _, nb := range g.neighbours(i) {
			emit(g.NodeAddr(int(nb)))
		}
	}
	return out
}

// Chunk splits lines into n nearly equal contiguous chunks (for
// distributing work across warps). Chunks may be empty when n exceeds
// the line count.
func Chunk(lines []memsys.Addr, n int) [][]memsys.Addr {
	if n <= 0 {
		panic("trace: non-positive chunk count")
	}
	out := make([][]memsys.Addr, n)
	per := (len(lines) + n - 1) / n
	for i := 0; i < n; i++ {
		lo := i * per
		hi := lo + per
		if lo > len(lines) {
			lo = len(lines)
		}
		if hi > len(lines) {
			hi = len(lines)
		}
		out[i] = lines[lo:hi]
	}
	return out
}

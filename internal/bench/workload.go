package bench

import (
	"context"
	"fmt"
	"math"

	"dstore/internal/core"
	"dstore/internal/cpu"
	"dstore/internal/gpu"
	"dstore/internal/memsys"
	"dstore/internal/sim"
	"dstore/internal/trace"
)

// phase is one step of a workload: a GPU kernel or, when kernel is
// nil, a CPU pass that makes one access of type ty to each of lines,
// each after gap ticks of compute.
type phase struct {
	kernel *gpu.Kernel
	lines  []memsys.Addr
	ty     memsys.AccessType
	gap    sim.Tick
}

// Workload is a benchmark instantiated against a system's address
// space, ready to run.
type Workload struct {
	Code   string
	In     Input
	phases []phase
}

// Phases returns the number of phases; a whole run is [0, Phases()).
func (w *Workload) Phases() int { return len(w.phases) }

// autoWarps sizes the warp count to the work: enough to spread lines
// across SMs, bounded to keep small benchmarks from degenerating to one
// warp and big ones from exploding the scheduler.
func autoWarps(lines int) int {
	w := lines / 16
	if w < 8 {
		w = 8
	}
	if w > 96 {
		w = 96
	}
	return w
}

// Build instantiates benchmark code for the given input against sys,
// allocating its regions in the system's address space (heap in CCSM
// mode, the reserved direct-store arena otherwise — exactly what the
// translator's rewrite achieves).
func Build(sys *core.System, code string, in Input) (*Workload, error) {
	p, ok := find(code)
	if !ok {
		return nil, fmt.Errorf("bench: unknown benchmark %q", code)
	}
	w := &Workload{Code: code, In: in, phases: make([]phase, 0, p.kernels+2)}

	// Allocate regions and derive the read walk.
	var readLines []memsys.Addr // one pass over the input
	var produceLines []memsys.Addr
	if p.pattern == patGraph {
		nodes := p.graphNodes[in]
		rng := sim.NewRand(0xbadc0de ^ uint64(nodes))
		nodeBytes := uint64(nodes * 4)
		nodeBase, err := sys.AllocShared(nodeBytes, code+".nodes")
		if err != nil {
			return nil, err
		}
		// The edge region's size is known only once the graph exists.
		g := trace.NewGraph(nodes, p.graphDeg, nodeBase, 0, rng)
		edgeBytes := uint64(g.Edges() * 4)
		edgeBase, err := sys.AllocShared(edgeBytes, code+".edges")
		if err != nil {
			return nil, err
		}
		g.EdgeBase = edgeBase
		readLines = g.WalkLines()
		produceLines = graphProduceLines(nodeBase, nodeBytes, edgeBase, edgeBytes)
	} else {
		bytes := p.inBytes[in]
		base, err := sys.AllocShared(bytes, code+".in")
		if err != nil {
			return nil, err
		}
		produceLines = trace.SequentialLines(base, bytes)
		switch p.pattern {
		case patSequential:
			readLines = produceLines
		case patStrided:
			readLines = trace.StridedLines(base, bytes, p.strideLines)
		case patTiled:
			side := int(math.Sqrt(float64(bytes / 4)))
			if side < 1 {
				side = 1
			}
			readLines = trace.TiledLines(base, side, side, 4, 16, 16)
		}
	}

	var outLines []memsys.Addr
	if p.outBytes[in] > 0 {
		outBase, err := sys.AllocShared(p.outBytes[in], code+".out")
		if err != nil {
			return nil, err
		}
		outLines = trace.SequentialLines(outBase, p.outBytes[in])
	}

	// Phase 1: the CPU produces the input (or, for PT-style
	// benchmarks, the GPU initialises its own data).
	if p.cpuProduces {
		w.phases = append(w.phases, phase{lines: produceLines, ty: memsys.Store, gap: p.produceGap[in]})
	} else {
		init := buildInitKernel(p.code, produceLines)
		w.phases = append(w.phases, phase{kernel: &init})
	}

	// Kernel phases: every launch runs the same warps.
	warps := buildWarps(p, in, readLines, outLines)
	for k := 0; k < p.kernels; k++ {
		kern := gpu.Kernel{Name: fmt.Sprintf("%s.k%d", p.code, k), Warps: warps}
		w.phases = append(w.phases, phase{kernel: &kern})
	}

	// Readback phase: the CPU consumes a bounded sample of the results
	// (final row / score / residual). The memcpy-free benchmark
	// versions drop full-array host verification along with the copies
	// (§IV-B), so the CPU-side consumption is a summary, not a sweep.
	if p.readback {
		rb := outLines
		cap := 64
		if len(rb) == 0 {
			rb = produceLines
			cap = 16
		}
		if len(rb) > cap {
			rb = rb[len(rb)-cap:]
		}
		w.phases = append(w.phases, phase{lines: rb, ty: memsys.Load})
	}
	return w, nil
}

// graphProduceLines is a graph workload's produce pass: the node
// region's lines, then the edge region's, in one slice sized for both.
func graphProduceLines(nodeBase memsys.Addr, nodeBytes uint64, edgeBase memsys.Addr, edgeBytes uint64) []memsys.Addr {
	out := make([]memsys.Addr, 0, memsys.LinesCovering(nodeBase, nodeBytes)+memsys.LinesCovering(edgeBase, edgeBytes))
	out = trace.AppendSequentialLines(out, nodeBase, nodeBytes)
	return trace.AppendSequentialLines(out, edgeBase, edgeBytes)
}

// buildInitKernel writes every input line from the GPU (PT-style
// self-initialisation: the CPU never produces the data).
func buildInitKernel(code string, lines []memsys.Addr) gpu.Kernel {
	warps := autoWarps(len(lines))
	chunks := trace.Chunk(lines, warps)
	store := []gpu.WarpOp{{Kind: gpu.OpGlobalStore, Lines: 1}}
	ws := make([]gpu.Warp, len(chunks))
	loops := make([]gpu.Loop, len(chunks))
	for i, chunk := range chunks {
		loops[i] = gpu.Loop{Body: store, Addrs: chunk}
		ws[i] = gpu.Warp{Loops: loops[i : i+1 : i+1]}
	}
	return gpu.Kernel{Name: code + ".init", Warps: ws}
}

// buildWarps assembles the warps of one launch: every warp walks its
// chunk of the read sequence once per pass (rotating chunks across
// passes so reuse lands in the L2, not the flash-invalidated L1s),
// interleaving the profile's scratchpad staging and arithmetic, then
// performs its share of the writes. Each pass is one gpu.Loop over a
// chunk and the writes are one more; the per-line body is a single
// template shared by the whole kernel, so no warp's op stream is ever
// written out. Launches only read their warps, so every kernel of a
// workload shares one set.
func buildWarps(p profile, in Input, readLines, outLines []memsys.Addr) []gpu.Warp {
	passes := p.passes[in]
	warps := p.warps
	if warps == 0 {
		warps = autoWarps(len(readLines))
	}
	chunks := trace.Chunk(readLines, warps)
	outChunks := trace.Chunk(outLines, warps)
	sharedOps := p.sharedOpsPerLine[in]
	gap := p.computePerLine[in]

	// Per-read-line body: the load itself, one repeated scratchpad op
	// for the staging accesses, and the trailing compute gap.
	load := []gpu.WarpOp{{Kind: gpu.OpGlobalLoad, Lines: 1}}
	if p.stage && sharedOps > 0 {
		load = append(load, gpu.WarpOp{Kind: gpu.OpShared, Lines: sharedOps})
	}
	if gap > 0 {
		load = append(load, gpu.WarpOp{Kind: gpu.OpCompute, Gap: gap})
	}
	store := []gpu.WarpOp{{Kind: gpu.OpGlobalStore, Lines: 1}}

	ws := make([]gpu.Warp, warps)
	loops := make([]gpu.Loop, 0, warps*(passes+1))
	for wi := range ws {
		first := len(loops)
		for pass := 0; pass < passes; pass++ {
			loops = append(loops, gpu.Loop{Body: load, Addrs: chunks[(wi+pass)%warps]})
		}
		switch {
		case len(outLines) > 0:
			loops = append(loops, gpu.Loop{Body: store, Addrs: outChunks[wi]})
		case p.writeFrac > 0:
			// In-place updates over a slice of this warp's chunk.
			chunk := chunks[wi]
			loops = append(loops, gpu.Loop{Body: store, Addrs: chunk[:len(chunk)*p.writeFrac/256]})
		}
		ws[wi] = gpu.Warp{Loops: loops[first:len(loops):len(loops)]}
	}
	return ws
}

// RunPhaseRangeContext executes phases [lo, hi) in order, returning
// per-phase tick counts for the range. A whole run is [0, Phases()).
// A system restored from a snapshot taken after phase k continues with
// lo = k+1, and the resulting event sequence is byte-identical to a
// run that never stopped (phase boundaries are quiescent — the engine
// is fully drained — so no in-flight state spans them). Cancellation
// abandons the workload between or inside phases, returning the
// completed phases' ticks with ctx's error; a cancelled system is torn
// mid-transaction and must be discarded.
func (w *Workload) RunPhaseRangeContext(ctx context.Context, sys *core.System, lo, hi int) ([]sim.Tick, error) {
	var per []sim.Tick
	for _, ph := range w.phases[lo:hi] {
		if err := ctx.Err(); err != nil {
			return per, err
		}
		p0 := sys.Now()
		var err error
		if ph.kernel != nil {
			_, err = sys.RunKernelContext(ctx, *ph.kernel)
		} else {
			_, err = sys.RunStreamContext(ctx, &cpu.LineStream{Lines: ph.lines, Type: ph.ty, Gap: ph.gap})
		}
		if err != nil {
			return per, err
		}
		per = append(per, sys.Now()-p0)
	}
	return per, nil
}

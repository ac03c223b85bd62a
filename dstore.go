// Package dstore is a simulation-based reproduction of "A Simple Cache
// Coherence Scheme for Integrated CPU-GPU Systems" (Yudha, Pulungan,
// Hoffmann, Solihin — DAC 2020).
//
// The library provides:
//
//   - a discrete-event integrated CPU-GPU simulator with a MOESI-Hammer
//     coherence protocol (the paper's Table I platform),
//   - the paper's direct-store extension: kernel-referenced data homed
//     in the GPU L2, detected by high-order virtual-address compare in
//     the TLB and pushed over a dedicated network (§III),
//   - a source-to-source translator for a mini-CUDA dialect that
//     rewrites malloc/cudaMalloc of kernel-referenced variables into
//     fixed-address mmap in the reserved range (§III-C),
//   - the paper's 22-benchmark evaluation suite (Table II) and the
//     harness regenerating every table and figure (§IV).
//
// Quick start:
//
//	sys := dstore.NewSystem(dstore.DefaultConfig(dstore.DirectStore))
//	buf, _ := sys.AllocShared(64*1024, "data")
//	... run CPU produce ops, launch kernels, read stats ...
//
// or drive a whole paper benchmark:
//
//	cmp, _ := dstore.CompareBenchmark("NN", dstore.Small)
//	fmt.Printf("direct store speedup: %.1f%%\n", cmp.Speedup()*100)
package dstore

import (
	"dstore/internal/bench"
	"dstore/internal/core"
	"dstore/internal/cpu"
	"dstore/internal/gpu"
	"dstore/internal/memsys"
	"dstore/internal/sim"
	"dstore/internal/stats"
	"dstore/internal/translator"
)

// Mode selects the coherence regime for a simulated system.
type Mode = core.Mode

// Coherence modes.
const (
	// CCSM is the baseline cache-coherent shared memory (Hammer).
	CCSM = core.ModeCCSM
	// DirectStore adds the paper's push-based scheme on top of CCSM.
	DirectStore = core.ModeDirectStore
	// Standalone replaces CPU-GPU CCSM with direct store (§III-H).
	Standalone = core.ModeStandalone
)

// Config is the full-system configuration; DefaultConfig returns the
// paper's Table I values.
type Config = core.Config

// DefaultConfig returns the Table I system for the given mode.
func DefaultConfig(mode Mode) Config { return core.DefaultConfig(mode) }

// System is an assembled simulated machine.
type System = core.System

// NewSystem builds a machine from cfg.
func NewSystem(cfg Config) *System { return core.NewSystem(cfg) }

// Tick is the simulation time unit (one CPU cycle).
type Tick = sim.Tick

// Addr is a byte address in the simulated machine.
type Addr = memsys.Addr

// CPUOp is one CPU memory operation (see LoadOp/StoreOp).
type CPUOp = cpu.Op

// CPU operation types.
const (
	LoadOp  = memsys.Load
	StoreOp = memsys.Store
)

// GPU kernel-building vocabulary: a Kernel is a set of Warps, each a
// sequence of WarpOps.
type (
	// Kernel is a named collection of warps dispatched together.
	Kernel = gpu.Kernel
	// Warp is an ordered op sequence executed by one warp.
	Warp = gpu.Warp
	// WarpOp is one warp operation.
	WarpOp = gpu.WarpOp
)

// Warp operation kinds.
const (
	// OpCompute spends Gap ticks of arithmetic.
	OpCompute = gpu.OpCompute
	// OpShared is a scratchpad (shared-memory) access; Lines: n repeats
	// it n times back to back.
	OpShared = gpu.OpShared
	// OpGlobalLoad reads global memory lines; the warp blocks.
	OpGlobalLoad = gpu.OpGlobalLoad
	// OpGlobalStore writes global memory lines without blocking.
	OpGlobalStore = gpu.OpGlobalStore
	// OpBarrier synchronises every warp of a kernel (cooperative
	// launch: the kernel must fit within resident-warp capacity).
	OpBarrier = gpu.OpBarrier
)

// FenceOp returns a CPU op that drains the store buffer before the
// core proceeds — the producer-side ordering point before signalling a
// consumer.
func FenceOp() CPUOp { return CPUOp{Fence: true} }

// Input selects a Table II input size.
type Input = bench.Input

// Input sizes.
const (
	Small = bench.Small
	Big   = bench.Big
)

// BenchResult is one benchmark run's metrics.
type BenchResult = bench.Result

// BenchComparison pairs CCSM and direct-store runs of one benchmark.
type BenchComparison = bench.Comparison

// BenchmarkCodes returns the Table II benchmark codes in table order.
func BenchmarkCodes() []string { return bench.Codes() }

// RunBenchmark executes one Table II benchmark under the default
// configuration for the mode.
func RunBenchmark(code string, mode Mode, in Input) (BenchResult, error) {
	return bench.Run(code, mode, in)
}

// CompareBenchmark runs one benchmark under CCSM and direct store.
func CompareBenchmark(code string, in Input) (BenchComparison, error) {
	return bench.Compare(code, in)
}

// RunAllBenchmarks compares every Table II benchmark for one input
// size (the full Fig. 4 / Fig. 5 data set). Every benchmark is
// attempted; failures are aggregated into a *bench.SweepError rather
// than aborting the sweep.
func RunAllBenchmarks(in Input) ([]BenchComparison, error) {
	return bench.RunAll(in)
}

// SweepOptions configures a parallel benchmark sweep.
type SweepOptions = bench.SweepOptions

// RunAllBenchmarksParallel is RunAllBenchmarks with opt.Workers
// concurrent runs. Each run owns its own simulated system, so the
// results are identical to the sequential sweep, in the same order.
func RunAllBenchmarksParallel(in Input, opt SweepOptions) ([]BenchComparison, error) {
	return bench.RunAllParallel(in, opt)
}

// GeomeanSpeedup is the rightmost bar of Fig. 4: the geometric mean of
// the non-zero speedups.
func GeomeanSpeedup(cs []BenchComparison) float64 { return bench.GeomeanSpeedup(cs) }

// GeomeanMissRates is the rightmost pair of Fig. 5.
func GeomeanMissRates(cs []BenchComparison) (ccsm, ds float64) {
	return bench.GeomeanMissRates(cs)
}

// Table renders fixed-width experiment tables.
type Table = stats.Table

// Table1 renders the paper's system-configuration table.
func Table1() *Table { return core.DefaultConfig(CCSM).Table1() }

// Table2 renders the paper's benchmark table.
func Table2() *Table { return bench.Table2() }

// Fig4Table renders the Fig. 4 speedup series.
func Fig4Table(in Input, cs []BenchComparison) *Table { return bench.Fig4Table(in, cs) }

// Fig5Table renders the Fig. 5 miss-rate series.
func Fig5Table(in Input, cs []BenchComparison) *Table { return bench.Fig5Table(in, cs) }

// Translator API (§III-C).
type (
	// TranslateOptions configures a translation.
	TranslateOptions = translator.Options
	// Translation is a completed source-to-source rewrite.
	Translation = translator.Translation
)

// Translate rewrites a mini-CUDA program's kernel-referenced
// allocations into fixed-address mmap calls in the reserved
// direct-store range.
func Translate(files map[string]string, opts TranslateOptions) (*Translation, error) {
	return translator.Translate(files, opts)
}

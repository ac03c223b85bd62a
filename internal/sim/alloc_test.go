package sim

import (
	"runtime"
	"testing"
)

// TestRunDrainSteadyStateAllocs pins the engine's zero-allocation
// steady state: after one fill-drain cycle has grown the node arena
// and FIFO to the working-set size, further cycles — the shape of
// every subsequent kernel wavefront in a run — must not allocate at
// all. A regression here (a forgotten freelist release, an event
// container that reallocates per tick) multiplies across the hundreds
// of millions of events in a figure sweep.
func TestRunDrainSteadyStateAllocs(t *testing.T) {
	fn := func() {}
	cycle := func(e *Engine) {
		for j := 0; j < 4096; j++ {
			e.Schedule(Tick(j%251), fn)
		}
		e.Run()
	}
	e := NewEngine()
	cycle(e) // grow arena, FIFO and wheel to working-set size
	if allocs := testing.AllocsPerRun(10, func() { cycle(e) }); allocs != 0 {
		t.Fatalf("steady-state fill-drain cycle allocates %.1f times, want 0", allocs)
	}

	// The mixed shape too: zero-delay cascades interleaved with future
	// scheduling, the coherence controller's pattern.
	mixed := func(e *Engine) {
		for j := 0; j < 512; j++ {
			e.Schedule(Tick(j%31+1), fn)
		}
		for e.Step() {
			if e.Executed()%7 == 0 {
				e.Schedule(0, fn)
			}
		}
	}
	e2 := NewEngine()
	mixed(e2)
	if allocs := testing.AllocsPerRun(10, func() { mixed(e2) }); allocs != 0 {
		t.Fatalf("steady-state mixed cycle allocates %.1f times, want 0", allocs)
	}
}

// memPerRun is testing.AllocsPerRun extended to bytes: the fewest
// allocations and bytes per call of f over three rounds of runs calls,
// each round after one warm-up call. The minimum drops what the
// runtime allocates for itself mid-round, such as a first GC starting
// its workers.
func memPerRun(runs int, f func()) (allocs, bytes uint64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	allocs, bytes = ^uint64(0), ^uint64(0)
	for round := 0; round < 3; round++ {
		f()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			f()
		}
		runtime.ReadMemStats(&after)
		allocs = min(allocs, (after.Mallocs-before.Mallocs)/uint64(runs))
		bytes = min(bytes, (after.TotalAlloc-before.TotalAlloc)/uint64(runs))
	}
	return allocs, bytes
}

// TestBenchmarkAllocsPinned pins the allocs/op and B/op the engine
// microbenchmarks report where either is nonzero, plus the mixed
// shape's zero: each check runs the benchmark's own loop body.
func TestBenchmarkAllocsPinned(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation sizes; the pinned figures are a normal build's")
	}
	check := func(name string, allocs, bytes, wantAllocs, wantBytes uint64) {
		t.Helper()
		if allocs != wantAllocs || bytes != wantBytes {
			t.Errorf("%s: %d allocs, %d B per op, want %d allocs, %d B", name, allocs, bytes, wantAllocs, wantBytes)
		}
	}

	// BenchmarkZeroDelayChain: the chain's counter, its self-referencing
	// closure variable and the closure itself.
	e := NewEngine()
	allocs, bytes := memPerRun(100, func() {
		hops := 0
		var hop func()
		hop = func() {
			hops++
			if hops < 64 {
				e.Schedule(0, hop)
			}
		}
		e.Schedule(1, hop)
		e.Run()
	})
	check("ZeroDelayChain", allocs, bytes, 3, 48)

	// BenchmarkRunDrain: the first fill-drain cycle on a fresh engine
	// grows its arena; building the engine is not counted.
	const runs = 10
	fresh := make([]*Engine, 3*(runs+1))
	for i := range fresh {
		fresh[i] = NewEngine()
	}
	fn := func() {}
	allocs, bytes = memPerRun(runs, func() {
		e := fresh[0]
		fresh = fresh[1:]
		for j := 0; j < 4096; j++ {
			e.Schedule(Tick(j%251), fn)
		}
		e.Run()
	})
	check("RunDrain", allocs, bytes, 4, 352256)

	// BenchmarkScheduleStepMixed: the 80/20 zero-delay/future blend.
	e = NewEngine()
	for i := 0; i < 256; i++ {
		e.Schedule(Tick(i%31+1), fn)
	}
	i := 0
	allocs, bytes = memPerRun(1000, func() {
		if i%5 == 0 {
			e.Schedule(Tick(i%31+1), fn)
		} else {
			e.Schedule(0, fn)
		}
		e.Step()
		i++
	})
	check("ScheduleStepMixed", allocs, bytes, 0, 0)

	// BenchmarkFarFutureBurst: 30 heap pages of 1,024 40-byte events for
	// 30k live events, plus the doublings of the page-pointer slice, on
	// fresh engines with no released pages to draw.
	drainHeapPages()
	fresh = make([]*Engine, 3*(runs+1))
	for i := range fresh {
		fresh[i] = NewEngine()
	}
	allocs, bytes = memPerRun(runs, func() {
		e := fresh[0]
		fresh = fresh[1:]
		farFutureBurst(e, 30000, fn)
	})
	check("FarFutureBurst", allocs, bytes, 36, 30*heapPageLen*40+504)
}

// TestNewEngineAfterReleaseAllocs pins engine recycling: once an
// engine is released, the next NewEngine draws its wheel and node
// arena (57 KB fresh) and allocates only the Engine header, under
// 1 KB.
func TestNewEngineAfterReleaseAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation sizes")
	}
	const bound = 1 << 10
	_, bytes := memPerRun(10, func() { NewEngine().Release() })
	if bytes >= bound {
		t.Errorf("NewEngine after Release allocated %d bytes, want under %d", bytes, bound)
	}
}

// drainHeapPages empties the heap-page free list, so that what a test
// measures next is a process's first engines.
func drainHeapPages() {
	for heapPages.HeldBytes() > 0 {
		heapPages.Get(heapPageLen)
	}
}

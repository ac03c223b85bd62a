package sim

import "testing"

// The engine microbenchmarks cover the three event-queue shapes the
// simulator actually produces:
//
//   - FutureMix: schedules at spread-out future ticks (DRAM, link and
//     pipeline latencies) — the classic heap workload.
//   - ZeroDelay: Schedule(0, fn) chains — the dominant pattern in the
//     coherence controller's same-tick message hops, served by the
//     FIFO fast path.
//   - Mixed: an 80/20 zero-delay/future blend approximating a full
//     benchmark run.
//
// Run with -benchmem: the whole point of the concrete event queue is
// zero allocations per schedule/step beyond slice growth.

func BenchmarkScheduleStepFutureMix(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine()
	// Pre-warm the queue so steady-state behaviour dominates.
	for i := 0; i < 1024; i++ {
		e.Schedule(Tick(i%97+1), func() {})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(Tick(i%97+1), func() {})
		e.Step()
	}
}

func BenchmarkScheduleStepZeroDelay(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine()
	fn := func() {}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(0, fn)
		e.Step()
	}
}

func BenchmarkZeroDelayChain(b *testing.B) {
	// Each outer iteration runs a 64-hop zero-delay chain, the shape of
	// a coherence transaction bouncing between controllers in one tick.
	b.ReportAllocs()
	e := NewEngine()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
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
	}
}

func BenchmarkScheduleStepMixed(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine()
	fn := func() {}
	for i := 0; i < 256; i++ {
		e.Schedule(Tick(i%31+1), fn)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%5 == 0 {
			e.Schedule(Tick(i%31+1), fn)
		} else {
			e.Schedule(0, fn)
		}
		e.Step()
	}
}

func BenchmarkRunDrain(b *testing.B) {
	// Fill-then-drain: the queue grows to 4096 events and empties, the
	// pattern of a kernel issuing a wavefront of memory operations. The
	// per-op bytes here are fresh-engine construction plus first-cycle
	// arena growth; BenchmarkRunDrainSteady is the same workload on the
	// simulator's actual hot path (one long-lived engine).
	b.ReportAllocs()
	fn := func() {}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		e := NewEngine()
		b.StartTimer()
		for j := 0; j < 4096; j++ {
			e.Schedule(Tick(j%251), fn)
		}
		e.Run()
	}
}

func BenchmarkRunDrainSteady(b *testing.B) {
	// BenchmarkRunDrain with the engine reused across iterations — the
	// shape of a real simulation, where one engine serves hundreds of
	// millions of events. Must report 0 B/op: nodes recycle through the
	// freelist and the FIFO backing array is reused, so after the first
	// cycle grows the arena nothing ever reaches the allocator.
	b.ReportAllocs()
	fn := func() {}
	e := NewEngine()
	for j := 0; j < 4096; j++ {
		e.Schedule(Tick(j%251), fn)
	}
	e.Run()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 4096; j++ {
			e.Schedule(Tick(j%251), fn)
		}
		e.Run()
	}
}

// farFutureBurst schedules n events on e, each wheelSize or more ticks
// out, in a scrambled order, and drains them: the shape of DRAM
// completions queued behind a long bank queue, which fill the overflow
// heap to tens of thousands of entries in the Fig. 4 sweep.
func farFutureBurst(e *Engine, n int, fn func()) {
	for i := 0; i < n; i++ {
		e.Schedule(wheelSize+Tick(i*7919%n), fn)
	}
	e.Run()
}

func BenchmarkFarFutureBurst(b *testing.B) {
	// A fresh engine per iteration, not counted: B/op is what the heap
	// allocates to hold 30k events, which should be about the 960 KB
	// they occupy.
	b.ReportAllocs()
	fn := func() {}
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		e := NewEngine()
		b.StartTimer()
		farFutureBurst(e, 30000, fn)
	}
}

// Package fixture seeds exactly one violation per analyzer rule, plus
// an annotated twin for each escape hatch. The analysis unit tests
// load this package by its explicit import path (go list's `./...`
// wildcard skips testdata directories, so `dstore-lint ./...` never
// sees it) and assert that every seeded violation — and nothing else —
// is reported.
package fixture

import (
	"math/rand"
	"time"

	"dstore/internal/dram"
	"dstore/internal/interconnect"
	"dstore/internal/obs/dtrace"
	"dstore/internal/sim"
)

// WallClock reads the wall clock: determinism finding.
func WallClock() time.Time {
	return time.Now()
}

// WallClockAllowed is the annotated twin: no finding.
func WallClockAllowed() time.Time {
	return time.Now() //dstore:allow-wallclock fixture: annotated twin
}

// Random uses the flagged math/rand import (the import declaration
// itself is the determinism finding, not this call).
func Random() int {
	return rand.Int()
}

// MapRange iterates a map without sorting: determinism finding on the
// first loop; the second is annotated and clean.
func MapRange(m map[string]int) int {
	total := 0
	for _, v := range m {
		total += v
	}
	//dstore:allow-maprange fixture: order folds into a commutative sum
	for _, v := range m {
		total += v
	}
	return total
}

// Reenter schedules a callback that re-enters the run loop:
// eventsafety finding.
func Reenter(eng *sim.Engine) {
	eng.Schedule(1, func() {
		eng.Step()
	})
}

// ReenterAllowed is the annotated twin: no finding.
func ReenterAllowed(eng *sim.Engine) {
	eng.Schedule(1, func() {
		eng.Step() //dstore:allow-reentry fixture: annotated twin
	})
}

// LoopCapture schedules callbacks from inside a loop: the first loop
// captures the loop variable directly (eventsafety finding), the
// second rebinds it first (clean).
func LoopCapture(eng *sim.Engine, xs []int) {
	for i := range xs {
		eng.Schedule(1, func() {
			_ = i
		})
	}
	for i := range xs {
		i := i
		eng.Schedule(1, func() {
			_ = i
		})
	}
}

// FakeMsg looks like a protocol message type to the allocfree
// analyzer (named struct, "Msg" suffix).
type FakeMsg struct {
	Addr uint64
}

// HotMap allocates a map outside a constructor: allocfree finding on
// the make, another on the literal; the annotated twin is clean.
func HotMap() map[uint64]int {
	m := make(map[uint64]int)
	_ = map[string]bool{"x": true}
	m2 := make(map[uint64]int) //dstore:allow-alloc fixture: annotated twin
	_ = m2
	return m
}

// HotMsg allocates messages on the heap outside a constructor:
// allocfree findings on new and on the address-of literal; the
// annotated twin is clean.
func HotMsg() *FakeMsg {
	a := new(FakeMsg)
	b := &FakeMsg{Addr: 1}
	_ = b
	c := &FakeMsg{Addr: 2} //dstore:allow-alloc fixture: annotated twin
	_ = c
	return a
}

// NewTable is a constructor: map and message allocation here is the
// job, no finding.
func NewTable() (map[uint64]int, *FakeMsg) {
	return make(map[uint64]int), &FakeMsg{}
}

// SpanDiscard throws away the span Begin returns: spanbalance finding
// on the first call; the annotated twin is clean.
func SpanDiscard(r *dtrace.Recorder) {
	r.Begin(1, dtrace.SpanSimulate, 0, 0)
	r.Begin(1, dtrace.SpanSimulate, 0, 0) //dstore:allow-spanleak fixture: annotated twin
}

// SpanBlank binds the span to the blank identifier — just a fancier
// discard: spanbalance finding.
func SpanBlank(r *dtrace.Recorder) {
	_ = r.Begin(1, dtrace.SpanSimulate, 0, 0)
}

// SpanNeverEnded binds the span but never calls End: spanbalance
// finding.
func SpanNeverEnded(r *dtrace.Recorder) {
	sp := r.Begin(1, dtrace.SpanSimulate, 0, 0)
	_ = sp
}

// SpanBalanced ends its span (in a deferred closure, which the
// whole-body search must see): no finding.
func SpanBalanced(r *dtrace.Recorder) {
	sp := r.Begin(1, dtrace.SpanSimulate, 0, 0)
	defer func() { sp.End(0) }()
}

// ArgSinks hands callbacks to the sinks whose callback is not the last
// argument, or that pass the tick: one eventsafety finding per sink.
func ArgSinks(eng *sim.Engine, net interconnect.Network, link interconnect.DirectPort, mem *dram.DRAM, xs []int) {
	eng.ScheduleArg(1, func(any, sim.Tick) {
		eng.Step()
	}, nil)
	eng.ScheduleArgAt(1, func(any, sim.Tick) {
		eng.Step()
	}, nil)
	for i := range xs {
		net.Send(0, 1, 8, func(any, sim.Tick) {
			_ = i
		}, nil)
		link.Send(8, func(any, sim.Tick) {
			_ = i
		}, nil)
		mem.Access(0, false, func(any, sim.Tick) {
			_ = i
		}, nil)
	}
}

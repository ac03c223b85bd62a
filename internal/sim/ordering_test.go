package sim

import (
	"container/heap"
	"testing"
)

// refEngine is the original container/heap event queue, kept verbatim as
// the ordering oracle for the concrete 4-ary heap + same-tick FIFO
// engine: both must execute any schedule in identical (tick,
// insertion-order) order.
type refEngine struct {
	now    Tick
	events refHeap
	seq    uint64
}

type refHeap []event

func (h refHeap) Len() int { return len(h) }

func (h refHeap) Less(i, j int) bool {
	if h[i].when != h[j].when {
		return h[i].when < h[j].when
	}
	return h[i].seq < h[j].seq
}

func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }

func (h *refHeap) Push(x any) { *h = append(*h, x.(event)) }

func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = event{}
	*h = old[:n-1]
	return ev
}

func (e *refEngine) Now() Tick { return e.now }

func (e *refEngine) Schedule(delay Tick, fn func()) {
	e.seq++
	heap.Push(&e.events, event{when: e.now + delay, seq: e.seq, ev: slotEvent{fn: callFn, arg: fn}})
}

func (e *refEngine) run() Tick {
	for len(e.events) > 0 {
		ev := heap.Pop(&e.events).(event)
		e.now = ev.when
		ev.ev.fn(ev.ev.arg, e.now)
	}
	return e.now
}

// scheduler is the surface a scenario needs; both engines provide it.
type scheduler interface {
	Now() Tick
	Schedule(delay Tick, fn func())
}

// firing records one event execution: which event ran and when.
type firing struct {
	id   int
	tick Tick
}

// runScenario drives a randomized event schedule on e: a burst of root
// events at mixed delays, each of which may schedule further events from
// inside its handler — including zero-delay chains, the pattern the
// engine's FIFO fast path serves. Event IDs are assigned in scheduling
// order and the random stream is consumed in execution order, so two
// engines produce identical traces iff they execute the schedule in
// exactly the same order.
func runScenario(e scheduler, run func() Tick, seed uint64) ([]firing, Tick) {
	r := NewRand(seed)
	var trace []firing
	nextID := 0
	var spawn func(depth int) func()
	spawn = func(depth int) func() {
		id := nextID
		nextID++
		return func() {
			trace = append(trace, firing{id: id, tick: e.Now()})
			if depth >= 4 {
				return
			}
			for i, n := 0, r.Intn(3); i < n; i++ {
				// Bias toward zero delays: same-tick cascades are both
				// the hot path and the easiest ordering to get wrong.
				var d Tick
				if !r.Bool(0.6) {
					d = Tick(r.Intn(5))
				}
				e.Schedule(d, spawn(depth+1))
			}
		}
	}
	for i := 0; i < 64; i++ {
		e.Schedule(Tick(r.Intn(24)), spawn(0))
	}
	end := run()
	return trace, end
}

func TestEngineMatchesContainerHeapReference(t *testing.T) {
	for seed := uint64(0); seed < 50; seed++ {
		eng := NewEngine()
		got, gotEnd := runScenario(eng, eng.Run, seed)
		ref := &refEngine{}
		want, wantEnd := runScenario(ref, ref.run, seed)
		if len(got) != len(want) {
			t.Fatalf("seed %d: engine ran %d events, reference ran %d", seed, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: divergence at event %d: engine fired %+v, reference fired %+v",
					seed, i, got[i], want[i])
			}
		}
		if gotEnd != wantEnd {
			t.Fatalf("seed %d: engine ended at tick %d, reference at %d", seed, gotEnd, wantEnd)
		}
	}
}

// TestEngineMatchesReferenceAcrossWheelBoundary drives schedules whose
// delays straddle the timing-wheel span: same-tick chains, in-wheel
// latencies, delays right at the wheelSize cliff, and far-future
// overflow events that land on the same tick as wheel events. The
// reference container/heap engine is the ordering oracle.
func TestEngineMatchesReferenceAcrossWheelBoundary(t *testing.T) {
	delays := []Tick{0, 1, 7, wheelSize - 1, wheelSize, wheelSize + 1, 3 * wheelSize, 0, wheelSize}
	scenario := func(e scheduler, run func() Tick, seed uint64) ([]firing, Tick) {
		r := NewRand(seed)
		var trace []firing
		nextID := 0
		var spawn func(depth int) func()
		spawn = func(depth int) func() {
			id := nextID
			nextID++
			return func() {
				trace = append(trace, firing{id: id, tick: e.Now()})
				if depth >= 3 {
					return
				}
				for i, n := 0, r.Intn(3); i < n; i++ {
					e.Schedule(delays[r.Intn(len(delays))], spawn(depth+1))
				}
			}
		}
		for i := 0; i < 48; i++ {
			e.Schedule(delays[r.Intn(len(delays))]+Tick(r.Intn(5)), spawn(0))
		}
		end := run()
		return trace, end
	}
	for seed := uint64(0); seed < 30; seed++ {
		eng := NewEngine()
		got, gotEnd := scenario(eng, eng.Run, seed)
		ref := &refEngine{}
		want, wantEnd := scenario(ref, ref.run, seed)
		if len(got) != len(want) {
			t.Fatalf("seed %d: engine ran %d events, reference ran %d", seed, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: divergence at event %d: engine fired %+v, reference fired %+v",
					seed, i, got[i], want[i])
			}
		}
		if gotEnd != wantEnd {
			t.Fatalf("seed %d: engine ended at tick %d, reference at %d", seed, gotEnd, wantEnd)
		}
	}
}

// TestEngineHeapBeforeFIFOAtSameTick pins the subtle half of the
// ordering contract: an event scheduled for tick T before the clock
// reaches T (heap resident) must run before a zero-delay event scheduled
// at T from inside T's first handler (FIFO resident), because it was
// scheduled first.
func TestEngineHeapBeforeFIFOAtSameTick(t *testing.T) {
	e := NewEngine()
	var order []string
	e.Schedule(5, func() {
		order = append(order, "first@5")
		e.Schedule(0, func() { order = append(order, "zero-delay@5") })
	})
	e.Schedule(5, func() { order = append(order, "second@5") })
	e.Run()
	want := []string{"first@5", "second@5", "zero-delay@5"}
	if len(order) != len(want) {
		t.Fatalf("ran %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("ran %v, want %v", order, want)
		}
	}
}

// TestEngineRunUntilWithFIFOPending ensures the limit check accounts for
// the FIFO: a zero-delay event scheduled at the limit tick still runs.
func TestEngineRunUntilWithFIFOPending(t *testing.T) {
	e := NewEngine()
	var ran []string
	e.Schedule(10, func() {
		ran = append(ran, "outer")
		e.Schedule(0, func() { ran = append(ran, "inner") })
		e.Schedule(1, func() { ran = append(ran, "beyond") })
	})
	if e.RunUntil(10) {
		t.Error("RunUntil(10) reported drained with an event at 11 pending")
	}
	if len(ran) != 2 || ran[0] != "outer" || ran[1] != "inner" {
		t.Errorf("ran %v, want [outer inner]", ran)
	}
	if e.Pending() != 1 {
		t.Errorf("%d events pending, want 1", e.Pending())
	}
	if e.Now() != 10 {
		t.Errorf("clock at %d, want 10", e.Now())
	}
}

// TestOverflowHeapOrderAcrossPages fills the overflow heap with 30k
// far-future events, about 30 pages, at ticks drawn with repeats so
// many share a tick, and requires them to run in (tick, schedule
// order): sift paths cross page boundaries at every level.
func TestOverflowHeapOrderAcrossPages(t *testing.T) {
	const n = 30000
	e := NewEngine()
	rng := NewRand(11)
	type key struct {
		when Tick
		i    int
	}
	var ran []key
	for i := 0; i < n; i++ {
		k := key{wheelSize + Tick(rng.Intn(n/3)), i}
		e.ScheduleArgAt(k.when, func(any, Tick) {
			if e.Now() != k.when {
				t.Errorf("event %d scheduled for tick %d ran at %d", k.i, k.when, e.Now())
			}
			ran = append(ran, k)
		}, nil)
	}
	if len(e.heap) < n/heapPageLen {
		t.Fatalf("%d heap pages for %d events, want at least %d", len(e.heap), n, n/heapPageLen)
	}
	e.Run()
	if len(ran) != n {
		t.Fatalf("ran %d events, want %d", len(ran), n)
	}
	for j := 1; j < n; j++ {
		a, b := ran[j-1], ran[j]
		if a.when > b.when || a.when == b.when && a.i > b.i {
			t.Fatalf("event %d (tick %d) ran before event %d (tick %d)", a.i, a.when, b.i, b.when)
		}
	}
}

// TestReleaseRecyclesHeapPages releases an engine whose heap grew to
// two pages and requires the next engine to draw those pages, cleared,
// and to order its own far-future events exactly.
func TestReleaseRecyclesHeapPages(t *testing.T) {
	drainHeapPages()
	fn := func() {}
	e := NewEngine()
	for i := 0; i < heapPageLen+1; i++ {
		e.Schedule(wheelSize+Tick(i), fn)
	}
	e.RunUntil(wheelSize) // leave most events queued: Release drops them
	pages := e.heap
	e.Release()
	if e.Pending() != 0 || len(e.heap) != 0 {
		t.Fatalf("released engine holds %d events in %d pages, want none", e.Pending(), len(e.heap))
	}
	if got, want := heapPages.HeldBytes(), 2*heapPageLen*40; got != want {
		t.Fatalf("free list holds %d bytes after Release, want %d", got, want)
	}

	e2 := NewEngine()
	var order []int
	for i := 0; i < 3; i++ {
		i := i
		e2.Schedule(wheelSize+Tick(3-i), func() { order = append(order, i) })
	}
	if p := e2.heap[0]; p != pages[0] && p != pages[1] {
		t.Error("the new engine did not draw a released heap page")
	}
	for j := 3; j < heapPageLen; j++ {
		if ev := e2.heap[0][j]; ev.when != 0 || ev.seq != 0 || ev.ev.fn != nil || ev.ev.arg != nil {
			t.Fatalf("recycled page entry %d = %+v, want empty", j, ev)
		}
	}
	e2.Run()
	if len(order) != 3 || order[0] != 2 || order[1] != 1 || order[2] != 0 {
		t.Errorf("ran %v, want [2 1 0]", order)
	}
}

// engineScript runs a fixed pseudo-random event cascade on e until tick
// limit and returns each event's (tick, Executed) as it ran. Events
// land at delay zero, on the wheel and in the overflow heap, and the
// script leaves some queued at limit.
func engineScript(e *Engine, limit Tick) [][2]uint64 {
	r := NewRand(29)
	var ran [][2]uint64
	scheduled := 0
	var ev func()
	ev = func() {
		ran = append(ran, [2]uint64{uint64(e.Now()), e.Executed()})
		for k := 1 + r.Intn(2); k > 0 && scheduled < 3_000; k-- {
			scheduled++
			switch r.Intn(4) {
			case 0:
				e.Schedule(0, ev)
			case 1:
				e.Schedule(Tick(1+r.Intn(100)), ev)
			case 2:
				e.Schedule(Tick(r.Intn(int(wheelSize))), ev)
			default:
				e.Schedule(wheelSize+Tick(r.Intn(3000)), ev)
			}
		}
	}
	for i := 0; i < 64; i++ {
		e.Schedule(Tick(i), ev)
	}
	e.RunUntil(limit)
	return ran
}

// TestRecycledEngineMatchesFresh releases an engine with events still
// on its wheel and in its arena, requires the next engine to draw that
// wheel and arena, and requires it to run the same event script as
// the first, fresh engine: the same ticks and Executed counts.
func TestRecycledEngineMatchesFresh(t *testing.T) {
	for wheels.HeldBytes() > 0 {
		wheels.Get(1)
	}
	for nodeArenas.HeldBytes() > 0 {
		nodeArenas.Get(initialNodes)
	}
	const limit = 3_000
	fresh := NewEngine()
	want := engineScript(fresh, limit)
	if fresh.Pending() == 0 || fresh.wheelCount == 0 {
		t.Fatalf("script left %d events, %d on the wheel; want some on the wheel", fresh.Pending(), fresh.wheelCount)
	}
	t.Logf("fresh engine ran %d events to tick %d, left %d queued", len(want), fresh.Now(), fresh.Pending())
	wheel, arena := fresh.wheel, &fresh.nodes[:1][0]
	fresh.Release()

	recycled := NewEngine()
	if recycled.wheel != wheel || &recycled.nodes[:1][0] != arena {
		t.Fatal("the next engine did not draw the released wheel and node arena")
	}
	got := engineScript(recycled, limit)
	if len(got) != len(want) {
		t.Fatalf("recycled engine ran %d events, fresh %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d ran at (tick, executed) %v on the recycled engine, %v on the fresh one", i, got[i], want[i])
		}
	}
}

// Package sim provides the discrete-event simulation kernel that every
// timed component in the simulator is built on: a tick clock, an event
// queue with deterministic ordering, and a reproducible random number
// source.
//
// The engine is deliberately minimal. Components schedule callbacks at
// future ticks; the engine executes them in (tick, insertion-order)
// order, so two events scheduled for the same tick always run in the
// order they were scheduled. Determinism is a hard requirement: every
// experiment in the paper reproduction must produce identical statistics
// run-to-run.
//
// The event queue is the simulator's hottest code: a full figure sweep
// executes hundreds of millions of events. It is a three-level
// structure, allocation-free in steady state:
//
//   - a same-tick FIFO that absorbs events scheduled for the current
//     tick (Schedule(0, fn) chains — the dominant pattern in the
//     coherence controllers' message hops). It is a node list like a
//     wheel slot, so each new tick's slot is spliced onto it whole;
//   - a timing wheel of wheelSize one-tick slots for events less than
//     wheelSize ticks out (every cache, link, DRAM and pipeline latency
//     in the simulator). Each slot is a linked list of nodes drawn from
//     a single recycled arena, and an occupancy bitmap makes finding
//     the next non-empty tick a handful of word scans. Push and pop are
//     O(1) — no heap sift, which previously dominated full-sweep
//     profiles;
//   - a small 4-ary min-heap for the rare far-future event (watchdogs,
//     coarse timeouts) at wheelSize or more ticks out.
//
// The split preserves (tick, insertion-order) semantics exactly. Within
// a wheel slot, list order is insertion order. An overflow-heap event
// at tick T was scheduled at least wheelSize ticks before T, hence
// strictly earlier than any wheel-resident event for T (which was
// scheduled under wheelSize ticks out), so migrating heap events before
// slot events at each clock advance reproduces global (tick, seq)
// order. The FIFO preserves insertion order trivially, and events
// scheduled for the current tick always append after everything already
// migrated, which is exactly the old two-structure engine's contract.
package sim

import (
	"fmt"
	"math/bits"
)

// Tick is the simulation time unit. One tick is one CPU-domain clock
// cycle throughout the simulator; slower clock domains (GPU, DRAM) are
// modelled by scaling their per-operation latencies into CPU ticks.
type Tick uint64

// wheelBits sets the timing-wheel span: events under wheelSize ticks
// out go to the wheel, the rest to the overflow heap. 2048 ticks covers
// every component latency in the simulator (DRAM ~200, TLB walk 40,
// crossbar 16) and the per-line compute gaps of all but the five
// compute-bound Table II profiles (up to 1,835 ticks); the heap keeps
// those 3,000- and 5,000-tick gaps and watchdog-style timeouts.
const wheelBits = 11

const (
	wheelSize  = Tick(1) << wheelBits
	wheelMask  = wheelSize - 1
	wheelWords = int(wheelSize) / 64
)

// slotEvent is the callback form every event is stored in: a static
// (or at least long-lived) function plus one argument word. The
// convenience Schedule variants box closures or pointer-shaped values
// into arg, which allocates nothing for pointers, funcs, or interfaces.
type slotEvent struct {
	fn  func(arg any, now Tick)
	arg any
}

// node is one wheel-slot or FIFO list entry, drawn from the engine's
// arena and recycled through a freelist — slot storage never allocates
// in steady state regardless of how events distribute over ticks.
type node struct {
	ev   slotEvent
	next int32
}

// slotList is a wheel slot or the FIFO: an intrusive singly-linked
// list of arena node indices in insertion order, with its length.
// -1 means empty.
type slotList struct {
	head, tail int32
	n          int32
}

// emptyList is the empty slotList.
var emptyList = slotList{head: -1, tail: -1}

// event is an overflow-heap entry. seq breaks ties between heap events
// scheduled for the same tick, preserving insertion order; wheel and
// FIFO entries need no explicit seq because their containers are
// insertion-ordered.
type event struct {
	when Tick
	seq  uint64
	ev   slotEvent
}

// eventLess orders overflow events by (when, seq).
func eventLess(a, b event) bool {
	if a.when != b.when {
		return a.when < b.when
	}
	return a.seq < b.seq
}

// heapArity is the branching factor of the overflow heap. A 4-ary heap
// halves the tree depth of a binary heap; the overflow heap is small
// (watchdog-scale, not wavefront-scale) so this barely matters, but it
// costs nothing.
const heapArity = 4

// Engine is the discrete-event simulator. The zero value is not ready to
// use; construct one with NewEngine.
type Engine struct {
	now Tick

	// fifo is the current tick's run queue in execution order, a node
	// list like a wheel slot: events migrated from the heap and the
	// wheel when the clock advanced here, followed by any Schedule(0,
	// fn) appends made while executing. A wheel slot migrates by
	// splicing its list on, so each node is touched once, when it runs.
	fifo slotList

	// Timing wheel: slot i holds events for the unique pending tick
	// congruent to i mod wheelSize (all wheel events are in
	// (now, now+wheelSize), so the slot index determines the tick).
	// bits is the slot-occupancy bitmap; wheelCount the total events
	// wheel-resident.
	slots      [wheelSize]slotList
	bits       [wheelWords]uint64
	wheelCount int

	// Node arena backing the wheel slots, recycled via freeNode.
	nodes    []node
	freeNode int32

	// heap is the 4-ary overflow min-heap by (when, seq) for events
	// wheelSize or more ticks out. heapSeq orders same-tick entries.
	heap    []event
	heapSeq uint64

	executed uint64

	// Stall-guard state (SetStallGuard): guardLimit 0 disables the
	// forward-progress watchdog entirely.
	guardLimit uint64
	guardTick  Tick
	guardCount uint64

	// advanceHook, when non-nil, observes every clock advance
	// (SetAdvanceHook). nil disables it at the cost of one predictable
	// branch per clock advance.
	advanceHook func(prev, now Tick)
}

// initialNodes pre-sizes the node arena at construction.
// Growing from zero under a wavefront of schedules churns every
// power-of-two doubling below the working set through the allocator
// (the dominant byte count in the fill-drain profile); one engine
// serves an entire simulation, so paying 1024 slots up front is noise
// there and removes the churn everywhere. Steady state allocates
// nothing regardless — nodes recycle through the freelist (pinned by
// TestRunDrainSteadyStateAllocs).
const initialNodes = 1024

// NewEngine returns an engine at tick zero with an empty event queue.
func NewEngine() *Engine {
	e := &Engine{
		freeNode: -1,
		fifo:     emptyList,
		nodes:    make([]node, 0, initialNodes),
	}
	for i := range e.slots {
		e.slots[i] = emptyList
	}
	return e
}

// Now returns the current simulation tick.
func (e *Engine) Now() Tick { return e.now }

// Pending returns the number of events waiting in the queue.
func (e *Engine) Pending() int {
	return int(e.fifo.n) + e.wheelCount + len(e.heap)
}

// Executed returns the total number of events executed so far.
func (e *Engine) Executed() uint64 { return e.executed }

// SetStallGuard arms the engine's forward-progress watchdog: executing
// more than limit events without the clock advancing a single tick
// panics with a diagnostic instead of livelocking. Legitimate same-tick
// cascades in the coherence layer are a few hundred events deep, so any
// generous limit (say, one million) only ever trips on a genuine
// livelock — an event chain rescheduling itself at delay zero forever.
// A limit of zero disables the guard (the default); a disabled guard
// adds one predictable branch to the step path and changes nothing
// else, preserving byte-identical results.
func (e *Engine) SetStallGuard(limit uint64) {
	e.guardLimit = limit
	e.guardTick = e.now
	e.guardCount = 0
}

// SetAdvanceHook installs fn to be called on every clock advance with
// the previous and new tick, immediately before the first event of the
// new tick runs. The hook observes time only — it must not schedule
// events or mutate simulation state, so an engine with a hook installed
// executes the identical event sequence as one without (same contract
// as RunInterruptible's stop function). The interval sampler in
// internal/obs is the intended client: epoch boundaries fall on clock
// advances, never on events of their own, so enabling telemetry cannot
// perturb results. A nil fn removes the hook; a removed hook costs one
// predictable branch per clock advance and nothing on the same-tick
// FIFO path (the clock cannot advance there).
func (e *Engine) SetAdvanceHook(fn func(prev, now Tick)) {
	e.advanceHook = fn
}

// callFn runs a boxed func() event. Boxing a func value into any stores
// its pointer directly — no allocation.
func callFn(arg any, _ Tick) { arg.(func())() }

// callTickFn runs a boxed func(Tick) event, passing the current tick —
// the delivery-callback shape used by the interconnect, scheduled
// without a wrapper closure.
func callTickFn(arg any, now Tick) { arg.(func(Tick))(now) }

// Schedule queues fn to run delay ticks from now. A delay of zero runs fn
// later in the current tick, after all previously scheduled events for
// this tick.
func (e *Engine) Schedule(delay Tick, fn func()) {
	if fn == nil {
		panic("sim: schedule nil event function")
	}
	e.scheduleEvent(e.now+delay, slotEvent{fn: callFn, arg: fn})
}

// ScheduleAt queues fn to run at the absolute tick when. Scheduling in
// the past panics: it would silently corrupt causality.
func (e *Engine) ScheduleAt(when Tick, fn func()) {
	if fn == nil {
		panic("sim: schedule nil event function")
	}
	e.scheduleEvent(when, slotEvent{fn: callFn, arg: fn})
}

// ScheduleTick queues fn to run delay ticks from now, passing the tick
// at which it runs. Boxing fn allocates nothing, so this is the
// allocation-free way to schedule an existing delivery callback that a
// plain Schedule would have to wrap in a fresh closure.
func (e *Engine) ScheduleTick(delay Tick, fn func(now Tick)) {
	if fn == nil {
		panic("sim: schedule nil event function")
	}
	e.scheduleEvent(e.now+delay, slotEvent{fn: callTickFn, arg: fn})
}

// ScheduleTickAt is ScheduleTick at an absolute tick.
func (e *Engine) ScheduleTickAt(when Tick, fn func(now Tick)) {
	if fn == nil {
		panic("sim: schedule nil event function")
	}
	e.scheduleEvent(when, slotEvent{fn: callTickFn, arg: fn})
}

// ScheduleArg queues fn(arg, now) to run delay ticks from now. With a
// static fn and a pointer-shaped arg (the pooled-message pattern in the
// coherence layer) the whole schedule/dispatch path allocates nothing.
func (e *Engine) ScheduleArg(delay Tick, fn func(arg any, now Tick), arg any) {
	if fn == nil {
		panic("sim: schedule nil event function")
	}
	e.scheduleEvent(e.now+delay, slotEvent{fn: fn, arg: arg})
}

// ScheduleArgAt is ScheduleArg at an absolute tick.
func (e *Engine) ScheduleArgAt(when Tick, fn func(arg any, now Tick), arg any) {
	if fn == nil {
		panic("sim: schedule nil event function")
	}
	e.scheduleEvent(when, slotEvent{fn: fn, arg: arg})
}

// scheduleEvent routes ev to the FIFO (current tick), wheel (near
// future) or overflow heap (far future).
func (e *Engine) scheduleEvent(when Tick, ev slotEvent) {
	if when < e.now {
		panic(fmt.Sprintf("sim: schedule at tick %d but now is %d", when, e.now))
	}
	if when == e.now {
		// Current-tick fast path: everything already queued for this
		// tick is ahead of us in the FIFO, so appending preserves
		// global insertion order.
		n := e.allocNode()
		e.nodes[n] = node{ev: ev, next: -1}
		e.fifoPush(n)
		return
	}
	if when-e.now < wheelSize {
		slot := int(when & wheelMask)
		n := e.allocNode()
		e.nodes[n] = node{ev: ev, next: -1}
		if s := &e.slots[slot]; s.head < 0 {
			*s = slotList{head: n, tail: n, n: 1}
			e.bits[slot>>6] |= 1 << uint(slot&63)
		} else {
			e.nodes[s.tail].next = n
			s.tail = n
			s.n++
		}
		e.wheelCount++
		return
	}
	e.heapSeq++
	e.heapPush(event{when: when, seq: e.heapSeq, ev: ev})
}

// fifoPush appends node n, whose next is -1, to the FIFO.
func (e *Engine) fifoPush(n int32) {
	if e.fifo.head < 0 {
		e.fifo.head = n
	} else {
		e.nodes[e.fifo.tail].next = n
	}
	e.fifo.tail = n
	e.fifo.n++
}

// allocNode returns a free arena node index, growing the arena only
// when the freelist is empty.
func (e *Engine) allocNode() int32 {
	if n := e.freeNode; n >= 0 {
		e.freeNode = e.nodes[n].next
		return n
	}
	e.nodes = append(e.nodes, node{})
	return int32(len(e.nodes) - 1)
}

// nextAdvance reports the earliest tick holding a wheel or heap event.
// The caller has drained the FIFO.
func (e *Engine) nextAdvance() (Tick, bool) {
	var best Tick
	have := false
	if e.wheelCount > 0 {
		best = e.wheelNext()
		have = true
	}
	if len(e.heap) > 0 && (!have || e.heap[0].when < best) {
		best = e.heap[0].when
		have = true
	}
	return best, have
}

// wheelNext returns the earliest pending tick on the wheel. The caller
// has checked wheelCount > 0. All wheel events lie in
// (now, now+wheelSize), so a circular bitmap scan starting after now's
// slot finds the minimum.
func (e *Engine) wheelNext() Tick {
	start := int((e.now + 1) & wheelMask)
	w := start >> 6
	word := e.bits[w] &^ (1<<uint(start&63) - 1)
	for {
		if word != 0 {
			slot := w<<6 + bits.TrailingZeros64(word)
			when := (e.now &^ wheelMask) + Tick(slot)
			if when <= e.now {
				when += wheelSize
			}
			return when
		}
		w++
		if w == wheelWords {
			w = 0
		}
		word = e.bits[w]
	}
}

// advanceTo moves the clock to when and migrates every event pending at
// that tick into the FIFO in global insertion order: overflow-heap
// entries first (scheduled at least wheelSize ticks early, hence before
// any wheel entry for the same tick), then the wheel slot's list,
// spliced on whole. The caller has drained the FIFO and established
// that at least one event is pending at when.
func (e *Engine) advanceTo(when Tick) {
	if e.advanceHook != nil {
		e.advanceHook(e.now, when)
	}
	e.now = when
	for len(e.heap) > 0 && e.heap[0].when == when {
		n := e.allocNode()
		e.nodes[n] = node{ev: e.heapPop().ev, next: -1}
		e.fifoPush(n)
	}
	slot := int(when & wheelMask)
	s := &e.slots[slot]
	if s.head < 0 {
		return
	}
	if e.fifo.head < 0 {
		e.fifo.head = s.head
	} else {
		e.nodes[e.fifo.tail].next = s.head
	}
	e.fifo.tail = s.tail
	e.fifo.n += s.n
	e.wheelCount -= int(s.n)
	*s = emptyList
	e.bits[slot>>6] &^= 1 << uint(slot&63)
}

// next reports the (when, ok) of the earliest pending event without
// removing it.
func (e *Engine) next() (Tick, bool) {
	if e.fifo.head >= 0 {
		return e.now, true
	}
	return e.nextAdvance()
}

// runOne executes ev as the next event at the current tick, updating
// the executed counter and stall guard.
func (e *Engine) runOne(ev slotEvent) {
	e.executed++
	if e.guardLimit != 0 {
		e.checkStall()
	}
	ev.fn(ev.arg, e.now)
}

// Step executes the single next event, advancing the clock to its tick.
// It reports whether an event was executed.
func (e *Engine) Step() bool {
	if e.fifo.head < 0 {
		when, ok := e.nextAdvance()
		if !ok {
			return false
		}
		e.advanceTo(when)
	}
	e.runOne(e.fifoPop())
	return true
}

// checkStall accounts one executed event against the stall guard. The
// caller has checked the guard is armed.
func (e *Engine) checkStall() {
	if e.now != e.guardTick {
		e.guardTick = e.now
		e.guardCount = 0
	}
	e.guardCount++
	if e.guardCount > e.guardLimit {
		panic(fmt.Sprintf(
			"sim: forward-progress watchdog: %d events executed at tick %d without the clock advancing (livelock)",
			e.guardCount, e.now))
	}
}

// Run executes events until the queue is empty and returns the final
// tick. The inner loop drains the current tick's FIFO batch without
// touching the wheel or heap, amortizing dispatch over same-tick
// cascades. A simulation that schedules events unconditionally from
// within events will never terminate; components must stop rescheduling
// when idle.
func (e *Engine) Run() Tick {
	for {
		for e.fifo.head >= 0 {
			e.runOne(e.fifoPop())
		}
		when, ok := e.nextAdvance()
		if !ok {
			return e.now
		}
		e.advanceTo(when)
	}
}

// stopCheckEvents is how many events RunInterruptible executes between
// stop-function polls. Large enough that the poll (typically a channel
// select on a context) is invisible next to the event work, small
// enough that cancellation latency stays in the microseconds.
const stopCheckEvents = 8192

// RunInterruptible executes events until the queue is empty or stop
// returns true, polling stop every stopCheckEvents executed events. It
// returns the final tick and whether the queue drained (false means
// stop cut the run short with events still pending). A nil stop is
// exactly Run. The stop function must not mutate simulation state, so
// an interruptible run that is never stopped executes the identical
// event sequence as Run.
func (e *Engine) RunInterruptible(stop func() bool) (Tick, bool) {
	if stop == nil {
		return e.Run(), true
	}
	budget := stopCheckEvents
	for {
		for e.fifo.head >= 0 {
			if budget == 0 {
				if stop() {
					return e.now, false
				}
				budget = stopCheckEvents
			}
			budget--
			e.runOne(e.fifoPop())
		}
		when, ok := e.nextAdvance()
		if !ok {
			return e.now, true
		}
		if budget == 0 {
			if stop() {
				return e.now, false
			}
			budget = stopCheckEvents
		}
		e.advanceTo(when)
	}
}

// RunUntil executes events up to and including tick limit and reports
// whether the queue drained (true) or the limit cut the run short
// (false). The clock is left at min(limit, last executed tick); events
// beyond the limit remain queued.
func (e *Engine) RunUntil(limit Tick) bool {
	for {
		for e.fifo.head >= 0 {
			e.runOne(e.fifoPop())
		}
		when, ok := e.nextAdvance()
		if !ok {
			return true
		}
		if when > limit {
			e.now = limit
			return false
		}
		e.advanceTo(when)
	}
}

// RunFor executes events for d ticks past the current time, with
// RunUntil semantics.
func (e *Engine) RunFor(d Tick) bool {
	return e.RunUntil(e.now + d)
}

// fifoPop removes and returns the FIFO front, releasing its arena node.
// The caller has checked it is non-empty.
func (e *Engine) fifoPop() slotEvent {
	n := e.fifo.head
	nd := &e.nodes[n]
	ev := nd.ev
	if e.fifo.head = nd.next; e.fifo.head < 0 {
		e.fifo.tail = -1
	}
	e.fifo.n--
	nd.ev = slotEvent{} // release callback and arg for GC
	nd.next = e.freeNode
	e.freeNode = n
	return ev
}

// heapPush inserts ev into the 4-ary overflow heap.
func (e *Engine) heapPush(ev event) {
	h := append(e.heap, ev)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / heapArity
		if !eventLess(h[i], h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	e.heap = h
}

// heapPop removes and returns the heap minimum. The caller has checked
// it is non-empty.
func (e *Engine) heapPop() event {
	h := e.heap
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = event{} // release the callback for GC
	h = h[:n]
	e.heap = h
	i := 0
	for {
		c := i*heapArity + 1
		if c >= n {
			break
		}
		m := c
		end := c + heapArity
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if eventLess(h[j], h[m]) {
				m = j
			}
		}
		if !eventLess(h[m], h[i]) {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	return top
}

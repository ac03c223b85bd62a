package dram

import (
	"dstore/internal/memsys"
	"dstore/internal/sim"
)

// SchedulerKind selects how the controller orders requests.
type SchedulerKind string

const (
	// SchedSimple services each access immediately against bank/bus
	// timing in arrival order (the default used by the paper-figure
	// experiments; see DESIGN.md §6).
	SchedSimple SchedulerKind = "simple"
	// SchedFRFCFS queues requests and services them First-Ready,
	// First-Come-First-Served: row-buffer hits first, then oldest;
	// reads are prioritised over writes until the write queue crosses
	// its drain threshold (writebacks stay off the read critical
	// path).
	SchedFRFCFS SchedulerKind = "frfcfs"
)

// queued is one pending request in the FR-FCFS queues.
type queued struct {
	addr    memsys.Addr
	write   bool
	arrival sim.Tick
	seq     uint64
	fn      func(arg any, now sim.Tick)
	arg     any
}

// frfcfs implements the queued scheduler over the same bank/bus timing
// the simple path uses.
type frfcfs struct {
	d *DRAM
	// reads and writes are pending queues in arrival order.
	reads  []queued
	writes []queued
	// draining latches the write-drain mode until the write queue
	// empties below the low mark.
	draining bool
	seq      uint64
	// scheduling is set while a wake-up event is pending.
	scheduling bool
}

// Write-queue thresholds: start draining at high, stop at low.
const (
	writeDrainHigh = 16
	writeDrainLow  = 4
)

// enqueue admits a request and kicks the scheduler.
func (f *frfcfs) enqueue(a memsys.Addr, write bool, fn func(arg any, now sim.Tick), arg any) {
	f.seq++
	q := queued{addr: a, write: write, arrival: f.d.engine.Now(), seq: f.seq, fn: fn, arg: arg}
	if write {
		f.writes = append(f.writes, q)
	} else {
		f.reads = append(f.reads, q)
	}
	f.kick()
}

// kick schedules a service pass if one is not already pending.
func (f *frfcfs) kick() {
	if f.scheduling {
		return
	}
	f.scheduling = true
	f.d.engine.Schedule(0, f.service)
}

// service issues as many requests as the banks/bus can accept now and
// re-arms itself at the next point anything could become ready.
func (f *frfcfs) service() {
	f.scheduling = false
	now := f.d.engine.Now()

	if len(f.writes) >= writeDrainHigh {
		f.draining = true
	}
	if len(f.writes) <= writeDrainLow {
		f.draining = false
	}

	// Pick the queue to serve: reads unless draining or no reads.
	var q *[]queued
	switch {
	case f.draining && len(f.writes) > 0:
		q = &f.writes
	case len(f.reads) > 0:
		q = &f.reads
	case len(f.writes) > 0:
		q = &f.writes
	default:
		return
	}

	// First-Ready: among the queue, prefer the oldest request whose
	// bank has its row open; fall back to the oldest request.
	best := -1
	for i, r := range *q {
		_, bankIdx, row := f.d.mapAddr(r.addr)
		b := &f.d.banks[bankIdx]
		if b.busyUntil <= now && b.hasOpenRow && b.openRow == row {
			best = i
			break // queue is in arrival order: first row-hit is oldest row-hit
		}
	}
	if best == -1 {
		// Oldest request whose bank is free.
		for i, r := range *q {
			_, bankIdx, _ := f.d.mapAddr(r.addr)
			if f.d.banks[bankIdx].busyUntil <= now {
				best = i
				break
			}
		}
	}
	if best == -1 {
		// Every candidate bank is busy: wake when the earliest frees.
		var soonest sim.Tick
		first := true
		for _, r := range *q {
			_, bankIdx, _ := f.d.mapAddr(r.addr)
			bu := f.d.banks[bankIdx].busyUntil
			if first || bu < soonest {
				soonest, first = bu, false
			}
		}
		if !first && soonest > now {
			f.scheduling = true
			f.d.engine.Schedule(soonest-now, f.service)
		}
		return
	}

	r := (*q)[best]
	*q = append((*q)[:best], (*q)[best+1:]...)
	f.d.serviceNow(r.addr, r.write, r.fn, r.arg)
	// Keep issuing while something may be ready this tick.
	f.kick()
}

// Package dram models main memory timing: channels, ranks and banks with
// row buffers, bank busy intervals, and a shared per-channel data bus.
// The geometry defaults to Table I of the paper (2GB, 1 channel, 2
// ranks, 8 banks @ 1GHz; the CPU tick domain is 2GHz, so each DRAM cycle
// is two ticks).
//
// Data values are not stored — the simulator measures placement and
// latency. Correct functional behaviour (a load observing the last
// store) is guaranteed by the coherence layer above.
package dram

import (
	"fmt"

	"dstore/internal/memsys"
	"dstore/internal/sim"
	"dstore/internal/stats"
)

// Config describes the memory system geometry and timing. All timings
// are in CPU ticks.
type Config struct {
	Name     string
	Channels int
	Ranks    int
	Banks    int // per rank
	// RowBytes is the row-buffer size per bank.
	RowBytes int
	// TRCD is activate-to-read latency (row miss adds it).
	TRCD sim.Tick
	// TCAS is the column access latency (paid by every access).
	TCAS sim.Tick
	// TRP is the precharge latency (paid when closing an open row).
	TRP sim.Tick
	// TBurst is the data-burst occupancy of the channel bus per line.
	TBurst sim.Tick
	// Scheduler selects request ordering; empty means SchedSimple.
	Scheduler SchedulerKind
}

// DefaultConfig returns the Table I memory system: 1 channel, 2 ranks, 8
// banks at 1GHz, with DDR3-1600-flavoured timings scaled into a 2GHz CPU
// tick domain.
func DefaultConfig() Config {
	return Config{
		Name:     "dram",
		Channels: 1,
		Ranks:    2,
		Banks:    8,
		RowBytes: 2048,
		TRCD:     28,
		TCAS:     28,
		TRP:      28,
		TBurst:   8,
	}
}

type bank struct {
	busyUntil  sim.Tick
	openRow    uint64
	hasOpenRow bool
}

// DRAM is the memory controller plus device timing model.
type DRAM struct {
	cfg      Config
	engine   *sim.Engine
	banks    []bank
	busFree  []sim.Tick // per channel
	totBanks int

	sched *frfcfs // nil under SchedSimple

	ctr Counters
}

// New builds a DRAM model attached to the event engine.
func New(engine *sim.Engine, cfg Config) *DRAM {
	if cfg.Channels <= 0 || cfg.Ranks <= 0 || cfg.Banks <= 0 {
		panic(fmt.Sprintf("dram %s: non-positive geometry", cfg.Name))
	}
	if cfg.RowBytes < memsys.LineSize {
		panic(fmt.Sprintf("dram %s: row smaller than a line", cfg.Name))
	}
	d := &DRAM{
		cfg:      cfg,
		engine:   engine,
		totBanks: cfg.Channels * cfg.Ranks * cfg.Banks,
		busFree:  make([]sim.Tick, cfg.Channels),
	}
	d.banks = make([]bank, d.totBanks)
	if cfg.Scheduler == SchedFRFCFS {
		d.sched = &frfcfs{d: d}
	}
	return d
}

// Counters are the DRAM's access, row-buffer and latency counts.
type Counters struct {
	Reads, Writes, RowHits, RowMisses, TotalLatency uint64
}

// Rows lists the counters by name, in dump and snapshot order.
func (c *Counters) Rows() stats.Rows {
	return stats.Rows{
		{Name: "reads", N: &c.Reads},
		{Name: "writes", N: &c.Writes},
		{Name: "row_hits", N: &c.RowHits},
		{Name: "row_misses", N: &c.RowMisses},
		{Name: "total_latency", N: &c.TotalLatency},
	}
}

// Get returns the named counter; an undeclared name panics.
func (c *Counters) Get(name string) uint64 { return c.Rows().Get(name) }

// Counters exposes the DRAM's counters.
func (d *DRAM) Counters() *Counters { return &d.ctr }

// mapAddr decomposes a line address into (channel, bank index, row).
// Lines interleave across banks so streaming accesses spread load; rows
// group consecutive per-bank lines.
func (d *DRAM) mapAddr(a memsys.Addr) (channel, bankIdx int, row uint64) {
	n := memsys.LineNum(a)
	bankIdx = int(n % uint64(d.totBanks))
	channel = bankIdx % d.cfg.Channels
	linesPerRow := uint64(d.cfg.RowBytes / memsys.LineSize)
	row = (n / uint64(d.totBanks)) / linesPerRow
	return
}

// Access schedules a line read or write and fires fn(arg, finish) when
// the data burst completes, unless fn is nil. Hot callers pass a static
// function plus a pooled argument, so an access allocates nothing.
// Under the simple scheduler the returned tick is the completion time;
// under FR-FCFS the request is queued and the return value is 0
// (completion arrives via fn).
func (d *DRAM) Access(a memsys.Addr, write bool, fn func(arg any, now sim.Tick), arg any) sim.Tick {
	if d.sched != nil {
		d.sched.enqueue(a, write, fn, arg)
		return 0
	}
	return d.serviceNow(a, write, fn, arg)
}

// serviceNow runs a request against the bank/bus timing immediately.
func (d *DRAM) serviceNow(a memsys.Addr, write bool, fn func(arg any, now sim.Tick), arg any) sim.Tick {
	channel, bankIdx, row := d.mapAddr(a)
	b := &d.banks[bankIdx]
	now := d.engine.Now()

	start := now
	if b.busyUntil > start {
		start = b.busyUntil
	}

	var lat sim.Tick
	switch {
	case b.hasOpenRow && b.openRow == row:
		d.ctr.RowHits++
		lat = d.cfg.TCAS
	case b.hasOpenRow:
		d.ctr.RowMisses++
		lat = d.cfg.TRP + d.cfg.TRCD + d.cfg.TCAS
	default:
		d.ctr.RowMisses++
		lat = d.cfg.TRCD + d.cfg.TCAS
	}
	b.openRow = row
	b.hasOpenRow = true

	dataReady := start + lat
	// The channel data bus serialises bursts.
	busStart := dataReady
	if d.busFree[channel] > busStart {
		busStart = d.busFree[channel]
	}
	finish := busStart + d.cfg.TBurst
	d.busFree[channel] = finish
	b.busyUntil = finish

	if write {
		d.ctr.Writes++
	} else {
		d.ctr.Reads++
	}
	d.ctr.TotalLatency += uint64(finish - now)

	if fn != nil {
		d.engine.ScheduleArgAt(finish, fn, arg)
	}
	return finish
}

// AvgLatency returns the mean access latency in ticks so far.
func (d *DRAM) AvgLatency() float64 {
	n := d.ctr.Reads + d.ctr.Writes
	return stats.Ratio(d.ctr.TotalLatency, n)
}

// RowHitRate returns the fraction of accesses that hit an open row.
func (d *DRAM) RowHitRate() float64 {
	return stats.Ratio(d.ctr.RowHits, d.ctr.RowHits+d.ctr.RowMisses)
}

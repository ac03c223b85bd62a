package dram

import (
	"testing"
	"testing/quick"

	"dstore/internal/memsys"
	"dstore/internal/sim"
)

func newFRFCFS() (*sim.Engine, *DRAM) {
	e := sim.NewEngine()
	cfg := DefaultConfig()
	cfg.Scheduler = SchedFRFCFS
	return e, New(e, cfg)
}

func TestFRFCFSCompletesAll(t *testing.T) {
	e, d := newFRFCFS()
	done := 0
	for i := 0; i < 64; i++ {
		d.Access(memsys.Addr(i)*memsys.LineSize, i%3 == 0, func(any, sim.Tick) { done++ }, nil)
	}
	e.Run()
	if done != 64 {
		t.Fatalf("completed %d/64", done)
	}
	if d.Counters().Get("reads")+d.Counters().Get("writes") != 64 {
		t.Error("access counters wrong")
	}
}

func TestFRFCFSPrefersRowHits(t *testing.T) {
	// Enqueue a row-miss (different row, same bank) before a row-hit;
	// after the first access opens row 0, the row-hit must be served
	// before the older row-miss... to test ordering, enqueue: A (bank0
	// row0), B (bank0 row1), C (bank0 row0). C should finish before B.
	e, d := newFRFCFS()
	cfg := DefaultConfig()
	linesPerRow := uint64(cfg.RowBytes / memsys.LineSize)
	bankStride := uint64(d.totBanks) * memsys.LineSize

	a := memsys.Addr(0)
	b := memsys.Addr(uint64(d.totBanks) * linesPerRow * memsys.LineSize) // bank0, row1
	c := memsys.Addr(bankStride)                                         // bank0, row0

	var order []string
	d.Access(a, false, func(any, sim.Tick) { order = append(order, "a") }, nil)
	d.Access(b, false, func(any, sim.Tick) { order = append(order, "b") }, nil)
	d.Access(c, false, func(any, sim.Tick) { order = append(order, "c") }, nil)
	e.Run()
	if len(order) != 3 {
		t.Fatalf("completed %v", order)
	}
	if order[0] != "a" || order[1] != "c" || order[2] != "b" {
		t.Errorf("service order %v, want [a c b] (row hit first)", order)
	}
}

func TestFRFCFSReadsPriorityOverWrites(t *testing.T) {
	// A handful of writes queued before a read: the read should
	// complete before the write backlog (below drain threshold).
	e, d := newFRFCFS()
	var order []string
	for i := 0; i < writeDrainLow+2; i++ {
		i := i
		// Same bank so they can't all issue at once.
		d.Access(memsys.Addr(uint64(i)*uint64(d.totBanks)*2048), true, func(any, sim.Tick) {
			_ = i
			order = append(order, "w")
		}, nil)
	}
	d.Access(memsys.Addr(memsys.LineSize), false, func(any, sim.Tick) { order = append(order, "r") }, nil)
	e.Run()
	pos := -1
	for i, s := range order {
		if s == "r" {
			pos = i
		}
	}
	if pos == -1 {
		t.Fatal("read never completed")
	}
	if pos > 1 {
		t.Errorf("read completed at position %d of %v, want near the front", pos, order)
	}
}

func TestFRFCFSWriteDrain(t *testing.T) {
	// Flood writes past the high mark with a competing read stream:
	// everything must still complete (no starvation either way).
	e, d := newFRFCFS()
	done := 0
	for i := 0; i < writeDrainHigh*2; i++ {
		d.Access(memsys.Addr(i)*memsys.LineSize, true, func(any, sim.Tick) { done++ }, nil)
	}
	for i := 0; i < 8; i++ {
		d.Access(memsys.Addr(1<<20)+memsys.Addr(i)*memsys.LineSize, false, func(any, sim.Tick) { done++ }, nil)
	}
	e.Run()
	if done != writeDrainHigh*2+8 {
		t.Fatalf("completed %d, want %d", done, writeDrainHigh*2+8)
	}
}

func TestFRFCFSDefaultUnchanged(t *testing.T) {
	// The default configuration must keep the simple scheduler (the
	// calibrated experiments depend on it).
	e := sim.NewEngine()
	d := New(e, DefaultConfig())
	if d.sched != nil {
		t.Fatal("default config got the FR-FCFS scheduler")
	}
	if at := d.Access(0, false, nil, nil); at == 0 {
		t.Error("simple scheduler did not return a completion tick")
	}
}

// Property: FR-FCFS completes every request exactly once, regardless of
// the address/type mix.
func TestPropertyFRFCFSCompletion(t *testing.T) {
	f := func(ops []uint16) bool {
		e, d := newFRFCFS()
		want := len(ops)
		got := 0
		for _, op := range ops {
			d.Access(memsys.Addr(op)*memsys.LineSize, op%2 == 0, func(any, sim.Tick) { got++ }, nil)
		}
		e.Run()
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

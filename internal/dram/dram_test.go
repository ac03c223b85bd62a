package dram

import (
	"testing"
	"testing/quick"

	"dstore/internal/memsys"
	"dstore/internal/sim"
)

func newDRAM() (*sim.Engine, *DRAM) {
	e := sim.NewEngine()
	return e, New(e, DefaultConfig())
}

func TestFirstAccessPaysActivate(t *testing.T) {
	e, d := newDRAM()
	cfg := DefaultConfig()
	var doneAt sim.Tick
	d.Access(0, false, func(_ any, now sim.Tick) { doneAt = now }, nil)
	e.Run()
	want := cfg.TRCD + cfg.TCAS + cfg.TBurst
	if doneAt != want {
		t.Errorf("cold access completed at %d, want %d", doneAt, want)
	}
	if d.Counters().Get("row_misses") != 1 {
		t.Error("cold access not counted as row miss")
	}
}

func TestRowHitIsFaster(t *testing.T) {
	_, d := newDRAM()
	cfg := DefaultConfig()
	base := d.Access(0, false, nil, nil)
	// Same bank, same row: line 0 and line totBanks share a bank; with
	// RowBytes=2048 (16 lines/row) per-bank line 1 is still row 0.
	a2 := memsys.Addr(d.totBanks) * memsys.LineSize
	doneAt := d.Access(a2, false, nil, nil)
	if doneAt-base != cfg.TCAS+cfg.TBurst {
		t.Errorf("row hit latency %d, want %d", doneAt-base, cfg.TCAS+cfg.TBurst)
	}
	if d.Counters().Get("row_hits") != 1 {
		t.Errorf("row hits = %d, want 1", d.Counters().Get("row_hits"))
	}
}

func TestRowConflictPaysPrecharge(t *testing.T) {
	e, d := newDRAM()
	cfg := DefaultConfig()
	linesPerRow := uint64(cfg.RowBytes / memsys.LineSize)
	// Two accesses to the same bank, different rows.
	a1 := memsys.Addr(0)
	a2 := memsys.Addr(uint64(d.totBanks) * linesPerRow * memsys.LineSize)
	t1 := d.Access(a1, false, nil, nil)
	doneAt := d.Access(a2, false, nil, nil)
	_ = e
	want := t1 + cfg.TRP + cfg.TRCD + cfg.TCAS + cfg.TBurst
	if doneAt != want {
		t.Errorf("row conflict completed at %d, want %d", doneAt, want)
	}
	if d.Counters().Get("row_misses") != 2 {
		t.Error("conflict not counted as row miss")
	}
}

func TestBankParallelism(t *testing.T) {
	// Two accesses to different banks overlap; two to the same bank
	// serialise. Compare completion of the second access in each case.
	cfg := DefaultConfig()

	run := func(a1, a2 memsys.Addr) sim.Tick {
		e := sim.NewEngine()
		d := New(e, cfg)
		d.Access(a1, false, nil, nil)
		var doneAt sim.Tick
		d.Access(a2, false, func(_ any, now sim.Tick) { doneAt = now }, nil)
		e.Run()
		return doneAt
	}

	e0 := sim.NewEngine()
	d0 := New(e0, cfg)
	sameBank := run(0, memsys.Addr(d0.totBanks)*memsys.LineSize)
	diffBank := run(0, memsys.LineSize) // adjacent lines: different banks
	if diffBank >= sameBank {
		t.Errorf("different-bank access (%d) not faster than same-bank (%d)", diffBank, sameBank)
	}
}

func TestChannelBusSerialisesBursts(t *testing.T) {
	// With one channel, n parallel accesses to n distinct banks still
	// finish at least TBurst apart.
	e, d := newDRAM()
	cfg := DefaultConfig()
	var finishes []sim.Tick
	for i := 0; i < 4; i++ {
		d.Access(memsys.Addr(i)*memsys.LineSize, false, func(_ any, now sim.Tick) {
			finishes = append(finishes, now)
		}, nil)
	}
	e.Run()
	if len(finishes) != 4 {
		t.Fatalf("completed %d accesses, want 4", len(finishes))
	}
	for i := 1; i < len(finishes); i++ {
		if finishes[i]-finishes[i-1] < cfg.TBurst {
			t.Errorf("bursts %d apart, want >= %d", finishes[i]-finishes[i-1], cfg.TBurst)
		}
	}
}

func TestReadWriteCounters(t *testing.T) {
	e, d := newDRAM()
	d.Access(0, false, nil, nil)
	d.Access(memsys.LineSize, true, nil, nil)
	d.Access(2*memsys.LineSize, true, nil, nil)
	e.Run()
	if d.Counters().Get("reads") != 1 || d.Counters().Get("writes") != 2 {
		t.Errorf("reads=%d writes=%d", d.Counters().Get("reads"), d.Counters().Get("writes"))
	}
}

func TestAvgLatencyPositive(t *testing.T) {
	e, d := newDRAM()
	for i := 0; i < 10; i++ {
		d.Access(memsys.Addr(i)*memsys.LineSize, false, nil, nil)
	}
	e.Run()
	if d.AvgLatency() <= 0 {
		t.Error("average latency not positive after accesses")
	}
}

func TestRowHitRateStreamIsHigh(t *testing.T) {
	// A sequential sweep revisits each row linesPerRow times per bank:
	// hit rate should be substantially positive.
	e, d := newDRAM()
	for i := 0; i < 1024; i++ {
		d.Access(memsys.Addr(i)*memsys.LineSize, false, nil, nil)
	}
	e.Run()
	if hr := d.RowHitRate(); hr < 0.5 {
		t.Errorf("streaming row hit rate %v, want > 0.5", hr)
	}
}

func TestBadGeometryPanics(t *testing.T) {
	e := sim.NewEngine()
	bad := []Config{
		{Name: "no-banks", Channels: 1, Ranks: 1, Banks: 0, RowBytes: 2048},
		{Name: "tiny-row", Channels: 1, Ranks: 1, Banks: 1, RowBytes: 64},
	}
	for _, cfg := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %s did not panic", cfg.Name)
				}
			}()
			New(e, cfg)
		}()
	}
}

// Property: completion time is always at least issue time plus the
// minimum service latency, and accesses to one bank never complete out
// of order.
func TestPropertyCompletionMonotonicPerBank(t *testing.T) {
	cfg := DefaultConfig()
	minLat := cfg.TCAS + cfg.TBurst
	f := func(lineNums []uint8) bool {
		e := sim.NewEngine()
		d := New(e, cfg)
		type rec struct {
			bank int
			done sim.Tick
		}
		var recs []rec
		for _, ln := range lineNums {
			a := memsys.Addr(ln) * memsys.LineSize
			_, bankIdx, _ := d.mapAddr(a)
			issue := e.Now()
			d.Access(a, ln%2 == 0, func(_ any, now sim.Tick) {
				if now < issue+minLat {
					recs = append(recs, rec{bank: -1}) // sentinel failure
					return
				}
				recs = append(recs, rec{bank: bankIdx, done: now})
			}, nil)
		}
		e.Run()
		last := map[int]sim.Tick{}
		for _, r := range recs {
			if r.bank == -1 {
				return false
			}
			if r.done < last[r.bank] {
				return false
			}
			last[r.bank] = r.done
		}
		return len(recs) == len(lineNums)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

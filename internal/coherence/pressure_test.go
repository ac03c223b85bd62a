package coherence

import (
	"testing"

	"dstore/internal/memsys"
	"dstore/internal/sim"
)

// TestMSHRFullStallMixedTraffic drives a 1-entry MSHR file with
// interleaved loads and stores to distinct lines: every access behind
// the full MSHR must stall, drain in order, and complete with the
// stored versions intact.
func TestMSHRFullStallMixedTraffic(t *testing.T) {
	r := newRig(t, 1, 4096, 2)
	const n = 12
	completed := make([]bool, n)
	for i := 0; i < n; i++ {
		typ := memsys.Load
		var ver uint64
		if i%3 == 0 {
			typ = memsys.Store
			ver = uint64(100 + i)
		}
		r.gpu.Access(&memsys.Request{Type: typ, Addr: line0 + memsys.Addr(i)*memsys.LineSize,
			Ver: ver, Done: func(sim.Tick) { completed[i] = true }})
	}
	r.e.Run()
	for i, done := range completed {
		if !done {
			t.Fatalf("access %d never completed behind the full MSHR", i)
		}
	}
	if r.gpu.Counters().Get("mshr_stalls") == 0 {
		t.Error("no MSHR stalls recorded with 1 entry and 12 distinct lines")
	}
	for i := 0; i < n; i += 3 {
		line := line0 + memsys.Addr(i)*memsys.LineSize
		if got := r.gpu.Ver(line); got != uint64(100+i) {
			t.Errorf("line %d: version %d after drain, want %d", i, got, 100+i)
		}
	}
}

// TestMSHRStallDoesNotReorderSameLine checks a store stalled behind a
// full MSHR still applies after the load fill for its line: the drain
// path must not lose the program's per-line order.
func TestMSHRStallDoesNotReorderSameLine(t *testing.T) {
	r := newRig(t, 1, 4096, 2)
	other := line0 + 64*memsys.LineSize
	done := 0
	// First miss occupies the single MSHR; the same-line store behind it
	// merges, the other-line load stalls.
	r.gpu.Access(&memsys.Request{Type: memsys.Load, Addr: line0, Done: func(sim.Tick) { done++ }})
	r.gpu.Access(&memsys.Request{Type: memsys.Store, Addr: line0, Ver: 7, Done: func(sim.Tick) { done++ }})
	r.gpu.Access(&memsys.Request{Type: memsys.Load, Addr: other, Done: func(sim.Tick) { done++ }})
	r.e.Run()
	if done != 3 {
		t.Fatalf("completed %d of 3 accesses", done)
	}
	if st := r.gpu.State(line0); st != MM {
		t.Errorf("merged store left line in %s, want MM", StateName(st))
	}
	if got := r.gpu.Ver(line0); got != 7 {
		t.Errorf("merged store version %d, want 7", got)
	}
}

// TestWriteBufferDrainUnderPressure forces a storm of dirty evictions
// through a 4-line cache: two store passes over 16 lines keep the
// writeback buffer loaded while victims re-enter, exercising both the
// in-flight-writeback self-serve path and the probe-hits-wbBuf path.
// Every line must end at its second-pass version, observable from the
// peer, with the buffer fully drained.
func TestWriteBufferDrainUnderPressure(t *testing.T) {
	r := newRig(t, 8, 256, 2) // 4 lines total: 2 sets x 2 ways
	const n = 16
	done := 0
	for pass, base := range []uint64{100, 200} {
		_ = pass
		for i := 0; i < n; i++ {
			r.cpu.Access(&memsys.Request{Type: memsys.Store,
				Addr: line0 + memsys.Addr(i)*memsys.LineSize,
				Ver:  base + uint64(i), Done: func(sim.Tick) { done++ }})
		}
	}
	r.e.Run()
	if done != 2*n {
		t.Fatalf("completed %d of %d stores", done, 2*n)
	}
	if wb := r.cpu.Counters().Get("writebacks_sent"); wb == 0 {
		t.Error("no writebacks with 32 stores through a 4-line cache")
	}
	if r.cpu.WBBufLen() != 0 {
		t.Errorf("%d writebacks still buffered after quiesce", r.cpu.WBBufLen())
	}
	// The peer must observe every second-pass version, wherever the line
	// ended up (CPU cache, in-flight writeback, or memory).
	for i := 0; i < n; i++ {
		req := r.do(r.gpu, memsys.Load, line0+memsys.Addr(i)*memsys.LineSize, 0)
		if req.Ver != 200+uint64(i) {
			t.Errorf("line %d: peer observed version %d, want %d", i, req.Ver, 200+uint64(i))
		}
	}
}

// TestProbeDuringWritebackStorm interleaves peer loads with the
// eviction storm so probes land while their lines sit in the writeback
// buffer; the buffer must keep supplying data until memory commits.
func TestProbeDuringWritebackStorm(t *testing.T) {
	r := newRig(t, 8, 256, 2)
	const n = 8
	stores := 0
	for i := 0; i < n; i++ {
		r.cpu.Access(&memsys.Request{Type: memsys.Store,
			Addr: line0 + memsys.Addr(i)*memsys.LineSize,
			Ver:  uint64(1 + i), Done: func(sim.Tick) { stores++ }})
	}
	loads := 0
	vers := make([]uint64, n)
	for i := 0; i < n; i++ {
		req := &memsys.Request{Type: memsys.Load,
			Addr: line0 + memsys.Addr(i)*memsys.LineSize}
		req.Done = func(tk sim.Tick) { loads++; vers[i] = req.Ver }
		r.gpu.Access(req)
	}
	r.e.Run()
	if stores != n || loads != n {
		t.Fatalf("completed %d stores, %d loads; want %d each", stores, loads, n)
	}
	for i, v := range vers {
		// A load racing its store may legitimately observe the pre-store
		// copy, but a version from a *different* line or a torn value is
		// a coherence bug.
		if v != 0 && v != uint64(1+i) {
			t.Errorf("line %d: observed version %d, want 0 or %d", i, v, 1+i)
		}
	}
	if r.cpu.WBBufLen() != 0 || r.gpu.WBBufLen() != 0 {
		t.Error("writeback buffers not drained after quiesce")
	}
	r.checkExclusivity(func() []memsys.Addr {
		out := make([]memsys.Addr, n)
		for i := range out {
			out[i] = line0 + memsys.Addr(i)*memsys.LineSize
		}
		return out
	}())
}

// TestStallDrainSteadyStateAllocs pins the stall queue's reuse of its
// backing array: once warm, a cycle of misses that overflow a 1-entry
// MSHR file, stall and drain allocates nothing. The cache holds 4
// lines and each cycle loads 16, so every load misses and all but one
// per fill stall.
func TestStallDrainSteadyStateAllocs(t *testing.T) {
	r := newRig(t, 1, 512, 2)
	const n = 16
	done := 0
	reqs := make([]memsys.Request, n)
	for i := range reqs {
		reqs[i].Done = func(sim.Tick) { done++ }
	}
	cycle := func() {
		for i := range reqs {
			reqs[i].Type, reqs[i].Addr = memsys.Load, line0+memsys.Addr(i)*memsys.LineSize
			r.gpu.Access(&reqs[i])
		}
		r.e.Run()
	}
	for i := 0; i < 4; i++ {
		cycle()
	}
	stalls := r.gpu.Counters().Get("mshr_stalls")
	if allocs := testing.AllocsPerRun(20, cycle); allocs != 0 {
		t.Errorf("stall/drain cycle allocates %.1f times, want 0", allocs)
	}
	if r.gpu.Counters().Get("mshr_stalls") == stalls {
		t.Error("no MSHR stalls in the measured cycles")
	}
	if want := n * (4 + 21); done != want {
		t.Errorf("%d accesses completed, want %d", done, want)
	}
}

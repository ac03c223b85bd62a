package cpu

import (
	"testing"

	"dstore/internal/cache"
	"dstore/internal/coherence"
	"dstore/internal/dram"
	"dstore/internal/interconnect"
	"dstore/internal/memalloc"
	"dstore/internal/memsys"
	"dstore/internal/mmu"
	"dstore/internal/sim"
)

type rig struct {
	e     *sim.Engine
	core  *Core
	cpuC  *coherence.Ctrl
	gpuC  *coherence.Ctrl
	space *memalloc.Space
	vers  *VersionSource
	pt    *mmu.PageTable
}

// pa translates a virtual address through the rig's page table; the
// hierarchy below the TLBs runs on physical addresses.
func (r *rig) pa(t *testing.T, va memsys.Addr) memsys.Addr {
	t.Helper()
	pa, ok := r.pt.Lookup(va)
	if !ok {
		t.Fatalf("va %#x never touched", uint64(va))
	}
	return pa
}

func newRig(t *testing.T, ds bool) *rig {
	t.Helper()
	e := sim.NewEngine()
	xbar := interconnect.NewCrossbar(e, "xbar", 16, 32)
	d := dram.New(e, dram.DefaultConfig())
	agents := []interconnect.Port{xbar.Port("cpu"), xbar.Port("gpu0")}
	mem := coherence.NewMemCtrl(e, "mem", xbar, d, func(_ memsys.Addr, req interconnect.Port) []interconnect.Port {
		var out []interconnect.Port
		for _, p := range agents {
			if p != req {
				out = append(out, p)
			}
		}
		return out
	})
	l1 := cache.Config{Name: "l1d", SizeBytes: 4 * 1024, Ways: 2}
	cpuC := coherence.NewCtrl(e, coherence.CtrlConfig{
		Name: "cpu", L2: cache.Config{Name: "l2", SizeBytes: 64 * 1024, Ways: 8},
		L1: &l1, L1HitLat: 4, L2HitLat: 12, MSHRs: 8,
	}, xbar, mem)
	gpuC := coherence.NewCtrl(e, coherence.CtrlConfig{
		Name: "gpu0", L2: cache.Config{Name: "gl2", SizeBytes: 64 * 1024, Ways: 8},
		L2HitLat: 12, MSHRs: 8,
	}, xbar, mem)
	direct := interconnect.NewLink(e, "direct", 20, 16)
	cpuC.AttachDirectStore(direct, func(memsys.Addr) *coherence.Ctrl { return gpuC })

	pt := mmu.NewPageTable(1 << 30)
	tlb := mmu.NewTLB(pt, mmu.Config{
		Name: "tlb", Entries: 64, HitLatency: 1, WalkLatency: 30,
		DirectBase: memalloc.DirectStoreBase, DirectLimit: memalloc.DirectStoreLimit,
	})
	vers := &VersionSource{}
	core := New(e, Config{Name: "core0", StoreBufferEntries: 8, DirectStoreEnabled: ds}, tlb, cpuC, vers)
	return &rig{e: e, core: core, cpuC: cpuC, gpuC: gpuC, space: memalloc.NewSpace(), vers: vers, pt: pt}
}

func run(t *testing.T, r *rig, ops []Op) {
	t.Helper()
	finished := false
	r.core.Run(NewSliceStream(ops), func() { finished = true })
	r.e.Run()
	if !finished {
		t.Fatal("core did not finish")
	}
}

func TestCoreExecutesLoadsAndStores(t *testing.T) {
	r := newRig(t, false)
	base, _ := r.space.Malloc(4096, "buf")
	ops := []Op{
		{Type: memsys.Store, Addr: base},
		{Type: memsys.Store, Addr: base + memsys.LineSize},
		{Type: memsys.Load, Addr: base},
	}
	run(t, r, ops)
	if r.core.Counters().Get("stores") != 2 || r.core.Counters().Get("loads") != 1 {
		t.Errorf("op counts stores=%d loads=%d", r.core.Counters().Get("stores"), r.core.Counters().Get("loads"))
	}
	if r.core.FinishedAt() == 0 {
		t.Error("finish tick not recorded")
	}
}

func TestComputeGapDelaysIssue(t *testing.T) {
	short := newRig(t, false)
	long := newRig(t, false)
	base := memsys.Addr(0x10000)
	run(t, short, []Op{{Type: memsys.Load, Addr: base}})
	run(t, long, []Op{{Type: memsys.Load, Addr: base, Gap: 500}})
	if long.core.FinishedAt() < short.core.FinishedAt()+500 {
		t.Errorf("gap not honoured: short=%d long=%d", short.core.FinishedAt(), long.core.FinishedAt())
	}
}

func TestStoresRetireWithoutBlocking(t *testing.T) {
	// N independent store misses should overlap: total time must be far
	// below N * single-store-miss latency.
	r1 := newRig(t, false)
	base := memsys.Addr(0x10000)
	run(t, r1, []Op{{Type: memsys.Store, Addr: base}})
	single := r1.core.FinishedAt()

	r2 := newRig(t, false)
	var ops []Op
	const n = 8
	for i := 0; i < n; i++ {
		ops = append(ops, Op{Type: memsys.Store, Addr: base + memsys.Addr(i)*memsys.LineSize})
	}
	run(t, r2, ops)
	if r2.core.FinishedAt() >= single*n {
		t.Errorf("%d stores took %d ticks, not overlapped (single=%d)", n, r2.core.FinishedAt(), single)
	}
}

func TestLoadsBlockInOrder(t *testing.T) {
	// Two dependent loads to distinct cold lines must serialise: the
	// second can't issue until the first returns.
	r := newRig(t, false)
	base := memsys.Addr(0x10000)
	r1 := newRig(t, false)
	run(t, r1, []Op{{Type: memsys.Load, Addr: base}})
	single := r1.core.FinishedAt()
	run(t, r, []Op{
		{Type: memsys.Load, Addr: base},
		{Type: memsys.Load, Addr: base + 16*memsys.LineSize},
	})
	if r.core.FinishedAt() < single+single/2 {
		t.Errorf("two cold loads at %d ticks, too fast for blocking loads (single=%d)",
			r.core.FinishedAt(), single)
	}
}

func TestDirectRegionStoreBecomesPush(t *testing.T) {
	r := newRig(t, true)
	base, err := r.space.AllocDirect(4096, "gpu_buf")
	if err != nil {
		t.Fatal(err)
	}
	run(t, r, []Op{{Type: memsys.Store, Addr: base}})
	if r.core.Counters().Get("remote_stores") != 1 {
		t.Error("direct-region store not routed to push path")
	}
	if r.core.Counters().Get("stores") != 0 {
		t.Error("direct-region store also counted as ordinary store")
	}
	if st := r.gpuC.State(r.pa(t, base)); st != coherence.MM {
		t.Errorf("pushed line state %s, want MM", coherence.StateName(st))
	}
	if r.cpuC.L2Cache().Contains(r.pa(t, base)) {
		t.Error("direct-region line cached on CPU")
	}
}

func TestDirectRegionStoreWithFeatureDisabledStaysCacheable(t *testing.T) {
	// CCSM baseline: even if an address happens to sit in the region,
	// the push path is off.
	r := newRig(t, false)
	base, _ := r.space.AllocDirect(4096, "buf")
	run(t, r, []Op{{Type: memsys.Store, Addr: base}})
	if r.core.Counters().Get("remote_stores") != 0 {
		t.Error("push issued with direct store disabled")
	}
	if st := r.cpuC.State(r.pa(t, base)); st != coherence.MM {
		t.Errorf("state %s, want MM via ordinary GETX", coherence.StateName(st))
	}
}

func TestDirectRegionLoadIsUncacheable(t *testing.T) {
	r := newRig(t, true)
	base, _ := r.space.AllocDirect(4096, "buf")
	run(t, r, []Op{
		{Type: memsys.Store, Addr: base}, // push
		{Type: memsys.Load, Addr: base},  // remote load
	})
	if r.core.Counters().Get("remote_loads") != 1 {
		t.Error("direct-region load not routed to remote-load path")
	}
	if r.cpuC.L2Cache().Contains(r.pa(t, base)) {
		t.Error("uncacheable load installed a CPU copy")
	}
}

func TestStoreBufferBackpressure(t *testing.T) {
	// Flood with more store misses than buffer entries; the core must
	// stall at least once but still finish.
	r := newRig(t, false)
	var ops []Op
	for i := 0; i < 64; i++ {
		ops = append(ops, Op{Type: memsys.Store, Addr: memsys.Addr(0x10000) + memsys.Addr(i)*memsys.LineSize})
	}
	run(t, r, ops)
	if r.core.Counters().Get("store_buffer_stall_ticks") == 0 {
		t.Error("no store buffer stalls under flood")
	}
}

func TestProducerConsumerVersionFlow(t *testing.T) {
	r := newRig(t, true)
	base, _ := r.space.AllocDirect(4096, "buf")
	run(t, r, []Op{{Type: memsys.Store, Addr: base}})
	basePA := r.pa(t, base)
	pushVer := r.gpuC.Ver(basePA)
	if pushVer == 0 {
		t.Fatal("push carried no version")
	}
	// The GPU-side controller can serve the line locally.
	done := false
	var seen uint64
	req := &memsys.Request{Type: memsys.Load, Addr: basePA, Done: func(sim.Tick) { done = true }}
	r.gpuC.Access(req)
	r.e.Run()
	seen = req.Ver
	if !done || seen != pushVer {
		t.Errorf("GPU load saw version %d, want %d", seen, pushVer)
	}
}

func TestRunTwiceSequentially(t *testing.T) {
	r := newRig(t, false)
	base := memsys.Addr(0x10000)
	run(t, r, []Op{{Type: memsys.Store, Addr: base}})
	run(t, r, []Op{{Type: memsys.Load, Addr: base}})
	if r.core.Counters().Get("loads") != 1 || r.core.Counters().Get("stores") != 1 {
		t.Error("second run miscounted")
	}
}

func TestRunWhileRunningPanics(t *testing.T) {
	r := newRig(t, false)
	r.core.Run(NewSliceStream(nil), nil)
	defer func() {
		if recover() == nil {
			t.Error("concurrent Run did not panic")
		}
	}()
	r.core.Run(NewSliceStream(nil), nil)
}

func TestSliceStream(t *testing.T) {
	s := NewSliceStream([]Op{{Gap: 1}, {Gap: 2}})
	a, ok := s.Next()
	if !ok || a.Gap != 1 {
		t.Error("first op wrong")
	}
	b, ok := s.Next()
	if !ok || b.Gap != 2 {
		t.Error("second op wrong")
	}
	if _, ok := s.Next(); ok {
		t.Error("exhausted stream returned an op")
	}
}

// TestLineStream: a line stream yields exactly the ops of the slice
// with one Op{Type, Addr: line, Gap} per line, for a produce phase's
// stores after a compute gap and a readback's gapless loads, and Next
// allocates nothing.
func TestLineStream(t *testing.T) {
	lines := []memsys.Addr{0x1000, 0x1040, 0x8000, 0x1040}
	for _, c := range []struct {
		ty  memsys.AccessType
		gap sim.Tick
	}{{memsys.Store, 37}, {memsys.Load, 0}} {
		ops := make([]Op, 0, len(lines))
		for _, a := range lines {
			ops = append(ops, Op{Type: c.ty, Addr: a, Gap: c.gap})
		}
		var got, want OpStream = &LineStream{Lines: lines, Type: c.ty, Gap: c.gap}, NewSliceStream(ops)
		for i := 0; ; i++ {
			g, gok := got.Next()
			w, wok := want.Next()
			if g != w || gok != wok {
				t.Fatalf("%v op %d: line stream gave %+v, %v; written-out ops %+v, %v", c.ty, i, g, gok, w, wok)
			}
			if !gok {
				break
			}
		}
	}
	s := &LineStream{Lines: lines, Type: memsys.Store, Gap: 1}
	var st OpStream = s
	if n := testing.AllocsPerRun(100, func() {
		s.i = 0
		for _, ok := st.Next(); ok; _, ok = st.Next() {
		}
	}); n != 0 {
		t.Errorf("Next allocated %.1f times per pass, want 0", n)
	}
}

func TestVersionSourceMonotonic(t *testing.T) {
	v := &VersionSource{}
	prev := uint64(0)
	for i := 0; i < 100; i++ {
		n := v.Next()
		if n <= prev {
			t.Fatal("versions not strictly increasing")
		}
		prev = n
	}
}

func TestBadConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero store buffer did not panic")
		}
	}()
	New(sim.NewEngine(), Config{Name: "bad", StoreBufferEntries: 0}, nil, nil, &VersionSource{})
}

func TestFenceDrainsStoreBuffer(t *testing.T) {
	// store..., fence, load: the load must issue only after every store
	// completed. Without the fence, the load (an L1 hit after the first
	// store's line) would complete long before the store drain.
	r := newRig(t, false)
	base := memsys.Addr(0x10000)
	var ops []Op
	for i := 0; i < 16; i++ {
		ops = append(ops, Op{Type: memsys.Store, Addr: base + memsys.Addr(i)*memsys.LineSize})
	}
	ops = append(ops, Op{Fence: true})
	ops = append(ops, Op{Type: memsys.Load, Addr: base})
	run(t, r, ops)
	if r.core.Counters().Get("fence_stall_ticks") == 0 {
		t.Error("fence never stalled despite 16 outstanding stores")
	}
}

func TestFenceOnEmptyBufferIsCheap(t *testing.T) {
	r := newRig(t, false)
	run(t, r, []Op{{Fence: true}, {Fence: true}})
	if r.core.Counters().Get("fence_stall_ticks") != 0 {
		t.Error("fence stalled with nothing outstanding")
	}
}

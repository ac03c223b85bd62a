package gpu

import (
	"fmt"
	"reflect"
	"testing"
	"testing/quick"

	"dstore/internal/cache"
	"dstore/internal/coherence"
	"dstore/internal/cpu"
	"dstore/internal/dram"
	"dstore/internal/interconnect"
	"dstore/internal/memalloc"
	"dstore/internal/memsys"
	"dstore/internal/mmu"
	"dstore/internal/sim"
	"dstore/internal/stats"
)

type rig struct {
	e      *sim.Engine
	g      *GPU
	slices []*coherence.Ctrl
	cpuC   *coherence.Ctrl
	mem    *coherence.MemCtrl
	pt     *mmu.PageTable
	vers   *cpu.VersionSource
}

func newRig(t *testing.T, sms, warpsPerSM, mshrs int) *rig {
	t.Helper()
	e := sim.NewEngine()
	xbar := interconnect.NewCrossbar(e, "xbar", 16, 32)
	d := dram.New(e, dram.DefaultConfig())
	const nSlices = 2
	sliceName := func(i int) string { return []string{"gpu0", "gpu1"}[i] }
	mem := coherence.NewMemCtrl(e, "mem", xbar, d, func(a memsys.Addr, req interconnect.Port) []interconnect.Port {
		var out []interconnect.Port
		for _, n := range []string{"cpu", sliceName(memsys.SliceFor(a, nSlices))} {
			if p := xbar.Port(n); p != req {
				out = append(out, p)
			}
		}
		return out
	})
	cpuC := coherence.NewCtrl(e, coherence.CtrlConfig{
		Name: "cpu", L2: cache.Config{Name: "cpu.l2", SizeBytes: 64 * 1024, Ways: 8},
		L2HitLat: 12, MSHRs: 8,
	}, xbar, mem)
	var slices []*coherence.Ctrl
	for i := 0; i < nSlices; i++ {
		slices = append(slices, coherence.NewCtrl(e, coherence.CtrlConfig{
			Name:     sliceName(i),
			L2:       cache.Config{Name: sliceName(i) + ".l2", SizeBytes: 32 * 1024, Ways: 8},
			L2HitLat: 12, MSHRs: 16,
		}, xbar, mem))
	}
	direct := interconnect.NewLink(e, "direct", 20, 16)
	cpuC.AttachDirectStore(direct, func(a memsys.Addr) *coherence.Ctrl {
		return slices[memsys.SliceFor(a, nSlices)]
	})
	pt := mmu.NewPageTable(1 << 30)
	gtlb := mmu.NewTLB(pt, mmu.Config{
		Name: "gpu.tlb", Entries: 256, HitLatency: 1, WalkLatency: 30,
		DirectBase: memalloc.DirectStoreBase, DirectLimit: memalloc.DirectStoreLimit,
	})
	vers := &cpu.VersionSource{}
	g := New(e, Config{
		Name: "gpu", SMs: sms, MaxWarpsPerSM: warpsPerSM,
		L1:       cache.Config{Name: "l1", SizeBytes: 2 * 1024, Ways: 4},
		L1HitLat: 20, SharedLat: 10, MSHRsPerSM: mshrs,
	}, gtlb, vers, func(a memsys.Addr) *coherence.Ctrl {
		return slices[memsys.SliceFor(a, nSlices)]
	})
	return &rig{e: e, g: g, slices: slices, cpuC: cpuC, mem: mem, pt: pt, vers: vers}
}

// launch runs a kernel to completion and returns the finish tick.
func (r *rig) launch(t *testing.T, k Kernel) sim.Tick {
	t.Helper()
	done := false
	var at sim.Tick
	r.g.Launch(k, func() { done = true; at = r.e.Now() })
	r.e.Run()
	if !done {
		t.Fatalf("kernel %q did not complete", k.Name)
	}
	return at
}

// sliceAccesses sums demand accesses over the slices.
func (r *rig) sliceAccesses() uint64 {
	var n uint64
	for _, s := range r.slices {
		n += s.L2Cache().Counters().Get("accesses")
	}
	return n
}

func loadWarp(addrs ...memsys.Addr) Warp {
	var ops []WarpOp
	for _, a := range addrs {
		ops = append(ops, WarpOp{Kind: OpGlobalLoad, Addr: a, Lines: 1})
	}
	return Warp{Ops: ops}
}

func TestComputeOnlyKernelCompletes(t *testing.T) {
	r := newRig(t, 2, 4, 8)
	at := r.launch(t, Kernel{Name: "k", Warps: []Warp{
		{Ops: []WarpOp{{Kind: OpCompute, Gap: 100}}},
		{Ops: []WarpOp{{Kind: OpCompute, Gap: 200}}},
	}})
	if at < 200 {
		t.Errorf("kernel finished at %d, before its longest warp", at)
	}
	if r.sliceAccesses() != 0 {
		t.Error("compute kernel touched the L2")
	}
}

func TestGlobalLoadMissesThenL1Hits(t *testing.T) {
	r := newRig(t, 1, 1, 8)
	a := memsys.Addr(0x10000)
	r.launch(t, Kernel{Name: "k", Warps: []Warp{loadWarp(a, a)}})
	if got := r.sliceAccesses(); got != 1 {
		t.Errorf("slice accesses = %d, want 1 (second load must hit L1)", got)
	}
	l1 := r.g.L1Caches()[0]
	if l1.Counters().Get("hits") != 1 {
		t.Errorf("L1 hits = %d, want 1", l1.Counters().Get("hits"))
	}
}

func TestFlashInvalidateOnLaunch(t *testing.T) {
	r := newRig(t, 1, 1, 8)
	a := memsys.Addr(0x10000)
	r.launch(t, Kernel{Name: "k1", Warps: []Warp{loadWarp(a)}})
	first := r.sliceAccesses()
	r.launch(t, Kernel{Name: "k2", Warps: []Warp{loadWarp(a)}})
	if got := r.sliceAccesses(); got != first+1 {
		t.Errorf("slice accesses after relaunch = %d, want %d (L1 flash forces refetch)", got, first+1)
	}
	if r.g.Counters().Get("l1_lines_flash_invalidated") == 0 {
		t.Error("no lines flash invalidated")
	}
}

func TestUncoalescedAccessTouchesEachLine(t *testing.T) {
	r := newRig(t, 1, 1, 8)
	r.launch(t, Kernel{Name: "k", Warps: []Warp{
		{Ops: []WarpOp{{Kind: OpGlobalLoad, Addr: 0x10000, Lines: 4}}},
	}})
	if got := r.g.Counters().Get("global_load_lines"); got != 4 {
		t.Errorf("load lines = %d, want 4", got)
	}
	if got := r.sliceAccesses(); got != 4 {
		t.Errorf("slice accesses = %d, want 4", got)
	}
}

func TestStoreWriteThroughReachesSlice(t *testing.T) {
	r := newRig(t, 1, 1, 8)
	a := memsys.Addr(0x10000)
	r.launch(t, Kernel{Name: "k", Warps: []Warp{
		{Ops: []WarpOp{{Kind: OpGlobalStore, Addr: a, Lines: 1}}},
	}})
	pa, _ := r.pt.Lookup(a)
	slice := r.slices[memsys.SliceFor(pa, 2)]
	if st := slice.State(pa); st != coherence.MM {
		t.Errorf("stored line state %s, want MM", coherence.StateName(st))
	}
	if slice.Ver(pa) == 0 {
		t.Error("store version not recorded at slice")
	}
	// Write-no-allocate: the L1 must not hold the line.
	if r.g.L1Caches()[0].Contains(pa) {
		t.Error("store allocated into L1")
	}
}

func TestKernelWaitsForOutstandingStores(t *testing.T) {
	r := newRig(t, 1, 1, 8)
	at := r.launch(t, Kernel{Name: "k", Warps: []Warp{
		{Ops: []WarpOp{{Kind: OpGlobalStore, Addr: 0x10000, Lines: 1}}},
	}})
	// The store's GETX round trip takes well over 50 ticks; a kernel
	// that "finished" earlier ignored the outstanding store.
	if at < 50 {
		t.Errorf("kernel completed at %d, before its store could commit", at)
	}
	if !r.mem.Idle() {
		t.Error("memory controller busy after kernel completion")
	}
}

func TestSharedOpsBypassHierarchy(t *testing.T) {
	r := newRig(t, 1, 1, 8)
	r.launch(t, Kernel{Name: "k", Warps: []Warp{
		{Ops: []WarpOp{{Kind: OpShared}, {Kind: OpShared}}},
	}})
	if r.g.Counters().Get("shared_ops") != 2 {
		t.Error("shared ops miscounted")
	}
	if r.sliceAccesses() != 0 {
		t.Error("shared ops generated L2 traffic")
	}
}

// TestRepeatedSharedOpMatchesSeparateOps checks that OpShared with
// Lines: n runs exactly like n separate OpShared ops: same finish tick,
// same event count, same shared-op counter, with warps contending for
// the SM's issue slots around loads and compute.
func TestRepeatedSharedOpMatchesSeparateOps(t *testing.T) {
	run := func(repeat bool) (sim.Tick, uint64, uint64) {
		r := newRig(t, 2, 3, 2)
		var warps []Warp
		for w := 0; w < 6; w++ {
			var ops []WarpOp
			for i := 0; i < 5; i++ {
				n := 1 + (w+i)%4
				ops = append(ops, WarpOp{Kind: OpGlobalLoad, Addr: memsys.Addr(0x40000 + (w*5+i)*memsys.LineSize), Lines: 1})
				if repeat {
					ops = append(ops, WarpOp{Kind: OpShared, Lines: n})
				} else {
					for j := 0; j < n; j++ {
						ops = append(ops, WarpOp{Kind: OpShared})
					}
				}
				ops = append(ops, WarpOp{Kind: OpCompute, Gap: sim.Tick(3 * w)})
			}
			warps = append(warps, Warp{Ops: ops})
		}
		at := r.launch(t, Kernel{Name: "k", Warps: warps})
		return at, r.e.Executed(), r.g.Counters().Get("shared_ops")
	}
	at1, ev1, sh1 := run(false)
	at2, ev2, sh2 := run(true)
	if at1 != at2 || ev1 != ev2 || sh1 != sh2 {
		t.Errorf("repeated op: tick %d, %d events, %d shared ops; separate ops: tick %d, %d events, %d shared ops",
			at2, ev2, sh2, at1, ev1, sh1)
	}
}

func TestPushedDataServedFromSliceWithoutCoherenceTraffic(t *testing.T) {
	r := newRig(t, 1, 1, 8)
	va := memsys.Addr(0x10000)
	pa, err := r.pt.EnsureMapped(va)
	if err != nil {
		t.Fatal(err)
	}
	// CPU pushes the line (direct store).
	pushDone := false
	r.cpuC.Access(&memsys.Request{Type: memsys.RemoteStore, Addr: pa, Ver: 77,
		Done: func(sim.Tick) { pushDone = true }})
	r.e.Run()
	if !pushDone {
		t.Fatal("push did not complete")
	}
	before := r.mem.Counters().Get("requests")
	r.launch(t, Kernel{Name: "k", Warps: []Warp{loadWarp(va)}})
	if got := r.mem.Counters().Get("requests"); got != before {
		t.Errorf("kernel read of pushed line generated %d coherence transactions", got-before)
	}
}

func TestWarpParallelismHidesLatency(t *testing.T) {
	const n = 16
	// One warp doing n dependent cold loads.
	serial := newRig(t, 1, 1, 32)
	var addrs []memsys.Addr
	for i := 0; i < n; i++ {
		addrs = append(addrs, memsys.Addr(0x10000)+memsys.Addr(i)*memsys.LineSize)
	}
	tSerial := serial.launch(t, Kernel{Name: "serial", Warps: []Warp{loadWarp(addrs...)}})

	// n warps doing one load each.
	par := newRig(t, 1, n, 32)
	var warps []Warp
	for i := 0; i < n; i++ {
		warps = append(warps, loadWarp(addrs[i]))
	}
	tPar := par.launch(t, Kernel{Name: "par", Warps: warps})
	if tPar*2 >= tSerial {
		t.Errorf("parallel warps (%d) not at least 2x faster than serial (%d)", tPar, tSerial)
	}
}

func TestMSHRBoundLimitsParallelism(t *testing.T) {
	mkKernel := func() Kernel {
		var warps []Warp
		for i := 0; i < 16; i++ {
			warps = append(warps, loadWarp(memsys.Addr(0x10000)+memsys.Addr(i)*memsys.LineSize))
		}
		return Kernel{Name: "k", Warps: warps}
	}
	narrow := newRig(t, 1, 16, 1)
	tNarrow := narrow.launch(t, mkKernel())
	wide := newRig(t, 1, 16, 16)
	tWide := wide.launch(t, mkKernel())
	if tWide >= tNarrow {
		t.Errorf("wide MSHRs (%d) not faster than single MSHR (%d)", tWide, tNarrow)
	}
	if narrow.g.Counters().Get("l1_mshr_stalls") == 0 {
		t.Error("no MSHR stalls with 1 MSHR and 16 warps")
	}
}

func TestEmptyKernelFiresDone(t *testing.T) {
	r := newRig(t, 1, 1, 4)
	done := false
	r.g.Launch(Kernel{Name: "empty"}, func() { done = true })
	r.e.Run()
	if !done {
		t.Error("empty kernel did not complete")
	}
}

func TestLaunchWhileRunningPanics(t *testing.T) {
	r := newRig(t, 1, 1, 4)
	r.g.Launch(Kernel{Name: "k", Warps: []Warp{{Ops: []WarpOp{{Kind: OpCompute, Gap: 10}}}}}, nil)
	defer func() {
		if recover() == nil {
			t.Error("second launch did not panic")
		}
	}()
	r.g.Launch(Kernel{Name: "k2", Warps: []Warp{{}}}, nil)
}

func TestBadConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero SMs did not panic")
		}
	}()
	New(sim.NewEngine(), Config{Name: "bad", SMs: 0, MaxWarpsPerSM: 1, MSHRsPerSM: 1}, nil, nil, nil)
}

func TestWarpsDistributedAcrossSMs(t *testing.T) {
	r := newRig(t, 4, 1, 8)
	var warps []Warp
	for i := 0; i < 8; i++ {
		warps = append(warps, Warp{Ops: []WarpOp{{Kind: OpShared}}})
	}
	r.launch(t, Kernel{Name: "k", Warps: warps})
	// All 4 SMs should have seen work: with 1 resident warp per SM and 8
	// warps, every SM runs exactly 2.
	if r.g.Counters().Get("shared_ops") != 8 {
		t.Error("not all warps executed")
	}
}

// Property: any kernel built from random small warps completes, with
// load/store line counts conserved and the memory controller idle.
func TestPropertyKernelsComplete(t *testing.T) {
	f := func(spec []uint16) bool {
		r := newRig(t, 2, 4, 4)
		var warps []Warp
		var wantLoads, wantStores uint64
		for _, s := range spec {
			var ops []WarpOp
			for j := 0; j < int(s%3)+1; j++ {
				a := memsys.Addr(0x10000) + memsys.Addr((int(s)+j)%16)*memsys.LineSize
				switch (int(s) + j) % 4 {
				case 0:
					ops = append(ops, WarpOp{Kind: OpCompute, Gap: sim.Tick(s % 50)})
				case 1:
					ops = append(ops, WarpOp{Kind: OpShared})
				case 2:
					ops = append(ops, WarpOp{Kind: OpGlobalLoad, Addr: a, Lines: 1})
					wantLoads++
				case 3:
					ops = append(ops, WarpOp{Kind: OpGlobalStore, Addr: a, Lines: 1})
					wantStores++
				}
			}
			warps = append(warps, Warp{Ops: ops})
		}
		if len(warps) == 0 {
			return true
		}
		done := false
		r.g.Launch(Kernel{Name: "p", Warps: warps}, func() { done = true })
		r.e.Run()
		return done &&
			r.g.Counters().Get("global_load_lines") == wantLoads &&
			r.g.Counters().Get("global_store_lines") == wantStores &&
			r.mem.Idle()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestBarrierSynchronisesWarps(t *testing.T) {
	// Warp A computes briefly then waits at the barrier; warp B
	// computes for a long time. Both must pass the barrier together.
	r := newRig(t, 2, 4, 8)
	var passedAt []sim.Tick
	record := func() WarpOp { return WarpOp{Kind: OpShared} }
	_ = record
	k := Kernel{Name: "bar", Warps: []Warp{
		{Ops: []WarpOp{{Kind: OpCompute, Gap: 10}, {Kind: OpBarrier}, {Kind: OpShared}}},
		{Ops: []WarpOp{{Kind: OpCompute, Gap: 500}, {Kind: OpBarrier}, {Kind: OpShared}}},
	}}
	done := false
	r.g.Launch(k, func() { done = true; passedAt = append(passedAt, r.e.Now()) })
	r.e.Run()
	if !done {
		t.Fatal("barrier kernel did not complete")
	}
	// Completion must be after the slow warp's 500-tick compute: the
	// fast warp cannot have finished earlier.
	if r.e.Now() < 500 {
		t.Errorf("kernel completed at %d, before the slow warp reached the barrier", r.e.Now())
	}
	if r.g.Counters().Get("barrier_arrivals") != 2 {
		t.Errorf("barrier arrivals = %d, want 2", r.g.Counters().Get("barrier_arrivals"))
	}
}

func TestBarrierWithFinishedWarps(t *testing.T) {
	// One warp has no barrier and finishes early; the other two wait.
	// The barrier must release once the finished warp is accounted for.
	r := newRig(t, 2, 4, 8)
	k := Kernel{Name: "bar2", Warps: []Warp{
		{Ops: []WarpOp{{Kind: OpShared}}}, // no barrier, finishes
		{Ops: []WarpOp{{Kind: OpBarrier}, {Kind: OpShared}}},
		{Ops: []WarpOp{{Kind: OpCompute, Gap: 100}, {Kind: OpBarrier}, {Kind: OpShared}}},
	}}
	done := false
	r.g.Launch(k, func() { done = true })
	r.e.Run()
	if !done {
		t.Fatal("kernel with mixed barrier/no-barrier warps deadlocked")
	}
}

func TestBarrierOverCapacityPanics(t *testing.T) {
	r := newRig(t, 1, 2, 4) // capacity: 1 SM x 2 warps
	var warps []Warp
	for i := 0; i < 3; i++ {
		warps = append(warps, Warp{Ops: []WarpOp{{Kind: OpBarrier}}})
	}
	defer func() {
		if recover() == nil {
			t.Error("barrier kernel above residency accepted (would deadlock)")
		}
	}()
	r.g.Launch(Kernel{Name: "dead", Warps: warps}, nil)
}

// expand writes a warp's loops out as plain Ops: the form the loop
// executor must be indistinguishable from.
func expand(w Warp) Warp {
	ops := append([]WarpOp(nil), w.Ops...)
	for _, l := range w.Loops {
		for _, a := range l.Addrs {
			for _, op := range l.Body {
				op.Addr += a
				ops = append(ops, op)
			}
		}
	}
	return Warp{Ops: ops}
}

// loopKernel builds a kernel in loop form that exercises every op kind
// a loop body can hold: two-line loads, repeated scratchpad ops and
// compute gaps in one shared body, then a store loop whose body writes
// three lines per address. One warp also carries plain Ops ahead of
// its loops, and one has a loop with no addresses.
func loopKernel() Kernel {
	load := []WarpOp{
		{Kind: OpGlobalLoad, Lines: 2},
		{Kind: OpShared, Lines: 3},
		{Kind: OpCompute, Gap: 5},
	}
	store := []WarpOp{
		{Kind: OpGlobalStore, Lines: 1},
		{Kind: OpGlobalStore, Addr: memsys.LineSize, Lines: 2},
	}
	var warps []Warp
	for w := 0; w < 8; w++ {
		var in, out []memsys.Addr
		for i := 0; i < 6; i++ {
			in = append(in, memsys.Addr(0x100000+((w*6+i)%20)*2*memsys.LineSize))
			out = append(out, memsys.Addr(0x200000+(w*6+i)*4*memsys.LineSize))
		}
		wp := Warp{Loops: []Loop{{Body: load, Addrs: in}, {Body: store, Addrs: out}}}
		switch w {
		case 0:
			wp.Ops = []WarpOp{{Kind: OpCompute, Gap: 11}, {Kind: OpGlobalLoad, Addr: 0x300000, Lines: 1}}
		case 1:
			wp.Loops = append([]Loop{{Body: load}}, wp.Loops...)
		}
		warps = append(warps, wp)
	}
	return Kernel{Name: "loops", Warps: warps}
}

// outcome is what a rig's runs left behind: the last kernel's finish
// tick, the engine's event count and every GPU, L1 and L2 counter.
type outcome struct {
	at     sim.Tick
	events uint64
	counts map[string]uint64
}

// outcomeOf reads r's outcome after a kernel that finished at at.
func outcomeOf(r *rig, at sim.Tick) outcome {
	o := outcome{at: at, events: r.e.Executed(), counts: map[string]uint64{}}
	collect := func(prefix string, rs stats.Rows) {
		for _, row := range rs {
			o.counts[prefix+row.Name] = *row.N
		}
	}
	collect("gpu.", r.g.Counters().Rows())
	for i, l1 := range r.g.L1Caches() {
		collect(fmt.Sprintf("l1.%d.", i), l1.Counters().Rows())
	}
	for i, sl := range r.slices {
		collect(fmt.Sprintf("l2.%d.", i), sl.L2Cache().Counters().Rows())
	}
	return o
}

// TestLoopMatchesExpandedOps: a kernel in loop form and the same kernel
// written out as Ops give the same finish tick, event count, GPU
// counters and cache counters, with the MSHR file and the store
// pipeline both saturated.
func TestLoopMatchesExpandedOps(t *testing.T) {
	run := func(k Kernel, maxStores int) outcome {
		r := newRig(t, 2, 4, 2)
		r.g.cfg.MaxStoresPerSM = maxStores
		return outcomeOf(r, r.launch(t, k))
	}
	loops := loopKernel()
	var flat Kernel
	flat.Name = loops.Name
	for _, w := range loops.Warps {
		flat.Warps = append(flat.Warps, expand(w))
	}
	got, want := run(loops, 2), run(flat, 2)
	if got.at != want.at || got.events != want.events || !reflect.DeepEqual(got.counts, want.counts) {
		t.Errorf("loop form: tick %d, %d events, counters %v\nexpanded: tick %d, %d events, counters %v",
			got.at, got.events, got.counts, want.at, want.events, want.counts)
	}
	if got.counts["gpu.l1_mshr_stalls"] == 0 {
		t.Error("kernel never stalled on the L1 MSHR file")
	}
	if got.counts["gpu.shared_ops"] == 0 || got.counts["gpu.global_store_lines"] == 0 {
		t.Error("kernel ran no scratchpad ops or no stores")
	}
	// The store pipeline filled: a deeper one runs fewer events.
	if deep := run(loops, 1000); deep.events >= got.events {
		t.Errorf("a 1000-deep store pipeline ran %d events, a 2-deep one %d: the shallow pipeline never filled",
			deep.events, got.events)
	}
}

func TestBarrierInLoopBodyOverCapacityPanics(t *testing.T) {
	r := newRig(t, 1, 2, 4) // capacity: 1 SM x 2 warps
	body := []WarpOp{{Kind: OpCompute, Gap: 1}, {Kind: OpBarrier}}
	var warps []Warp
	for i := 0; i < 3; i++ {
		warps = append(warps, Warp{Loops: []Loop{{Body: body, Addrs: []memsys.Addr{0, 0}}}})
	}
	defer func() {
		if recover() == nil {
			t.Error("barrier in a loop body above residency accepted (would deadlock)")
		}
	}()
	r.g.Launch(Kernel{Name: "dead", Warps: warps}, nil)
}
